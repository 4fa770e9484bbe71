#!/usr/bin/env sh
# Runs the simulation-kernel benchmarks and records the results as
# BENCH_sim.json (single-clock kernel), BENCH_multiclock.json
# (multi-clock scheduler) and BENCH_sweep.json (batch sweep service,
# per-variant throughput + telemetry aggregates) in the repository
# root, so successive PRs accumulate a perf trajectory.  Usage:
#
#   bench/run_bench.sh [build_dir]
#
# The build directory defaults to ./build and must already be
# configured/built (tier-1 verify does that).
#
# Every expected bench binary is checked up front: a missing one fails
# the whole run and prints the full expected list, so a bench silently
# dropped from the build (a CMake glob change, google-benchmark absent
# on the runner) can never turn this CI step into a green no-op.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

# The google-benchmark programs this script runs for the JSON perf
# trajectory (bench_sweep emits its own JSON format), plus the
# standalone bench programs the build must also have produced
# (bench_stats_gate is the CI perf gate).
json_benches="bench_sim_kernel bench_multiclock bench_sweep"
other_benches="bench_stats_gate bench_ablation bench_designspace \
bench_fig3_pipeline bench_fig4_fig5_codegen bench_overhead_cycles \
bench_table1_matrix bench_table3_resources \
bench_width_adaptation"

missing=""
for bench in $json_benches $other_benches; do
  [ -x "$build_dir/$bench" ] || missing="$missing $bench"
done
if [ -n "$missing" ]; then
  echo "error: missing bench binaries in $build_dir:$missing" >&2
  echo "expected binaries:" >&2
  for bench in $json_benches $other_benches; do
    echo "  $bench" >&2
  done
  echo "build them with: cmake -B build -S . && cmake --build build -j" >&2
  echo "(the JSON benches additionally need google-benchmark installed)" >&2
  exit 1
fi

run_one() {
  bench="$build_dir/$1"
  out="$repo_root/$2"
  "$bench" \
    --benchmark_format=console \
    --benchmark_out="$out" \
    --benchmark_out_format=json
  echo
  echo "wrote $out"
}

run_one bench_sim_kernel BENCH_sim.json

# Codegen throughput: appends the emit/structured_ir row (units/sec)
# into the report bench_sim_kernel just wrote, so the generator's perf
# rides the same trajectory as the kernel numbers.
"$build_dir/bench_fig4_fig5_codegen" --append-bench "$repo_root/BENCH_sim.json"

run_one bench_multiclock BENCH_multiclock.json

# The sweep bench writes its own per-variant JSON (throughput plus the
# per-job telemetry aggregates when tracing is on).
"$build_dir/bench_sweep" --workers 2 --out "$repo_root/BENCH_sweep.json"
echo
echo "wrote $repo_root/BENCH_sweep.json"
