// Simulation-kernel throughput (google-benchmark): event-driven
// dirty-set scheduling vs the full-sweep reference kernel, on the blur
// and saa2vga pattern designs at several resolutions.
//
// Each iteration builds a fresh design and simulates it to completion,
// so the numbers cover a whole active pipeline run (reset, fill, frame,
// drain) rather than an idle design — the workload the event-driven
// kernel must win on, not a best case.
//
// Reported counters per benchmark:
//   steps_per_sec    simulated rising clock edges per wall second
//   sim_cycles       edges per design run
//   evals_per_step   eval_comb() calls per edge (the quantity dirty-set
//                    scheduling exists to shrink)
//   commits_per_step SignalBase::commit() calls per edge
//
// vcd/saa2vga_pattern_48x32 repeats the 48x32 event-kernel flagship run
// with a VCD open, pricing the waveform writer.
//
// bench/run_bench.sh runs this with JSON output into BENCH_sim.json;
// the acceptance bar is >= 3x steps_per_sec for event vs full_sweep on
// saa2vga_pattern at 48x32.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <random>

#include "bench_util.hpp"
#include "designs/design.hpp"
#include "rtl/simulator.hpp"

namespace {

using namespace hwpat;

void run_once(designs::VideoDesign& d, bool full_sweep,
              benchmark::State& state, std::uint64_t* cycles,
              rtl::Simulator::Stats* stats, const std::string& vcd = {}) {
  rtl::Simulator sim(d, {.full_sweep = full_sweep});
  if (!vcd.empty()) sim.open_vcd(vcd);
  sim.reset();
  if (!sim.run([&] { return d.finished(); }, 50'000'000))
    throw Error("bench_sim_kernel: timeout (" + sim.progress_report() + ")");
  *cycles += sim.cycle();
  stats->evals += sim.stats().evals;
  stats->commits += sim.stats().commits;
  stats->steps += sim.stats().steps;
  benchmark::DoNotOptimize(d.sink().pixels_received());
  (void)state;
}

void report(benchmark::State& state, std::uint64_t cycles,
            const rtl::Simulator::Stats& stats) {
  state.counters["steps_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["sim_cycles"] = benchmark::Counter(
      static_cast<double>(cycles) / static_cast<double>(state.iterations()));
  state.counters["evals_per_step"] = benchmark::Counter(
      static_cast<double>(stats.evals) / static_cast<double>(stats.steps));
  state.counters["commits_per_step"] = benchmark::Counter(
      static_cast<double>(stats.commits) / static_cast<double>(stats.steps));
}

template <bool FullSweep>
void BM_Saa2VgaPattern(benchmark::State& state) {
  const designs::Saa2VgaConfig cfg{
      .width = static_cast<int>(state.range(0)),
      .height = static_cast<int>(state.range(1)),
      .buffer_depth = 64,
      .frames = 1};
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  for (auto _ : state) {
    auto d = designs::make_saa2vga_pattern(cfg);
    run_once(*d, FullSweep, state, &cycles, &stats);
  }
  report(state, cycles, stats);
}

template <bool FullSweep>
void BM_BlurPattern(benchmark::State& state) {
  const designs::BlurConfig cfg{.width = static_cast<int>(state.range(0)),
                                .height = static_cast<int>(state.range(1)),
                                .frames = 1};
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  for (auto _ : state) {
    auto d = designs::make_blur_pattern(cfg);
    run_once(*d, FullSweep, state, &cycles, &stats);
  }
  report(state, cycles, stats);
}

std::unique_ptr<designs::VideoDesign> make_flagship() {
  return designs::make_saa2vga_pattern(
      {.width = 48, .height = 32, .buffer_depth = 64, .frames = 1});
}

// Waveform dumping: the flagship on the event kernel with a VCD open
// for the whole run, so steps_per_sec next to saa2vga_pattern/event/48/32
// prices the VCD writer.  The file goes to the temporary directory and
// is removed after the run.
void BM_VcdFlagship(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hwpat_bench_" + std::to_string(std::random_device{}()) + ".vcd"))
          .string();
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  for (auto _ : state) {
    auto d = make_flagship();
    run_once(*d, false, state, &cycles, &stats, path);
  }
  std::filesystem::remove(path);
  report(state, cycles, stats);
}

// ------------------------------------------------------------ snapshot
// Checkpoint cost on a warmed-up (mid-frame, cycle 500) simulator: one
// iteration is one save_snapshot() or one restore_snapshot(), so the
// reported per-iteration time is the µs cost of a checkpoint or a
// rollback; blob_bytes is the serialized checkpoint size.  Measured on
// the flagship single-clock design and on the tri-clock capture farm
// (three domains, three lanes, async-FIFO CDC) whose per-domain
// scheduler state makes restore do the most rebuilding.

std::unique_ptr<designs::VideoDesign> make_farm() {
  return designs::make_saa2vga_triclk({.width = 16,
                                       .height = 12,
                                       .cdc_depth = 16,
                                       .frames = 1,
                                       .lanes = 3});
}

void warm_up(designs::VideoDesign& d, rtl::Simulator& sim) {
  sim.reset();
  if (!sim.run([&] { return d.finished() || sim.cycle() >= 500; },
               1'000'000))
    throw Error("bench_sim_kernel: warm-up timeout (" +
                sim.progress_report() + ")");
}

void BM_SnapshotSave(benchmark::State& state,
                     std::unique_ptr<designs::VideoDesign> (*make)()) {
  auto d = make();
  rtl::Simulator sim(*d, {});
  warm_up(*d, sim);
  rtl::Snapshot blob;
  for (auto _ : state) {
    blob = sim.save_snapshot();
    benchmark::DoNotOptimize(blob.bytes().data());
  }
  state.counters["blob_bytes"] =
      benchmark::Counter(static_cast<double>(blob.size_bytes()));
}

void BM_SnapshotRestore(benchmark::State& state,
                        std::unique_ptr<designs::VideoDesign> (*make)()) {
  auto d = make();
  rtl::Simulator sim(*d, {});
  warm_up(*d, sim);
  const rtl::Snapshot blob = sim.save_snapshot();
  for (auto _ : state) {
    sim.restore_snapshot(blob);
    benchmark::DoNotOptimize(sim.cycle());
  }
  state.counters["blob_bytes"] =
      benchmark::Counter(static_cast<double>(blob.size_bytes()));
}

// ------------------------------------------------------- elaborate
// Cost of binding a Simulator to an already-constructed module tree
// (domain resolution, SoA/CSR allocation out of the per-simulator
// arena) and of tearing it down again (unbind + one arena free per
// chunk).  One iteration is one bind or one unbind; the arena_*
// counters chart the elaborated graph's memory footprint.

void BM_Elaborate(benchmark::State& state,
                  std::unique_ptr<designs::VideoDesign> (*make)()) {
  auto d = make();
  rtl::Simulator::MemoryStats ms{};
  for (auto _ : state) {
    auto sim = std::make_unique<rtl::Simulator>(*d);
    benchmark::DoNotOptimize(sim.get());
    ms = sim->memory_stats();
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  state.counters["arena_bytes_used"] =
      benchmark::Counter(static_cast<double>(ms.arena_bytes_used));
  state.counters["arena_bytes_reserved"] =
      benchmark::Counter(static_cast<double>(ms.arena_bytes_reserved));
  state.counters["arena_chunks"] =
      benchmark::Counter(static_cast<double>(ms.arena_chunks));
}

void BM_Teardown(benchmark::State& state,
                 std::unique_ptr<designs::VideoDesign> (*make)()) {
  auto d = make();
  for (auto _ : state) {
    state.PauseTiming();
    auto sim = std::make_unique<rtl::Simulator>(*d);
    state.ResumeTiming();
    sim.reset();  // timed: unbind + arena release
  }
}

// Tri-clock capture-farm throughput (three domains, async-FIFO CDC):
// the multi-domain workload for the before/after kernel-layout
// comparison, alongside the single-clock flagship above.
template <bool FullSweep>
void BM_TriclkFarm(benchmark::State& state) {
  std::uint64_t cycles = 0;
  rtl::Simulator::Stats stats;
  for (auto _ : state) {
    auto d = make_farm();
    run_once(*d, FullSweep, state, &cycles, &stats);
  }
  report(state, cycles, stats);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Elaborate, flagship, &make_flagship)
    ->Name("elaborate/saa2vga_pattern_48x32");
BENCHMARK_CAPTURE(BM_Teardown, flagship, &make_flagship)
    ->Name("teardown/saa2vga_pattern_48x32");
BENCHMARK_CAPTURE(BM_Elaborate, farm, &make_farm)
    ->Name("elaborate/saa2vga_triclk_farm3");
BENCHMARK_CAPTURE(BM_Teardown, farm, &make_farm)
    ->Name("teardown/saa2vga_triclk_farm3");

BENCHMARK(BM_TriclkFarm<false>)->Name("saa2vga_triclk_farm3/event");
BENCHMARK(BM_TriclkFarm<true>)->Name("saa2vga_triclk_farm3/full_sweep");

BENCHMARK_CAPTURE(BM_SnapshotSave, flagship, &make_flagship)
    ->Name("snapshot/save/saa2vga_pattern_48x32");
BENCHMARK_CAPTURE(BM_SnapshotRestore, flagship, &make_flagship)
    ->Name("snapshot/restore/saa2vga_pattern_48x32");
BENCHMARK_CAPTURE(BM_SnapshotSave, farm, &make_farm)
    ->Name("snapshot/save/saa2vga_triclk_farm3");
BENCHMARK_CAPTURE(BM_SnapshotRestore, farm, &make_farm)
    ->Name("snapshot/restore/saa2vga_triclk_farm3");

BENCHMARK(BM_Saa2VgaPattern<false>)
    ->Name("saa2vga_pattern/event")
    ->Args({32, 24})
    ->Args({48, 32})
    ->Args({64, 48});
BENCHMARK(BM_Saa2VgaPattern<true>)
    ->Name("saa2vga_pattern/full_sweep")
    ->Args({32, 24})
    ->Args({48, 32})
    ->Args({64, 48});
BENCHMARK(BM_VcdFlagship)->Name("vcd/saa2vga_pattern_48x32");
BENCHMARK(BM_BlurPattern<false>)
    ->Name("blur_pattern/event")
    ->Args({32, 24})
    ->Args({48, 32});
BENCHMARK(BM_BlurPattern<true>)
    ->Name("blur_pattern/full_sweep")
    ->Args({32, 24})
    ->Args({48, 32});

// Custom main: `--trace FILE` (stripped before google-benchmark sees
// the args) runs the flagship design once with a profiling tracer and
// writes Chrome-trace JSON, after the measured benchmarks finish.
int main(int argc, char** argv) {
  const std::string trace = hwpat::benchutil::take_trace_flag_or_exit(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace.empty()) {
    auto d = make_flagship();
    return hwpat::benchutil::run_traced(*d, {}, 10'000, trace);
  }
  return 0;
}
