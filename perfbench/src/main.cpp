// perfbench: one benchmark command for the pattern stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--source-id <id>]
//
// Workloads: stream_flagship, waveform_flagship, sweep_grid,
// codegen_library (see perfbench/README.md).  With --trace 0 the run is
// measured with every tracer off and reports the end-to-end metrics;
// with --trace 1 it is the separate traced run that reports the
// per-layer metrics and writes its spans as Chrome-trace JSON into
// --out-dir.  Human-readable lines start with "# "; the last line of
// standard output is the result object.  Exit code 0 only when every
// correctness check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, every one reported by every workload.  Each
/// workload reports op_ms and session_ms as the statistic that is
/// steady on a shared host for it (README.md); the other statistics are
/// printed on its "# " line.  Kept equal to BENCHMARK.json; run.py
/// checks that.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms", "ms"},
    {"session_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer metrics of the traced run.  A workload that bypasses
/// a layer leaves its metrics at 0.
constexpr MetricDef kPerLayer[] = {
    {"designs.build_ms", "ms"},
    {"designs.sim_cycles_per_frame", "cycles"},
    {"rtl.elaborate_us", "us"},
    {"rtl.reset_us", "us"},
    {"rtl.teardown_us", "us"},
    {"rtl.run_ns_per_step", "ns"},
    {"rtl.settle_ns_per_step", "ns"},
    {"rtl.edge_ns_per_step", "ns"},
    {"rtl.commit_ns_per_step", "ns"},
    {"rtl.evals_per_step", "count"},
    {"rtl.commits_per_step", "count"},
    {"rtl.deltas_per_settle", "count"},
    {"rtl.commit_change_ratio", "ratio"},
    {"rtl.partition_skip_ratio", "ratio"},
    {"rtl.arena_kb", "KiB"},
    {"rtl.vcd.open_us", "us"},
    {"rtl.vcd.bytes_per_step", "B"},
    {"rtl.vcd.ns_per_step", "ns"},
    {"rtl.snapshot.save_us", "us"},
    {"rtl.snapshot.restore_us", "us"},
    {"rtl.snapshot.blob_bytes", "B"},
    {"rtl.sweep.job_build_ms", "ms"},
    {"rtl.sweep.run_share", "ratio"},
    {"rtl.sweep.unattributed_ms", "ms"},
    {"meta.generate_us", "us"},
    {"hdl.validate_us", "us"},
    {"hdl.emit_us", "us"},
    {"hdl.parse_us", "us"},
    {"hdl.bytes_per_unit", "B"},
    {"rtl.exact.steps", "count"},
    {"rtl.exact.cycles", "count"},
    {"rtl.exact.evals", "count"},
    {"rtl.exact.commits", "count"},
    {"rtl.exact.commit_changes", "count"},
    {"rtl.exact.deltas", "count"},
    {"rtl.exact.partition_skips", "count"},
    {"rtl.exact.vcd_digest32", "hash"},
    {"rtl.exact.blob_digest32", "hash"},
    {"hdl.exact.text_digest32", "hash"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"trace.spans_dropped", "count"},
    {"trace.kernel_spans_dropped", "count"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <stream_flagship|"
               "waveform_flagship|sweep_grid|codegen_library> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> "
               "[--source-id <id>]\n",
               msg);
  std::exit(2);
}

std::string loadavg() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "[%.2f, %.2f, %.2f]", l[0], l[1], l[2]);
  return buf;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Params p;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        p.workload = v;
      } else if (a == "--seed") {
        const long long s = std::stoll(v);
        if (s < 0 || s > 0xffffffffLL) usage("--seed must fit 32 bits");
        p.seed = static_cast<unsigned>(s);
        have_seed = true;
      } else if (a == "--seconds") {
        p.seconds = std::stod(v);
        if (!(p.seconds > 0 && p.seconds <= 60))
          usage("--seconds must be in (0, 60]");
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        p.trace = v == "1";
        have_trace = true;
      } else if (a == "--out-dir") {
        p.out_dir = v;
      } else if (a == "--source-id") {
        source_id = v;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (p.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      p.out_dir.empty())
    usage("--workload, --seed, --seconds, --trace and --out-dir are required");
  if (!std::filesystem::is_directory(p.out_dir))
    usage("--out-dir must be an existing directory");

  const std::string load_start = loadavg();
  Result r;
  SpanLog log(p.trace);
  try {
    if (p.workload == "stream_flagship")
      run_stream(p, r, log, false);
    else if (p.workload == "waveform_flagship")
      run_stream(p, r, log, true);
    else if (p.workload == "sweep_grid")
      run_sweep(p, r, log);
    else if (p.workload == "codegen_library")
      run_codegen(p, r, log);
    else
      usage(("unknown workload " + p.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", p.workload.c_str(), e.what());
    return 1;
  }
  if (!p.trace) r.metric("peak_rss_mb", peak_rss_mb());

  std::string trace_file = "none";
  if (p.trace) {
    trace_file = p.out_dir + "/" + p.workload + "_" + std::to_string(p.seed) +
                 ".trace.json";
    r.check(log.write_chrome_json(trace_file),
            "cannot write trace file " + trace_file);
  }

  // Every listed metric, in table order; names the table does not list
  // are a bug in the benchmark.
  std::string metrics;
  std::size_t emitted = 0;
  auto emit = [&](const MetricDef& d, bool required) {
    const auto it = r.metrics().find(d.name);
    double v = 0;
    if (it != r.metrics().end()) {
      v = it->second;
      ++emitted;
    } else if (required) {
      r.fail(std::string("workload did not measure ") + d.name);
    }
    if (!std::isfinite(v)) {
      r.fail(std::string("metric ") + d.name + " is not finite");
      v = 0;
    }
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + d.name +
               "\": {\"value\": " + json_number(v) + ", \"unit\": \"" +
               d.unit + "\"}";
  };
  if (p.trace) {
    for (const MetricDef& d : kPerLayer) emit(d, false);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d, true);
  }
  r.check(emitted == r.metrics().size(),
          "workload set a metric the result does not list");

  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  std::printf("# perfbench workload=%s seed=%u seconds=%g trace=%d\n",
              p.workload.c_str(), p.seed, p.seconds, p.trace ? 1 : 0);
  std::printf(
      "# context {\"source\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"nproc\": %u, \"loadavg_start\": %s, "
      "\"loadavg_end\": %s, \"workers_max\": 2, \"kernel\": "
      "\"event-driven, threads=0\", \"trace_file\": \"%s\"}\n",
      source_id.c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), load_start.c_str(),
      loadavg().c_str(), trace_file.c_str());
  if (!release)
    std::printf("# WARNING: hwpat was built with CMAKE_BUILD_TYPE=%s, not "
                "Release; timings are not comparable\n",
                PERFBENCH_BUILD_TYPE);
  for (const std::string& n : r.notes()) std::printf("# %s\n", n.c_str());
  std::printf("# counts %s\n", r.counts().json().c_str());
  const double error_rate =
      r.attempted() > 0 ? static_cast<double>(r.failed()) /
                              static_cast<double>(r.attempted())
                        : 1.0;
  std::printf("# error_rate=%.6g (%llu failed of %llu attempted)\n",
              error_rate, static_cast<unsigned long long>(r.failed()),
              static_cast<unsigned long long>(r.attempted()));
  for (const std::string& f : r.failures()) {
    std::printf("# FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }
  const bool correct = r.failed() == 0 && r.attempted() > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted()),
      static_cast<unsigned long long>(r.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
