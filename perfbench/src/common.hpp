// Shared machinery of the layered benchmark: the clock, the span log
// of the traced run, sample statistics, exact kernel counts and the
// per-run result record every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "rtl/simulator.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock since the process started timing.
std::uint64_t now_ns();

/// Command-line parameters every workload receives.
struct Params {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch for VCDs and the trace file
};

/// Deadline helper: `seconds` of wall time from construction.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)) {}
  [[nodiscard]] bool passed() const { return now_ns() >= end_; }

 private:
  std::uint64_t end_;
};

// ---------------------------------------------------------------- spans

/// In-memory span log of the traced run: one record per call into a
/// layer's public function, made from the benchmark's own files.  A
/// span has a name, start, end, parent span and a session id shared by
/// the spans of one session or sweep job.  With tracing off, begin()
/// still times the call (the measured runs need the durations) but
/// nothing is stored.  Thread-safe: sweep factories record from worker
/// threads.  Spans past the capacity are dropped and counted; the
/// benchmark requires that count to be zero.
class SpanLog {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    std::uint32_t session = 0;
    std::uint32_t tid = 0;
  };

  /// A timed call; end() returns its duration in nanoseconds.
  class Span {
   public:
    Span(SpanLog* log, int index, std::uint64_t start)
        : log_(log), index_(index), start_(start) {}
    std::uint64_t end();
    [[nodiscard]] int index() const { return index_; }

   private:
    SpanLog* log_;
    int index_;
    std::uint64_t start_;
  };

  explicit SpanLog(bool on, std::size_t capacity = std::size_t{1} << 21)
      : on_(on), capacity_(capacity) {}

  Span begin(const char* name, int parent = -1, std::uint32_t session = 0);
  /// A fresh session id (1, 2, ...).
  std::uint32_t new_session();

  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t size() const;
  /// Durations (ns) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Writes the log as Chrome-trace-event JSON (the format the
  /// kernel's rtl::Tracer writes): one complete event per span, the
  /// session and parent in its args.  Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  void close(int index, std::uint64_t end);

  bool on_;
  std::size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Record> spans_;
  std::uint64_t dropped_ = 0;
  std::uint32_t sessions_ = 0;
  std::map<std::uint64_t, std::uint32_t> tids_;
};

// ----------------------------------------------------------- statistics

/// Reserves room for `per_second` samples per second of the window up
/// front.  Large reservations stay untouched (not resident) until
/// written, so sample storage grows peak RSS linearly with the samples
/// taken instead of in reallocation spikes that would make
/// peak_rss_mb depend on the host's speed.
inline void reserve_samples(std::vector<double>& v, double seconds,
                            double per_second) {
  v.reserve(static_cast<std::size_t>(seconds * per_second));
}

/// Median / quantile of a sample (linear interpolation); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);

/// 64-bit FNV-1a, the digest used for VCD bytes, snapshot blobs and
/// generated VHDL text.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);
/// FNV-1a over a whole file; 0 when it cannot be read.
std::uint64_t fnv1a_file(const std::string& path);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

// --------------------------------------------------------- exact counts

/// Simulated work of one reference unit of a workload: deterministic
/// for a seed, so it must be identical between the traced and the
/// untraced run and across repeated runs.  A simulator-only change
/// must leave every field unchanged.
struct Counts {
  std::uint64_t steps = 0;
  std::uint64_t cycles = 0;
  std::uint64_t evals = 0;
  std::uint64_t commits = 0;
  std::uint64_t commit_changes = 0;
  std::uint64_t settles = 0;
  std::uint64_t deltas = 0;
  std::uint64_t partition_settles = 0;
  std::uint64_t partition_skips = 0;
  std::uint64_t vcd_digest = 0;   ///< FNV-1a of the VCD bytes (0: none)
  std::uint64_t blob_digest = 0;  ///< FNV-1a of the snapshot blob (0: none)
  std::uint64_t text_digest = 0;  ///< FNV-1a of emitted VHDL (0: none)

  void add(const hwpat::rtl::Simulator::Stats& s, std::uint64_t cycles);
  friend bool operator==(const Counts&, const Counts&) = default;
  [[nodiscard]] std::string json() const;
};

// --------------------------------------------------------------- result

/// What one run reports.  `check()` counts every correctness check;
/// a failed one is recorded and makes the run incorrect.
class Result {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a correctness check; returns `ok`.
  bool check(bool ok, const std::string& what);
  void fail(const std::string& what) { check(false, what); }

  /// Sets a metric by name; main() owns the units and rejects names
  /// BENCHMARK.json does not list.
  void metric(const std::string& name, double value) {
    metrics_[name] = value;
  }
  /// A human-readable line printed before the result (prefixed "# ").
  void note(const std::string& line) { notes_.push_back(line); }
  void set_counts(const Counts& c) { counts_ = c; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  [[nodiscard]] const Counts& counts() const { return counts_; }
  [[nodiscard]] const std::map<std::string, double>& metrics() const {
    return metrics_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::map<std::string, double> metrics_;
  Counts counts_;
};

/// Kernel-layer metrics of one simulated reference unit, shared by the
/// simulation workloads' traced runs.  `run_ns` is busy time inside
/// run() of the untraced reference; the phase totals come from the
/// kernel Tracer of the traced reference (Tracer::phase_total, which
/// ring eviction does not reduce).
struct KernelSample {
  Counts counts;
  /// Steps the host times below cover (the counts may also include
  /// untimed warm-up steps, as a forked sweep branch's do).
  double timed_steps = 0;
  double run_ns = 0;
  double settle_ns = 0, edge_ns = 0, commit_ns = 0;
  std::uint64_t kernel_spans_dropped = 0;
  double arena_kb = 0;
  double frames = 0;
};
void report_kernel(Result& r, const KernelSample& k);

/// Traced-run bookkeeping shared by every workload: reports the exact
/// counts of the reference unit, the tracing overhead against the
/// untraced units, and the span-log health (requiring zero drops).
void report_trace_health(Result& r, const SpanLog& log,
                         const std::vector<double>& untraced_ns,
                         const std::vector<double>& traced_ns);

// ------------------------------------------------------------ workloads

void run_stream(const Params& p, Result& r, SpanLog& log, bool vcd);
void run_sweep(const Params& p, Result& r, SpanLog& log);
void run_codegen(const Params& p, Result& r, SpanLog& log);

}  // namespace perfbench
