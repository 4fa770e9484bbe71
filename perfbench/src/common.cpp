#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <string>
#include <thread>

namespace perfbench {

std::uint64_t now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin)
          .count());
}

// ---------------------------------------------------------------- spans

std::uint64_t SpanLog::Span::end() {
  const std::uint64_t t = now_ns();
  if (log_ != nullptr && index_ >= 0) log_->close(index_, t);
  return t - start_;
}

SpanLog::Span SpanLog::begin(const char* name, int parent,
                             std::uint32_t session) {
  if (!on_) return Span(nullptr, -1, now_ns());
  const std::uint64_t tkey =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return Span(nullptr, -1, now_ns());
  }
  const auto [it, fresh] =
      tids_.emplace(tkey, static_cast<std::uint32_t>(tids_.size()));
  (void)fresh;
  Record rec;
  rec.name = name;
  rec.parent = parent;
  rec.session = session;
  rec.tid = it->second;
  rec.start_ns = now_ns();
  spans_.push_back(rec);
  return Span(this, static_cast<int>(spans_.size() - 1), rec.start_ns);
}

void SpanLog::close(int index, std::uint64_t end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::uint32_t SpanLog::new_session() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++sessions_;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& s : spans_)
    if (s.end_ns >= s.start_ns && s.end_ns != 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    const std::uint64_t end = std::max(s.end_ns, s.start_ns);
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(end - s.start_ns) / 1e3);
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
        << "\"tid\": " << s.tid << ", \"ts\": " << buf
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"session\": " << s.session << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"perfbench\": {\"spans\": " << spans_.size()
      << ", \"dropped\": " << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

// ----------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = 1469598103934665603ull;
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    h = fnv1a(buf.data(), static_cast<std::size_t>(in.gcount()), h);
  }
  return h;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would
  // carry the launching process's peak across exec().
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --------------------------------------------------------- exact counts

void Counts::add(const hwpat::rtl::Simulator::Stats& s,
                 std::uint64_t sim_cycles) {
  steps += s.steps;
  cycles += sim_cycles;
  evals += s.evals;
  commits += s.commits;
  commit_changes += s.commit_changes;
  settles += s.settles;
  deltas += s.deltas;
  partition_settles += s.partition_settles;
  partition_skips += s.partition_skips;
}

std::string Counts::json() const {
  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"steps\": %llu, \"cycles\": %llu, \"evals\": %llu, "
      "\"commits\": %llu, \"commit_changes\": %llu, \"settles\": %llu, "
      "\"deltas\": %llu, \"partition_settles\": %llu, "
      "\"partition_skips\": %llu, \"vcd_digest\": \"%016llx\", "
      "\"blob_digest\": \"%016llx\", \"text_digest\": \"%016llx\"}",
      static_cast<unsigned long long>(steps),
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(evals),
      static_cast<unsigned long long>(commits),
      static_cast<unsigned long long>(commit_changes),
      static_cast<unsigned long long>(settles),
      static_cast<unsigned long long>(deltas),
      static_cast<unsigned long long>(partition_settles),
      static_cast<unsigned long long>(partition_skips),
      static_cast<unsigned long long>(vcd_digest),
      static_cast<unsigned long long>(blob_digest),
      static_cast<unsigned long long>(text_digest));
  return buf;
}

// --------------------------------------------------------------- result

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The low 32 bits of a digest: exact in a JSON number, enough to see
/// a change at a glance (the full digests are printed in the counts
/// line).
double digest32(std::uint64_t d) {
  return static_cast<double>(d & 0xffffffffu);
}

}  // namespace

void report_kernel(Result& r, const KernelSample& k) {
  const Counts& c = k.counts;
  const double steps = k.timed_steps;
  r.metric("designs.sim_cycles_per_frame",
           ratio(static_cast<double>(c.cycles), k.frames));
  r.metric("rtl.run_ns_per_step", ratio(k.run_ns, steps));
  r.metric("rtl.settle_ns_per_step", ratio(k.settle_ns, steps));
  r.metric("rtl.edge_ns_per_step", ratio(k.edge_ns, steps));
  r.metric("rtl.commit_ns_per_step", ratio(k.commit_ns, steps));
  const auto all_steps = static_cast<double>(c.steps);
  r.metric("rtl.evals_per_step",
           ratio(static_cast<double>(c.evals), all_steps));
  r.metric("rtl.commits_per_step",
           ratio(static_cast<double>(c.commits), all_steps));
  r.metric("rtl.deltas_per_settle",
           ratio(static_cast<double>(c.deltas),
                 static_cast<double>(c.settles)));
  r.metric("rtl.commit_change_ratio",
           ratio(static_cast<double>(c.commit_changes),
                 static_cast<double>(c.commits)));
  r.metric("rtl.partition_skip_ratio",
           ratio(static_cast<double>(c.partition_skips),
                 static_cast<double>(c.partition_settles + c.partition_skips)));
  r.metric("rtl.arena_kb", k.arena_kb);
  r.metric("trace.kernel_spans_dropped",
           static_cast<double>(k.kernel_spans_dropped));
}

void report_trace_health(Result& r, const SpanLog& log,
                         const std::vector<double>& untraced_ns,
                         const std::vector<double>& traced_ns) {
  const Counts& c = r.counts();
  r.metric("rtl.exact.steps", static_cast<double>(c.steps));
  r.metric("rtl.exact.cycles", static_cast<double>(c.cycles));
  r.metric("rtl.exact.evals", static_cast<double>(c.evals));
  r.metric("rtl.exact.commits", static_cast<double>(c.commits));
  r.metric("rtl.exact.commit_changes", static_cast<double>(c.commit_changes));
  r.metric("rtl.exact.deltas", static_cast<double>(c.deltas));
  r.metric("rtl.exact.partition_skips",
           static_cast<double>(c.partition_skips));
  r.metric("rtl.exact.vcd_digest32", digest32(c.vcd_digest));
  r.metric("rtl.exact.blob_digest32", digest32(c.blob_digest));
  r.metric("hdl.exact.text_digest32", digest32(c.text_digest));

  const double base = median(untraced_ns);
  r.metric("trace.overhead_pct",
           base > 0 ? 100.0 * (median(traced_ns) - base) / base : 0.0);
  r.metric("trace.spans", static_cast<double>(log.size()));
  r.metric("trace.spans_dropped", static_cast<double>(log.dropped()));
  r.check(log.dropped() == 0, "the benchmark's span log dropped spans");
  r.note("trace: " + std::to_string(untraced_ns.size()) +
         " untraced and " + std::to_string(traced_ns.size()) +
         " traced reference units, " + std::to_string(log.size()) +
         " spans, " + std::to_string(log.dropped()) + " dropped");
}

}  // namespace perfbench
