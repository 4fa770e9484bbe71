// stream_flagship and waveform_flagship: the flagship saa2vga_pattern
// (48x32, FifoCore, depth 64) simulated frame by frame in long
// sessions, plus a batch of cold one-frame sessions (spec -> first
// frame).  waveform_flagship is the same design and seed with a VCD
// dumped, so comparing the two separates the VCD writer from the
// kernel.  Default kernel only: full_sweep = false, threads = 0.
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "designs/design.hpp"

namespace perfbench {
namespace {

using namespace hwpat;

constexpr int kWidth = 48;
constexpr int kHeight = 32;
constexpr int kDepth = 64;
/// Frames per long session: stream_flagship keeps the VCD off and runs
/// long sessions; waveform_flagship's sessions write ~94 KB per frame.
constexpr int kStreamFrames = 1000;
constexpr int kWaveformFrames = 300;
/// Step budget for one frame; a frame takes 1538 steps.
constexpr std::uint64_t kFrameBudget = 200'000;
/// designs::camera_frames cycles noise, gradient and checkerboard, and
/// the three cost different amounts to dump, so a frame-time sample is
/// the mean over one such cycle of consecutive frames.
constexpr std::size_t kPatternCycle = 3;
/// Traced cold sessions behind the build/elaborate/reset/teardown medians.
constexpr int kTracedColdSessions = 200;

struct SessionOptions {
  int frames = 1;
  std::string vcd;  ///< empty: no waveform
  bool full_sweep = false;
  bool kernel_trace = false;
  /// Stop between frames once passed (null: run every frame).
  const Deadline* deadline = nullptr;
};

/// One simulator lifetime: build, elaborate, reset, [open_vcd], frames,
/// teardown.  Durations in ns.
struct Session {
  double build = 0, elaborate = 0, reset = 0, vcd_open = 0;
  std::vector<double> frame;  ///< host time of each run() to a frame
  std::uint64_t steps = 0;
  bool complete = false;  ///< every configured frame came out
  KernelSample kernel;    ///< counts/arena/phase totals when complete
  std::uintmax_t vcd_bytes = 0;

  [[nodiscard]] double setup() const {
    return build + elaborate + reset + vcd_open;
  }
  [[nodiscard]] double total() const { return setup() + sum(frame); }
};

Session run_session(const Params& p, const SessionOptions& o,
                    const std::vector<video::Frame>& expected, Result& r,
                    SpanLog& log) {
  Session s;
  s.frame.reserve(static_cast<std::size_t>(o.frames));
  const std::uint32_t sid = log.new_session();
  SpanLog::Span root = log.begin(o.frames == 1 ? "session.cold" : "session",
                                 -1, sid);
  const int parent = root.index();

  const designs::Saa2VgaConfig cfg{.width = kWidth,
                                   .height = kHeight,
                                   .buffer_depth = kDepth,
                                   .device = designs::DeviceKind::FifoCore,
                                   .frames = o.frames,
                                   .pattern_seed = p.seed};
  SpanLog::Span sp = log.begin("designs.build", parent, sid);
  std::unique_ptr<designs::VideoDesign> design =
      designs::make_saa2vga_pattern(cfg);
  s.build = static_cast<double>(sp.end());

  rtl::Simulator::Options so;
  so.full_sweep = o.full_sweep;
  sp = log.begin("rtl.elaborate", parent, sid);
  auto sim = std::make_unique<rtl::Simulator>(*design, so);
  s.elaborate = static_cast<double>(sp.end());
  if (o.kernel_trace) sim->trace_start();

  sp = log.begin("rtl.reset", parent, sid);
  sim->reset();
  s.reset = static_cast<double>(sp.end());
  if (!o.vcd.empty()) {
    sp = log.begin("rtl.vcd.open", parent, sid);
    sim->open_vcd(o.vcd);
    s.vcd_open = static_cast<double>(sp.end());
  }

  const video::VgaSink& sink = design->sink();
  for (int k = 0; k < o.frames; ++k) {
    if (k > 0 && o.deadline != nullptr && o.deadline->passed()) break;
    const auto want = static_cast<std::size_t>(k) + 1;
    sp = log.begin("rtl.run", parent, sid);
    const rtl::RunStatus st =
        sim->run([&] { return sink.frames().size() >= want; }, kFrameBudget);
    s.frame.push_back(static_cast<double>(sp.end()));
    s.steps += st.steps;
    r.attempt();
    if (!r.check(st.ok(), "flagship frame " + std::to_string(k) + ": " +
                              to_string(st.result) + " (" +
                              sim->progress_report() + ")"))
      break;
  }

  // Correctness, outside every timed interval: each output frame is
  // the camera frame that went in.
  const std::vector<video::Frame>& got = sink.frames();
  for (std::size_t i = 0; i < got.size(); ++i)
    r.check(i < expected.size() && got[i] == expected[i],
            "flagship output frame " + std::to_string(i) +
                " differs from designs::camera_frames");
  s.complete = got.size() == static_cast<std::size_t>(o.frames);
  if (s.complete) {
    s.kernel.counts.add(sim->stats(), sim->cycle());
    s.kernel.timed_steps = static_cast<double>(sim->stats().steps);
    s.kernel.frames = o.frames;
    s.kernel.arena_kb =
        static_cast<double>(sim->memory_stats().arena_bytes_used) / 1024.0;
    if (const rtl::Tracer* t = sim->telemetry(); t != nullptr) {
      s.kernel.settle_ns = t->phase_total(rtl::TracePhase::Settle).ns;
      s.kernel.edge_ns = t->phase_total(rtl::TracePhase::EdgeEvent).ns;
      s.kernel.commit_ns = t->phase_total(rtl::TracePhase::CommitDrain).ns;
      s.kernel.kernel_spans_dropped = t->dropped();
    }
  }

  sp = log.begin("rtl.teardown", parent, sid);
  sim.reset();  // also closes (flushes) the VCD
  sp.end();
  design.reset();
  root.end();

  if (!o.vcd.empty()) {
    if (s.complete) {
      s.kernel.counts.vcd_digest = fnv1a_file(o.vcd);
      std::error_code ec;
      s.vcd_bytes = std::filesystem::file_size(o.vcd, ec);
    }
    // Deleted at once, so no session's dirty pages are written back
    // while a later one is timed.
    std::filesystem::remove(o.vcd);
  }
  return s;
}

/// Checks that a complete session repeated the reference's exact counts.
void check_repeat(Result& r, std::optional<Counts>& ref, const Session& s,
                  const char* what) {
  if (!s.complete) return;
  if (!ref) {
    ref = s.kernel.counts;
    return;
  }
  r.check(s.kernel.counts == *ref,
          std::string(what) + ": exact counts differ between repeated "
                              "sessions: " +
              s.kernel.counts.json() + " vs " + ref->json());
}

/// The waveform oracle: the full-sweep kernel must write the same VCD
/// bytes for the same seed and length.  Outside every timed window.
void check_vcd_oracle(const Params& p, int frames, const Counts& ref,
                      const std::vector<video::Frame>& expected,
                      const std::string& path, Result& r) {
  SpanLog off(false);
  SessionOptions o;
  o.frames = frames;
  o.vcd = path;
  o.full_sweep = true;
  const Session oracle = run_session(p, o, expected, r, off);
  r.check(oracle.complete, "full-sweep oracle session did not complete");
  r.check(oracle.kernel.counts.cycles == ref.cycles,
          "full-sweep oracle ran a different number of cycles");
  r.check(oracle.kernel.counts.vcd_digest == ref.vcd_digest,
          "waveform VCD bytes differ from the full-sweep oracle's");
}

void measured(const Params& p, Result& r, SpanLog& log, bool vcd) {
  const int frames = vcd ? kWaveformFrames : kStreamFrames;
  const std::vector<video::Frame> expected =
      designs::camera_frames(kWidth, kHeight, frames, p.seed);
  const std::string tag = p.out_dir + "/" + p.workload + "_" +
                          std::to_string(p.seed);
  SessionOptions lo;
  lo.frames = frames;
  if (vcd) lo.vcd = tag + ".vcd";

  // Long sessions until the window closes; the first one always runs
  // to the end so there is a complete reference for the exact counts.
  // After each, cold one-frame sessions (spec -> first frame) for about
  // a tenth of its time, so both samples span the whole window.
  SessionOptions co;
  if (vcd) co.vcd = tag + ".cold.vcd";
  const Deadline end(p.seconds);
  std::vector<double> setup, cycle_ns, cold;
  reserve_samples(cycle_ns, p.seconds, 20'000);
  reserve_samples(cold, p.seconds, 10'000);
  double run_ns = 0;
  std::uint64_t steps = 0;
  std::optional<Counts> ref, cold_ref;
  do {
    const Session s = run_session(p, lo, expected, r, log);
    lo.deadline = &end;
    setup.push_back(s.setup());
    for (std::size_t i = 0; i + kPatternCycle <= s.frame.size();
         i += kPatternCycle)
      cycle_ns.push_back((s.frame[i] + s.frame[i + 1] + s.frame[i + 2]) /
                         kPatternCycle);
    run_ns += sum(s.frame);
    steps += s.steps;
    check_repeat(r, ref, s, "long session");

    const Deadline cold_end(0.1 * s.total() / 1e9);
    do {
      const Session c = run_session(p, co, expected, r, log);
      cold.push_back(c.total());
      check_repeat(r, cold_ref, c, "cold session");
    } while (!cold_end.passed());
  } while (!end.passed());

  if (!ref) {
    r.fail(p.workload + ": no session ran to completion");
    return;
  }
  if (vcd) check_vcd_oracle(p, frames, *ref, expected, tag + ".oracle.vcd", r);
  r.set_counts(*ref);

  const double steps_per_s =
      run_ns > 0 ? static_cast<double>(steps) / (run_ns / 1e9) : 0;
  const double frame_p50 = quantile(cycle_ns, 0.5) / 1e6;
  const double frame_p90 = quantile(cycle_ns, 0.9) / 1e6;
  const double first_p50 = quantile(cold, 0.5) / 1e6;
  const double first_p90 = quantile(cold, 0.9) / 1e6;
  // p90s: the host's speed is bimodal (README.md, "Run-to-run noise").
  r.metric("setup_s", median(setup) / 1e9);
  r.metric("op_ms", frame_p90);
  r.metric("session_ms", first_p90);

  char line[512];
  std::snprintf(line, sizeof line,
                "%s: steps_per_s=%.6g frame_ms_p50=%.6g frame_ms_p90=%.6g "
                "(n=%zu pattern cycles of 3 frames) first_frame_ms=%.6g "
                "first_frame_ms_p90=%.6g (n=%zu cold sessions) "
                "setup_s=%.6g (n=%zu sessions of %d frames)",
                p.workload.c_str(), steps_per_s, frame_p50, frame_p90,
                cycle_ns.size(), first_p50, first_p90, cold.size(),
                median(setup) / 1e9, setup.size(), frames);
  r.note(line);
}

/// The traced run: untraced and traced reference sessions alternate
/// (every one a complete long session), plus traced cold sessions for
/// the build/elaborate/reset/teardown medians.  waveform_flagship also
/// runs an untraced VCD-off session of equal length per round, for the
/// VCD writer's cost per step.
void traced(const Params& p, Result& r, SpanLog& log, bool vcd) {
  const int frames = vcd ? kWaveformFrames : kStreamFrames;
  const std::vector<video::Frame> expected =
      designs::camera_frames(kWidth, kHeight, frames, p.seed);
  const std::string tag = p.out_dir + "/" + p.workload + "_" +
                          std::to_string(p.seed);
  SpanLog off(false);
  SessionOptions plain;
  plain.frames = frames;
  if (vcd) plain.vcd = tag + ".vcd";
  SessionOptions traced_o = plain;
  traced_o.kernel_trace = true;
  SessionOptions no_vcd = plain;
  no_vcd.vcd.clear();

  const Deadline end(p.seconds);
  std::vector<double> untraced_ns, traced_ns, run_ns, run_off_ns;
  std::optional<Counts> ref;
  KernelSample k;
  std::uintmax_t vcd_bytes = 0;
  do {
    const Session u = run_session(p, plain, expected, r, off);
    untraced_ns.push_back(u.total());
    run_ns.push_back(sum(u.frame));
    check_repeat(r, ref, u, "untraced reference session");
    vcd_bytes = u.vcd_bytes;
    if (vcd) run_off_ns.push_back(sum(run_session(p, no_vcd, expected, r,
                                                  off).frame));
    const Session t = run_session(p, traced_o, expected, r, log);
    traced_ns.push_back(t.total());
    if (r.check(t.complete && ref && t.kernel.counts == *ref,
                "traced session's exact counts differ from the untraced "
                "run's"))
      k = t.kernel;
  } while (!end.passed());
  for (int i = 0; i < kTracedColdSessions; ++i)
    run_session(p, SessionOptions{.vcd = vcd ? tag + ".cold.vcd" : ""},
                expected, r, log);
  if (!ref) {
    r.fail(p.workload + ": no untraced session ran to completion");
    return;
  }
  if (vcd) check_vcd_oracle(p, frames, *ref, expected, tag + ".oracle.vcd", r);

  r.set_counts(*ref);
  k.run_ns = median(run_ns);
  report_kernel(r, k);
  const auto steps = static_cast<double>(ref->steps);
  r.metric("designs.build_ms", median(log.durations("designs.build")) / 1e6);
  r.metric("rtl.elaborate_us", median(log.durations("rtl.elaborate")) / 1e3);
  r.metric("rtl.reset_us", median(log.durations("rtl.reset")) / 1e3);
  r.metric("rtl.teardown_us", median(log.durations("rtl.teardown")) / 1e3);
  if (vcd) {
    r.metric("rtl.vcd.open_us", median(log.durations("rtl.vcd.open")) / 1e3);
    r.metric("rtl.vcd.bytes_per_step",
             static_cast<double>(vcd_bytes) / steps);
    r.metric("rtl.vcd.ns_per_step",
             (median(run_ns) - median(run_off_ns)) / steps);
  }
  report_trace_health(r, log, untraced_ns, traced_ns);
}

}  // namespace

void run_stream(const Params& p, Result& r, SpanLog& log, bool vcd) {
  if (p.trace)
    traced(p, r, log, vcd);
  else
    measured(p, r, log, vcd);
}

}  // namespace perfbench
