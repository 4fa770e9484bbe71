// sweep_grid: rtl::SweepDriver with 2 workers runs repeated passes of
// a 12-variant grid (8 single-clock saa2vga FIFO/SRAM variants, 4
// tri-clock 5:2:3 / 3:1:2 variants with 1 or 2 lanes), and each pass
// also forks the flagship into K snapshot branches.  Many short
// multi-clock jobs: per-job build, elaborate and teardown weigh as much
// as run().  Default kernel per job: full_sweep = false, threads = 0.
//
// The benchmark wraps every job's `build` factory (to time the design
// build per job, which SweepResult::wall_seconds does not cover) and
// every job's `done` predicate (to check the output frames the moment a
// job finishes).
#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "designs/saa2vga_triclk.hpp"
#include "designs/variants.hpp"
#include "rtl/sweep.hpp"

namespace perfbench {
namespace {

using namespace hwpat;

constexpr int kWorkers = 2;
constexpr int kFramesPerJob = 2;
constexpr int kBranches = 4;
constexpr std::uint64_t kForkWarmup = 500;
/// Snapshot save/restore probes per traced pass.
constexpr int kSnapshotProbes = 5;

/// Expected output of one job: camera frames per lane.
using Expected = std::vector<std::vector<video::Frame>>;

/// Written from the workers' done/build wrappers.
struct Probes {
  std::atomic<std::uint64_t> frame_checks{0};
  std::atomic<std::uint64_t> frame_failures{0};
  std::atomic<std::uint64_t> build_ns{0};  ///< grid-job builds, this pass
  std::atomic<int> parent{-1};             ///< span the builds hang under
};

designs::Saa2VgaSweepGrid fifo_sram_grid(unsigned seed) {
  designs::Saa2VgaSweepGrid g;
  g.widths = {16, 32};
  g.depths = {256, 512};
  g.frames = kFramesPerJob;
  g.pattern_seed = seed;
  return g;
}

designs::TriClkSweepGrid triclk_grid(unsigned seed) {
  designs::TriClkSweepGrid g;
  g.ratios = {"5x2x3", "3x1x2"};
  g.lanes = {1, 2};
  g.width = 16;
  g.height = 12;
  g.frames = kFramesPerJob;
  g.pattern_seed = seed;
  return g;
}

/// Expected frames per job, in the grids' documented expansion order
/// (row-major, last axis fastest: width x depth x device, then
/// ratio x lanes).  Lane i of a tri-clock farm uses seed + i.
std::vector<Expected> expected_outputs(unsigned seed) {
  std::vector<Expected> out;
  const designs::Saa2VgaSweepGrid g1 = fifo_sram_grid(seed);
  for (int w : g1.widths)
    for (std::size_t d = 0; d < g1.depths.size() * g1.devices.size(); ++d)
      out.push_back({designs::camera_frames(w, w * 3 / 4, g1.frames, seed)});
  const designs::TriClkSweepGrid g2 = triclk_grid(seed);
  for (std::size_t ratio = 0; ratio < g2.ratios.size(); ++ratio)
    for (int lanes : g2.lanes) {
      Expected e;
      for (int l = 0; l < lanes; ++l)
        e.push_back(designs::camera_frames(
            g2.width, g2.height, g2.frames, seed + static_cast<unsigned>(l)));
      out.push_back(std::move(e));
    }
  return out;
}

rtl::SweepOptions sweep_options(bool trace) {
  rtl::SweepOptions o;
  o.workers = kWorkers;
  o.trace = trace;
  return o;
}

designs::Saa2VgaConfig flagship(unsigned seed) {
  return {.width = 48,
          .height = 32,
          .buffer_depth = 64,
          .device = designs::DeviceKind::FifoCore,
          .frames = 1,
          .pattern_seed = seed};
}

bool outputs_match(const rtl::Module& top, const Expected& want) {
  const auto* tri = dynamic_cast<const designs::Saa2VgaTriClk*>(&top);
  const auto& vd = static_cast<const designs::VideoDesign&>(top);
  for (std::size_t l = 0; l < want.size(); ++l) {
    const video::VgaSink& sink =
        tri != nullptr ? tri->lane_sink(static_cast<int>(l)) : vd.sink();
    if (sink.frames() != want[l]) return false;
  }
  return tri == nullptr ? want.size() == 1
                        : static_cast<std::size_t>(tri->lane_count()) ==
                              want.size();
}

/// Wraps `done` to check the outputs when the job finishes, and `build`
/// to time the design build (recording a span in the traced run).
void wrap(rtl::SweepJob& job, const Expected* want, Probes* probes,
          SpanLog* log, bool grid_job) {
  job.done = [done = std::move(job.done), want,
              probes](const rtl::Module& top) {
    if (!done(top)) return false;
    probes->frame_checks.fetch_add(1, std::memory_order_relaxed);
    if (!outputs_match(top, *want))
      probes->frame_failures.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  job.build = [build = std::move(job.build), probes, log, grid_job] {
    SpanLog::Span s = log->begin(
        "designs.build", probes->parent.load(std::memory_order_relaxed),
        log->new_session());
    std::unique_ptr<rtl::Module> top = build();
    const std::uint64_t ns = s.end();
    if (grid_job) probes->build_ns.fetch_add(ns, std::memory_order_relaxed);
    return top;
  };
}

/// Everything a pass needs, built by the timed set-up.
struct Plan {
  std::vector<rtl::SweepJob> jobs;
  rtl::SweepJob base;
  std::vector<rtl::SweepBranch> branches;
};

Plan make_plan(unsigned seed, const std::vector<Expected>& want,
               const Expected& want_flagship, Probes& probes, SpanLog& log) {
  Plan plan;
  plan.jobs = designs::saa2vga_sweep(fifo_sram_grid(seed));
  for (rtl::SweepJob& j : designs::saa2vga_triclk_sweep(triclk_grid(seed)))
    plan.jobs.push_back(std::move(j));
  if (plan.jobs.size() != want.size())
    throw Error("sweep_grid: grid has " + std::to_string(plan.jobs.size()) +
                " jobs, expected outputs for " + std::to_string(want.size()));
  for (std::size_t i = 0; i < plan.jobs.size(); ++i)
    wrap(plan.jobs[i], &want[i], &probes, &log, true);

  const designs::Saa2VgaConfig cfg = flagship(seed);
  plan.base.name = "flagship_w48_h32_d64_fifo";
  plan.base.build = [cfg] { return designs::make_saa2vga_pattern(cfg); };
  plan.base.done = designs::video_design_finished;
  plan.base.warmup = kForkWarmup;
  wrap(plan.base, &want_flagship, &probes, &log, false);
  for (int b = 0; b < kBranches; ++b)
    plan.branches.push_back({"b" + std::to_string(b), {}, {}, 0, ""});
  return plan;
}

struct Pass {
  double grid_ns = 0, fork_ns = 0;
  double build_ns = 0;      ///< Σ wrapped grid-job builds
  double job_wall_ns = 0;   ///< Σ SweepResult::wall_seconds (grid)
  Counts counts;            ///< grid + fork, cumulative per result
  /// Measured phase of every result (grid + fork): steps, run() time
  /// and, when the SweepDriver traced, the kernel phase totals.
  KernelSample kernel;
};

Pass run_pass(const rtl::SweepDriver& sweeper, const Plan& plan,
              std::uint64_t unforked_cycles, Probes& probes, SpanLog& log,
              Result& r) {
  Pass pass;
  const std::uint32_t sid = log.new_session();
  SpanLog::Span root = log.begin("sweep.pass", -1, sid);
  probes.build_ns = 0;
  const std::uint64_t checks0 = probes.frame_checks.load();
  const std::uint64_t fails0 = probes.frame_failures.load();

  SpanLog::Span g = log.begin("rtl.sweep.run", root.index(), sid);
  probes.parent = g.index();
  const std::vector<rtl::SweepResult> grid = sweeper.run(plan.jobs);
  pass.grid_ns = static_cast<double>(g.end());

  rtl::Snapshot blob;
  SpanLog::Span f = log.begin("rtl.sweep.run_forked", root.index(), sid);
  probes.parent = f.index();
  const std::vector<rtl::SweepResult> forked =
      sweeper.run_forked(plan.base, plan.branches, &blob);
  pass.fork_ns = static_cast<double>(f.end());
  root.end();

  pass.build_ns = static_cast<double>(probes.build_ns.load());
  for (const rtl::SweepResult& res : grid)
    pass.job_wall_ns += res.wall_seconds * 1e9;
  for (const auto* results : {&grid, &forked})
    for (const rtl::SweepResult& res : *results) {
      r.attempt();
      r.check(res.ok && res.outcome == rtl::RunResult::PredSatisfied,
              "sweep result " + res.name + " failed: " +
                  (res.ok ? to_string(res.outcome) : res.error));
      pass.counts.add(res.stats, res.cycles);
      pass.kernel.timed_steps += static_cast<double>(res.steps);
      pass.kernel.run_ns += res.wall_seconds * 1e9;
      pass.kernel.settle_ns += res.telem.settle_ns;
      pass.kernel.edge_ns += res.telem.edge_ns;
      pass.kernel.commit_ns += res.telem.commit_ns;
      pass.kernel.kernel_spans_dropped += res.telem.dropped;
    }
  for (const rtl::SweepResult& res : forked)
    r.check(res.cycles == unforked_cycles,
            "fork branch " + res.name + " ended at cycle " +
                std::to_string(res.cycles) + ", the un-forked job at " +
                std::to_string(unforked_cycles));
  const std::uint64_t checks = probes.frame_checks.load() - checks0;
  const std::uint64_t fails = probes.frame_failures.load() - fails0;
  r.check(checks == grid.size() + forked.size(),
          "sweep pass checked " + std::to_string(checks) + " of " +
              std::to_string(grid.size() + forked.size()) + " job outputs");
  r.check(fails == 0, "sweep pass: " + std::to_string(fails) +
                          " job(s) produced frames that differ from "
                          "designs::camera_frames");
  pass.counts.blob_digest = fnv1a(blob.bytes().data(), blob.size_bytes());
  return pass;
}

/// Per-variant layer probe, outside the SweepDriver: build, elaborate,
/// reset, run to done, teardown — the calls a sweep job makes, timed
/// one by one.  Returns the arena footprint (KiB) at the end of the run.
double probe_job(const rtl::SweepJob& job, SpanLog& log, Result& r) {
  const std::uint32_t sid = log.new_session();
  SpanLog::Span root = log.begin("probe.job", -1, sid);
  std::unique_ptr<rtl::Module> top = job.build();
  SpanLog::Span sp = log.begin("rtl.elaborate", root.index(), sid);
  auto sim = std::make_unique<rtl::Simulator>(*top, job.sim);
  sp.end();
  sp = log.begin("rtl.reset", root.index(), sid);
  sim->reset();
  sp.end();
  const rtl::RunStatus st =
      sim->run([&] { return job.done(*top); }, 10'000'000);
  r.check(st.ok(), "probe of " + job.name + ": " + to_string(st.result));
  const double kb =
      static_cast<double>(sim->memory_stats().arena_bytes_used) / 1024.0;
  sp = log.begin("rtl.teardown", root.index(), sid);
  sim.reset();
  sp.end();
  root.end();
  return kb;
}

/// Snapshot save of the warmed flagship and restore into a fresh
/// instance, timed from outside.  Returns the blob size.
std::size_t probe_snapshot(const rtl::SweepJob& base, SpanLog& log) {
  const std::uint32_t sid = log.new_session();
  SpanLog::Span root = log.begin("probe.snapshot", -1, sid);
  std::unique_ptr<rtl::Module> a = base.build();
  rtl::Simulator sa(*a, base.sim);
  sa.reset();
  sa.step(static_cast<int>(base.warmup));
  SpanLog::Span sp = log.begin("rtl.snapshot.save", root.index(), sid);
  const rtl::Snapshot blob = sa.save_snapshot();
  sp.end();
  std::unique_ptr<rtl::Module> b = base.build();
  rtl::Simulator sb(*b, base.sim);
  sp = log.begin("rtl.snapshot.restore", root.index(), sid);
  sb.restore_snapshot(blob);
  sp.end();
  root.end();
  return blob.size_bytes();
}

}  // namespace

void run_sweep(const Params& p, Result& r, SpanLog& log) {
  const std::vector<Expected> want = expected_outputs(p.seed);
  const Expected want_flagship = {
      designs::camera_frames(48, 32, 1, p.seed)};
  Probes probes;
  SpanLog off(false);

  // The set-up every pass starts with: expand and validate the grid,
  // wrap the jobs, build the fork plan and the SweepDriver.
  std::vector<double> setup;
  std::optional<Plan> plan;
  std::optional<rtl::SweepDriver> sweeper;
  auto set_up = [&] {
    SpanLog::Span s = off.begin("sweep.setup");
    plan = make_plan(p.seed, want, want_flagship, probes, off);
    sweeper.emplace(sweep_options(false));
    setup.push_back(static_cast<double>(s.end()));
  };
  set_up();

  // The un-forked job every fork branch must match, outside the window.
  const std::vector<rtl::SweepResult> unforked = sweeper->run({plan->base});
  r.attempt();
  r.check(unforked.front().ok, "un-forked flagship job failed: " +
                                   unforked.front().error);
  const std::uint64_t unforked_cycles = unforked.front().cycles;

  const Deadline end(p.seconds);
  std::optional<Counts> ref;
  auto repeat_check = [&](const Pass& pass, const char* what) {
    if (!ref)
      ref = pass.counts;
    else
      r.check(pass.counts == *ref,
              std::string(what) + ": exact counts differ between passes: " +
                  pass.counts.json() + " vs " + ref->json());
  };

  if (!p.trace) {
    std::vector<double> grid_ns, fork_ns;
    double steps = 0;
    do {
      set_up();
      const Pass pass = run_pass(*sweeper, *plan, unforked_cycles, probes, log,
                                 r);
      grid_ns.push_back(pass.grid_ns);
      fork_ns.push_back(pass.fork_ns);
      steps += pass.kernel.timed_steps;
      repeat_check(pass, "sweep pass");
    } while (!end.passed());
    r.set_counts(*ref);
    const double wall_s = (sum(grid_ns) + sum(fork_ns)) / 1e9;
    // Medians: the pass times' tail is other tenants taking a CPU from
    // one of the two workers (README.md, "Run-to-run noise").
    r.metric("setup_s", median(setup) / 1e9);
    r.metric("op_ms", median(grid_ns) / 1e6);
    r.metric("session_ms", median(fork_ns) / 1e6);
    char line[512];
    std::snprintf(line, sizeof line,
                  "sweep_grid: grid_wall_s=%.6g fork_wall_s=%.6g (n=%zu "
                  "passes of %zu variants + %d branches, workers=%d) "
                  "grid_ms_p90=%.6g fork_ms_p90=%.6g steps_per_s=%.6g "
                  "setup_s=%.6g (n=%zu)",
                  median(grid_ns) / 1e9, median(fork_ns) / 1e9,
                  grid_ns.size(), plan->jobs.size(), kBranches, kWorkers,
                  quantile(grid_ns, 0.9) / 1e6, quantile(fork_ns, 0.9) / 1e6,
                  wall_s > 0 ? steps / wall_s : 0,
                  median(setup) / 1e9, setup.size());
    r.note(line);
    return;
  }

  // Traced run: untraced passes (benchmark timing only, kernel tracer
  // off) alternate with traced passes (spans on, SweepOptions::trace
  // on), each followed by the per-variant and snapshot probes.
  const rtl::SweepDriver traced_sweeper(sweep_options(true));
  const Plan traced_plan = make_plan(p.seed, want, want_flagship, probes, log);
  std::vector<double> untraced_ns, traced_ns, run_share, unattributed,
      job_build, arena, run_ns, settle_ns, edge_ns, commit_ns;
  std::size_t blob_bytes = 0;
  KernelSample k;
  do {
    const Pass u = run_pass(*sweeper, *plan, unforked_cycles, probes, off, r);
    repeat_check(u, "untraced sweep pass");
    untraced_ns.push_back(u.grid_ns + u.fork_ns);
    const double capacity = kWorkers * u.grid_ns;
    run_share.push_back(u.job_wall_ns / capacity);
    unattributed.push_back((capacity - u.job_wall_ns - u.build_ns) / 1e6);
    job_build.push_back(u.build_ns / 1e6 /
                        static_cast<double>(plan->jobs.size()));

    const Pass t = run_pass(traced_sweeper, traced_plan, unforked_cycles,
                            probes, log, r);
    traced_ns.push_back(t.grid_ns + t.fork_ns);
    r.check(t.counts == u.counts,
            "traced sweep pass's exact counts differ from the untraced "
            "pass's");
    // Busy time from the untraced passes, phase split from the traced.
    k = t.kernel;
    run_ns.push_back(u.kernel.run_ns);
    settle_ns.push_back(t.kernel.settle_ns);
    edge_ns.push_back(t.kernel.edge_ns);
    commit_ns.push_back(t.kernel.commit_ns);

    const std::uint64_t fails0 = probes.frame_failures.load();
    for (const rtl::SweepJob& j : traced_plan.jobs)
      arena.push_back(probe_job(j, log, r));
    r.check(probes.frame_failures.load() == fails0,
            "a probed sweep job produced frames that differ from "
            "designs::camera_frames");
    for (int i = 0; i < kSnapshotProbes; ++i)
      blob_bytes = probe_snapshot(traced_plan.base, log);
  } while (!end.passed());

  r.set_counts(*ref);
  k.counts = *ref;
  k.frames = static_cast<double>(kBranches);
  for (const Expected& e : want)
    k.frames += static_cast<double>(e.size() * kFramesPerJob);
  k.arena_kb = median(arena);
  k.run_ns = median(run_ns);
  k.settle_ns = median(settle_ns);
  k.edge_ns = median(edge_ns);
  k.commit_ns = median(commit_ns);
  report_kernel(r, k);
  r.metric("designs.build_ms", median(log.durations("designs.build")) / 1e6);
  r.metric("rtl.elaborate_us", median(log.durations("rtl.elaborate")) / 1e3);
  r.metric("rtl.reset_us", median(log.durations("rtl.reset")) / 1e3);
  r.metric("rtl.teardown_us", median(log.durations("rtl.teardown")) / 1e3);
  r.metric("rtl.snapshot.save_us",
           median(log.durations("rtl.snapshot.save")) / 1e3);
  r.metric("rtl.snapshot.restore_us",
           median(log.durations("rtl.snapshot.restore")) / 1e3);
  r.metric("rtl.snapshot.blob_bytes", static_cast<double>(blob_bytes));
  r.metric("rtl.sweep.job_build_ms", median(job_build));
  r.metric("rtl.sweep.run_share", median(run_share));
  r.metric("rtl.sweep.unattributed_ms", median(unattributed));
  report_trace_health(r, log, untraced_ns, traced_ns);
}

}  // namespace perfbench
