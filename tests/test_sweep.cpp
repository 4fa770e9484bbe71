// Batch sweep service + run-outcome API redesign.
//
// What is pinned here:
//
//   * Simulator::run() reports Timeout/FaultLatched as *values* and
//     absorbs transactionally aborted injected faults (the retried
//     step continues bit-identically); the old throwing shim is
//     gone — progress_report() carries the diagnostic instead.
//   * Simulator::Options is validated at elaboration with messages
//     naming the offending field.
//   * SweepDriver::run(): per-variant results (counters AND VCD bytes)
//     are invariant under the worker count — gated at 1/2/4 over a
//     mixed single-clock/tri-clock grid from designs/variants.hpp.
//   * SweepDriver::run_forked(): every grid variant's snapshot-forked
//     branch replays byte-identically (counters + VCD bytes) to a
//     fresh run warmed to the same point; stimulus branches actually
//     diverge, and a stimulus branch equals a fresh run driven by the
//     same hook at the warmup point.
//   * Malformed sweeps/grids fail eagerly with field-naming messages.
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "designs/variants.hpp"
#include "rtl/rtl.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using ::testing::HasSubstr;
using rtl::Bit;
using rtl::Bus;
using rtl::Module;
using rtl::RunResult;
using rtl::RunStatus;
using rtl::Simulator;
using rtl::SweepBranch;
using rtl::SweepDriver;
using rtl::SweepJob;
using rtl::SweepOptions;
using rtl::SweepResult;

// ---------------------------------------------------------------------
// Run-outcome values (the run_until -> run redesign)
// ---------------------------------------------------------------------

/// Free-running counter used by the outcome tests.
struct TickCounter : Module {
  Bus out{*this, "out", 16};
  TickCounter() : Module(nullptr, "ticktop") {}
  void on_clock() override { out.write(out.read() + 1); }
  void declare_state() override { register_seq(out); }
};

TEST(RunResult, TimeoutIsAValueNotAThrow) {
  TickCounter top;
  Simulator sim(top);
  sim.reset();
  const RunStatus st = sim.run([] { return false; }, 25);
  EXPECT_EQ(st.result, RunResult::Timeout);
  EXPECT_EQ(st.steps, 25u);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(static_cast<bool>(st));
  EXPECT_EQ(std::string(to_string(st.result)), "timeout");
  EXPECT_EQ(top.out.read(), 25u);
}

TEST(RunResult, PredSatisfiedReportsStepsConsumed) {
  TickCounter top;
  Simulator sim(top);
  sim.reset();
  const RunStatus st = sim.run([&] { return top.out.read() == 10; }, 1000);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.steps, 10u);
}

TEST(RunResult, ProgressReportNamesTheStallPoint) {
  TickCounter top;
  Simulator sim(top);
  sim.reset();
  const RunStatus st = sim.run([] { return false; }, 5);
  EXPECT_EQ(st.result, RunResult::Timeout);
  EXPECT_THAT(sim.progress_report(), HasSubstr("cycle 5"));
}

TEST(RunResult, TransactionalFaultIsAbsorbedBitIdentically) {
  // Reference run without a fault plan.
  TickCounter ref;
  std::uint64_t want = 0;
  {
    Simulator sim(ref);
    sim.reset();
    EXPECT_TRUE(sim.run([] { return false; }, 40).result ==
                RunResult::Timeout);
    want = ref.out.read();
  }
  // A check-point fault aborts its event transactionally; run()
  // retries the tick and the outcome is bit-identical.
  TickCounter top;
  Simulator::Options opt;
  opt.fault_plan = "check@7";
  Simulator sim(top, opt);
  sim.reset();
  const RunStatus st = sim.run([] { return false; }, 40);
  EXPECT_EQ(st.result, RunResult::Timeout);
  EXPECT_EQ(st.steps, 40u);
  EXPECT_TRUE(sim.fault_fired());
  EXPECT_FALSE(sim.needs_recovery());
  EXPECT_EQ(top.out.read(), want);
  // step() without run()'s retry wrapper lets the same fault escape.
  TickCounter top2;
  Simulator sim2(top2, opt);
  sim2.reset();
  EXPECT_THROW(sim2.step(40), rtl::FaultInjected);
}

TEST(RunResult, LatchedFaultSurfacesAsFaultLatched) {
  TickCounter top;
  Simulator::Options opt;
  opt.fault_plan = "commit@5";
  Simulator sim(top, opt);
  sim.reset();
  const RunStatus st = sim.run([] { return false; }, 40);
  EXPECT_EQ(st.result, RunResult::FaultLatched);
  EXPECT_TRUE(sim.needs_recovery());
  // reset() recovers; the run can go again (plans fire once).
  sim.reset();
  EXPECT_FALSE(sim.needs_recovery());
  EXPECT_TRUE(sim.run([] { return false; }, 10).result ==
              RunResult::Timeout);
}

// ---------------------------------------------------------------------
// Options validation at elaboration
// ---------------------------------------------------------------------

TEST(OptionsValidation, MessagesNameTheField) {
  TickCounter top;
  const auto expect_names = [&](Simulator::Options opt, const char* field) {
    try {
      Simulator sim(top, opt);
      FAIL() << "expected Error naming " << field;
    } catch (const Error& e) {
      EXPECT_THAT(e.what(), HasSubstr(field));
    }
  };
  Simulator::Options bad;
  bad.delta_limit = 0;
  expect_names(bad, "delta_limit");
  bad = {};
  bad.tick_ps = -5;
  expect_names(bad, "tick_ps");
  bad = {};
  bad.fault_plan = "bogus@@";
  expect_names(bad, "fault_plan");
}

// ---------------------------------------------------------------------
// Sweep driver validation
// ---------------------------------------------------------------------

TEST(SweepValidation, DriverOptionsNameTheField) {
  try {
    SweepDriver bad({0, 100, ""});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("workers"));
  }
  try {
    SweepDriver bad({1, 0, ""});
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("max_cycles"));
  }
}

TEST(SweepValidation, JobListMisuseFailsEagerly) {
  const SweepDriver driver({2, 100, ""});
  const auto build = [] {
    return std::unique_ptr<Module>(new TickCounter());
  };
  std::vector<SweepJob> dup(2);
  dup[0].name = dup[1].name = "same";
  dup[0].build = dup[1].build = build;
  EXPECT_THROW((void)driver.run(dup), Error);
  std::vector<SweepJob> null_build(1);
  null_build[0].name = "x";
  EXPECT_THROW((void)driver.run(null_build), Error);
}

TEST(SweepValidation, FailingVariantDoesNotAbortTheSweep) {
  const SweepDriver driver({2, 2000, ""});
  std::vector<SweepJob> jobs(2);
  jobs[0].name = "broken";
  jobs[0].build = []() -> std::unique_ptr<Module> {
    throw SpecError("deliberately broken variant");
  };
  jobs[1].name = "fine";
  jobs[1].build = [] { return std::unique_ptr<Module>(new TickCounter()); };
  const std::vector<SweepResult> rs = driver.run(jobs);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_FALSE(rs[0].ok);
  EXPECT_THAT(rs[0].error, HasSubstr("deliberately broken"));
  EXPECT_TRUE(rs[1].ok);
  EXPECT_EQ(rs[1].outcome, RunResult::PredSatisfied);  // fixed-length run
  EXPECT_EQ(rs[1].steps, 2000u);
}

// ---------------------------------------------------------------------
// Grid expansion (meta + designs glue)
// ---------------------------------------------------------------------

std::vector<std::string> job_names(const std::vector<SweepJob>& jobs) {
  std::vector<std::string> names;
  for (const SweepJob& j : jobs) names.push_back(j.name);
  return names;
}

TEST(SweepGrid, JobsAreRowMajorLastAxisFastest) {
  designs::Saa2VgaSweepGrid g;
  g.widths = {32, 64};
  g.depths = {256, 512};
  g.devices = {devices::DeviceKind::FifoCore, devices::DeviceKind::Sram};
  EXPECT_EQ(job_names(designs::saa2vga_sweep(g)),
            (std::vector<std::string>{
                "saa2vga_w32_h24_d256_fifo", "saa2vga_w32_h24_d256_sram",
                "saa2vga_w32_h24_d512_fifo", "saa2vga_w32_h24_d512_sram",
                "saa2vga_w64_h48_d256_fifo", "saa2vga_w64_h48_d256_sram",
                "saa2vga_w64_h48_d512_fifo", "saa2vga_w64_h48_d512_sram"}));
  designs::TriClkSweepGrid t;
  t.ratios = {"5x2x3", "3x1x2"};
  t.lanes = {1, 2};
  EXPECT_EQ(job_names(designs::saa2vga_triclk_sweep(t)),
            (std::vector<std::string>{"triclk_5x2x3_l1", "triclk_5x2x3_l2",
                                      "triclk_3x1x2_l1",
                                      "triclk_3x1x2_l2"}));
}

TEST(SweepGrid, ValidationNamesTheAxis) {
  designs::Saa2VgaSweepGrid dup;
  dup.depths = {256, 256};
  try {
    (void)designs::saa2vga_sweep(dup);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_THAT(e.what(), HasSubstr("axis 'depth' repeats value '256'"));
  }
  designs::Saa2VgaSweepGrid empty;
  empty.devices = {};
  try {
    (void)designs::saa2vga_sweep(empty);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_THAT(e.what(), HasSubstr("axis 'device' has no values"));
  }
  designs::TriClkSweepGrid dupratio;
  dupratio.ratios = {"5x2x3", "5x2x3"};
  EXPECT_THROW((void)designs::saa2vga_triclk_sweep(dupratio), SpecError);
  designs::TriClkSweepGrid nolanes;
  nolanes.lanes = {};
  EXPECT_THROW((void)designs::saa2vga_triclk_sweep(nolanes), SpecError);
}

TEST(SweepGrid, DesignGridsRejectImpossibleVariants) {
  designs::Saa2VgaSweepGrid bad;
  bad.widths = {64};
  bad.depths = {0};  // meta::validate: depth < 1
  EXPECT_THROW((void)designs::saa2vga_sweep(bad), SpecError);
  designs::TriClkSweepGrid badratio;
  badratio.ratios = {"5x2"};
  EXPECT_THROW((void)designs::saa2vga_triclk_sweep(badratio), SpecError);
  designs::TriClkSweepGrid badlanes;
  badlanes.lanes = {0};
  EXPECT_THROW((void)designs::saa2vga_triclk_sweep(badlanes), SpecError);
}

// ---------------------------------------------------------------------
// Worker-count invariance over a real design grid
// ---------------------------------------------------------------------

/// The small mixed grid the concurrency tests run: two single-clock
/// variants (fifo + sram) and one tri-clock variant.
std::vector<SweepJob> small_grid() {
  designs::Saa2VgaSweepGrid g1;
  g1.widths = {16};
  g1.depths = {256};
  std::vector<SweepJob> jobs = designs::saa2vga_sweep(g1);
  designs::TriClkSweepGrid g2;
  g2.ratios = {"3x1x2"};
  g2.lanes = {1};
  g2.width = 16;
  g2.height = 12;
  for (SweepJob& j : designs::saa2vga_triclk_sweep(g2))
    jobs.push_back(std::move(j));
  return jobs;
}

/// The per-variant fingerprint the invariance tests compare.
struct Fingerprint {
  std::string name;
  bool ok = false;
  RunResult outcome = RunResult::PredSatisfied;
  std::uint64_t steps = 0, cycles = 0, ticks = 0;
  std::uint64_t evals = 0, commits = 0, edges = 0, deltas = 0;
  std::vector<std::uint64_t> domain_edges;
  std::string vcd;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  static Fingerprint of(const SweepResult& r, std::string vcd_bytes) {
    return {r.name,          r.ok,
            r.outcome,       r.steps,
            r.cycles,        r.ticks,
            r.stats.evals,   r.stats.commits,
            r.stats.edges,   r.stats.deltas,
            r.stats.domain_edges, std::move(vcd_bytes)};
  }
};

TEST(SweepDriver, ResultsAreInvariantUnderWorkerCount) {
  const std::vector<SweepJob> jobs = small_grid();
  std::vector<std::vector<Fingerprint>> by_workers;
  for (const int workers : {1, 2, 4}) {
    const SweepDriver driver({workers, 200000, "."});
    const std::vector<SweepResult> rs = driver.run(jobs);
    ASSERT_EQ(rs.size(), jobs.size());
    std::vector<Fingerprint> fps;
    for (const SweepResult& r : rs) {
      EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
      EXPECT_EQ(r.outcome, RunResult::PredSatisfied) << r.name;
      fps.push_back(
          Fingerprint::of(r, tb::slurp_and_remove("./" + r.name + ".vcd")));
    }
    by_workers.push_back(std::move(fps));
  }
  for (std::size_t w = 1; w < by_workers.size(); ++w)
    for (std::size_t i = 0; i < by_workers[0].size(); ++i)
      EXPECT_EQ(by_workers[w][i], by_workers[0][i])
          << "variant '" << by_workers[0][i].name
          << "' differs between worker counts";
}

// ---------------------------------------------------------------------
// Snapshot forking: branch == fresh, byte for byte, for every variant
// ---------------------------------------------------------------------

TEST(SweepFork, BranchReplaysByteIdenticallyToFreshRun) {
  constexpr std::uint64_t kWarmup = 120;
  constexpr std::uint64_t kBudget = 200000;
  for (SweepJob job : small_grid()) {
    job.warmup = kWarmup;
    // Fresh reference: same design, warmed to the same point, VCD
    // opened at the measurement point — what the fork must reproduce.
    Fingerprint want;
    {
      const SweepDriver driver({1, kBudget, "."});
      const std::vector<SweepResult> rs = driver.run({job});
      ASSERT_EQ(rs.size(), 1u);
      ASSERT_TRUE(rs[0].ok) << rs[0].name << ": " << rs[0].error;
      want = Fingerprint::of(
          rs[0], tb::slurp_and_remove("./" + job.name + ".vcd"));
    }
    // Forked run at workers 2: both branches must match the fresh run.
    rtl::Snapshot blob;
    const SweepDriver driver({2, kBudget, "."});
    const std::vector<SweepResult> rs =
        driver.run_forked(job, {{"b0", {}, {}, 0, ""}, {"b1", {}, {}, 0, ""}},
                          &blob);
    ASSERT_EQ(rs.size(), 2u);
    EXPECT_FALSE(blob.empty());
    for (const SweepResult& r : rs) {
      ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
      EXPECT_EQ(r.snapshot_bytes, blob.size_bytes());
      Fingerprint got = Fingerprint::of(
          r, tb::slurp_and_remove("./" + r.name + ".vcd"));
      got.name = want.name;  // "<base>.<branch>" vs base label
      EXPECT_EQ(got, want)
          << "branch '" << r.name << "' diverged from the fresh run";
    }
  }
}

// ---------------------------------------------------------------------
// Stimulus divergence through the fork API
// ---------------------------------------------------------------------

/// Counter with a top-level enable wire a branch stimulus can drive.
struct GatedCounter : Module {
  Bit en{*this, "en"};
  Bus out{*this, "out", 16};
  GatedCounter() : Module(nullptr, "gatedtop") {}
  void on_clock() override {
    if (en.read()) out.write(out.read() + 1);
  }
  void declare_state() override { register_seq(out); }
};

TEST(SweepFork, StimulusBranchesDivergeAndMatchEquivalentFreshRuns) {
  SweepJob base;
  base.name = "gated";
  base.build = [] { return std::unique_ptr<Module>(new GatedCounter()); };
  base.warmup = 10;
  const auto drive = [](bool on) {
    return [on](Module& top, Simulator&) {
      static_cast<GatedCounter&>(top).en.write(on);
    };
  };
  const SweepDriver driver({2, 50, ""});
  const std::vector<SweepResult> rs = driver.run_forked(
      base, {{"on", drive(true), {}, 0, ""}, {"off", drive(false), {}, 0, ""}});
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_TRUE(rs[0].ok) << rs[0].error;
  ASSERT_TRUE(rs[1].ok) << rs[1].error;
  // Branches consumed the same budget but diverged in state: commit
  // changes count the enabled counter's increments.
  EXPECT_EQ(rs[0].steps, 50u);
  EXPECT_EQ(rs[1].steps, 50u);
  EXPECT_GT(rs[0].stats.commit_changes, rs[1].stats.commit_changes);
  // Each branch equals a fresh run driven by the same hook at the
  // warmup point (at_warmup is the branch-stimulus mirror).
  for (int on = 0; on < 2; ++on) {
    SweepJob fresh = base;
    fresh.at_warmup = drive(on != 0);
    const std::vector<SweepResult> f = driver.run({fresh});
    ASSERT_TRUE(f[0].ok) << f[0].error;
    const SweepResult& br = rs[on != 0 ? 0 : 1];
    EXPECT_EQ(f[0].steps, br.steps);
    EXPECT_EQ(f[0].cycles, br.cycles);
    EXPECT_EQ(f[0].stats.commit_changes, br.stats.commit_changes);
    EXPECT_EQ(f[0].stats.evals, br.stats.evals);
  }
}

TEST(SweepFork, BranchFaultPlanOverrideLatchesOnlyThatBranch) {
  SweepJob base;
  base.name = "faulty";
  base.build = [] { return std::unique_ptr<Module>(new TickCounter()); };
  base.warmup = 5;
  const SweepDriver driver({2, 30, ""});
  const std::vector<SweepResult> rs = driver.run_forked(
      base, {{"clean", {}, {}, 0, ""}, {"crash", {}, {}, 0, "commit@10"}});
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_TRUE(rs[0].ok) << rs[0].error;
  ASSERT_TRUE(rs[1].ok) << rs[1].error;
  EXPECT_EQ(rs[0].outcome, RunResult::PredSatisfied);
  EXPECT_EQ(rs[0].steps, 30u);
  EXPECT_EQ(rs[1].outcome, RunResult::FaultLatched);
  EXPECT_LT(rs[1].steps, 30u);
}

}  // namespace
}  // namespace hwpat
