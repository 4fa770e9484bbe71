// Crash-consistent checkpoint/restore with deterministic replay.
//
// These tests pin the Snapshot subsystem contract on a small hand-made
// multi-clock design:
//
//   * save -> restore -> save is bit-stable, including across
//     independently constructed simulator instances;
//   * a run restored from a snapshot replays byte-identically (values,
//     counters, VCD bytes) to the uninterrupted run;
//   * Simulator::reset() after a restore returns to construction-time
//     values — even internal module state that on_reset() deliberately
//     leaves alone — so reset-after-restore equals a fresh construct;
//   * corrupted blobs (truncated, bad magic, wrong version, topology
//     mismatch) fail loudly with actionable messages and never leave
//     the simulator half-restored;
//   * save/restore from inside a simulator callback is refused;
//   * the elaboration-time declare_comb_only() contract check rejects
//     comb-only modules with a sequential process;
//   * the fault-injection engine (Options::fault_plan) fires at each
//     event-loop point: check/edge faults abort transactionally and
//     the retried step continues as if nothing happened; settle/commit
//     faults leave a half-applied state that save_snapshot() refuses
//     and restore_snapshot()/reset() both recover from.
//   * the state codec's word-array block keeps its byte layout (u64
//     count, then each word little-endian), rejects a corrupted count
//     that would overflow a byte-size computation, and carries the
//     SRAM-bound saa2vga's two 2^16-word images through save, restore
//     and reset intact.
//   * blob bytes stay pinned per design (digests taken before the
//     module state hooks became one visit_state() per module);
//   * module payloads that would break the design's invariants — a
//     FIFO ring of another depth, an arbiter counter table of another
//     size, malformed sink frames — throw SnapshotError naming the
//     module and leave the simulator reset and usable, and flipping
//     any early payload byte never escapes as another exception type.
//   * every restored index or count into design-sized storage, and
//     every enum, is range-checked: one corrupted field throws
//     SnapshotError and reset() recovers to a fresh instance's state.
//   * the reset baseline keeps an all-zero storage array as one flag:
//     reset() after SRAM writes restores the zeros, and a preload made
//     before the simulator was built survives run and reset.
//
// The randomized cross-kernel half of this story lives in
// test_fuzz_kernel.cpp (SnapshotFaultRestoreReplaysByteIdentically).
#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/algorithm.hpp"
#include "core/assoc.hpp"
#include "core/iterator.hpp"
#include "core/stream_core.hpp"
#include "core/vector.hpp"
#include "designs/design.hpp"
#include "designs/saa2vga_shared.hpp"
#include "core/stream_sram.hpp"
#include "designs/saa2vga_custom.hpp"
#include "devices/arbiter.hpp"
#include "devices/bram.hpp"
#include "devices/fifo.hpp"
#include "devices/lifo.hpp"
#include "devices/linebuffer.hpp"
#include "devices/sram.hpp"
#include "meta/factory.hpp"
#include "rtl/clock.hpp"
#include "rtl/simulator.hpp"
#include "tb_util.hpp"

namespace hwpat {
namespace {

using ::testing::HasSubstr;
using rtl::Bit;
using rtl::Bus;
using rtl::ClockDomain;
using rtl::Module;
using rtl::Simulator;

static_assert(std::is_base_of_v<Error, rtl::FaultInjected>,
              "FaultInjected must be catchable as Error");

/// Register counter: out <= out + 1 on every edge of its domain.
struct SnapCounter : Module {
  Bus& out;
  SnapCounter(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void on_clock() override { out.write(out.read() + 1); }
  void declare_state() override { register_seq(out); }
};

/// Internal C++ state in both flavors: `acc` is ordinary sequential
/// state (on_reset() clears it), `epoch` is construction-time state
/// that on_reset() deliberately leaves alone — the module that proves
/// reset-after-restore reloads the construction baseline instead of
/// trusting on_reset() alone.
struct Sticky : Module {
  Bus& out;
  const Bus& in;
  Word acc = 0;
  Word epoch = 1;
  Sticky(Module* parent, std::string name, Bus& o, const Bus& i)
      : Module(parent, std::move(name)), out(o), in(i) {}
  void eval_comb() override { out.write(acc ^ epoch); }
  void on_clock() override {
    acc += in.read();
    epoch = epoch * 3 + 1;
    seq_touch();
  }
  void on_reset() override { acc = 0; }  // epoch intentionally kept
  void declare_state() override { declare_seq_state(); }
  void visit_state(rtl::StateIO& io) override { io(acc, epoch); }
};

/// Self-driving strict-FIFO traffic: enables gated on the flags, so
/// the strict device never throws — the FIFO's internal ring state
/// (head/count/storage) still churns every cycle.
struct SnapDriver : Module {
  const Bus& cnt;
  const Bit& full;
  const Bit& empty;
  Bit& wr_en;
  Bit& rd_en;
  Bus& wr_data;
  SnapDriver(Module* parent, std::string name, const Bus& c, const Bit& f,
             const Bit& e, Bit& we, Bit& re, Bus& wd)
      : Module(parent, std::move(name)),
        cnt(c),
        full(f),
        empty(e),
        wr_en(we),
        rd_en(re),
        wr_data(wd) {}
  void eval_comb() override {
    wr_en.write(!full.read() && (cnt.read() & 1) != 0);
    rd_en.write(!empty.read() && (cnt.read() & 2) != 0);
    wr_data.write(cnt.read() * 5 + 1);
  }
  void declare_state() override { declare_comb_only(); }
};

/// Two-domain top: a fast counter feeding a strict FIFO through a
/// gated driver, a Sticky accumulator, and a slow-domain counter.
/// `width` parameterizes the data path so two instances with different
/// widths elaborate to different topology hashes.
struct SnapTop : Module {
  ClockDomain fast{"fast", 1};
  ClockDomain slow{"slow", 3};

  Bus cnt{*this, "cnt", 12};
  Bus scnt{*this, "scnt", 12};
  Bus sticky_out{*this, "sticky_out", 12};
  Bit wr_en{*this, "wr_en"};
  Bit rd_en{*this, "rd_en"};
  Bit empty{*this, "empty"};
  Bit full{*this, "full"};
  Bus wr_data;
  Bus rd_data;
  Bus level{*this, "level", 8};

  SnapCounter fast_cnt{this, "fast_cnt", cnt};
  SnapCounter slow_cnt{this, "slow_cnt", scnt};
  Sticky sticky{this, "sticky", sticky_out, cnt};
  SnapDriver driver{this,  "driver", cnt,   full,
                    empty, wr_en,    rd_en, wr_data};
  devices::FifoCore fifo;

  explicit SnapTop(int width = 8)
      : Module(nullptr, "snaptop"),
        wr_data(*this, "wr_data", width),
        rd_data(*this, "rd_data", width),
        fifo(this, "fifo", {.width = width, .depth = 4, .strict = true},
             {wr_en, wr_data, rd_en, rd_data, empty, full, level}) {
    set_clock_domain(&fast);
    slow_cnt.set_clock_domain(&slow);
  }
  void declare_state() override { declare_seq_state(); }
};

/// Externally visible end-state, minus the settle-effort counters
/// (an aborted-and-retried clock event legitimately re-settles, so
/// evals/settles are not part of the transactional guarantee).
struct Observed {
  std::uint64_t cycle = 0, tick = 0;
  std::uint64_t steps = 0, edges = 0, seq_touches = 0;
  std::vector<std::uint64_t> domain_edges;
  Word cnt = 0, scnt = 0, sticky_out = 0, rd_data = 0, level = 0;

  static Observed of(const Simulator& sim, const SnapTop& d) {
    const auto& s = sim.stats();
    return Observed{sim.cycle(),       sim.now(),
                    s.steps,           s.edges,
                    s.seq_touches,     s.domain_edges,
                    d.cnt.read(),      d.scnt.read(),
                    d.sticky_out.read(), d.rd_data.read(),
                    d.level.read()};
  }
  friend bool operator==(const Observed&, const Observed&) = default;
};

void run_steps(Simulator& sim, int n) {
  for (int i = 0; i < n; ++i) sim.step();
}

// ---------------------------------------------------------------------
// Round trip and replay
// ---------------------------------------------------------------------

TEST(Snapshot, RoundTripIsBitStable) {
  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 10);
  const rtl::Snapshot blob = sim.save_snapshot();
  EXPECT_FALSE(blob.empty());
  sim.restore_snapshot(blob);
  const rtl::Snapshot again = sim.save_snapshot();
  EXPECT_EQ(blob, again) << "save -> restore -> save must be bit-stable";
}

TEST(Snapshot, RestoredReplayMatchesUninterruptedRun) {
  // Uninterrupted reference, with the VCD covering the second half.
  SnapTop a;
  rtl::Snapshot blob;
  Observed want;
  std::string want_vcd;
  {
    Simulator sim(a, {});
    sim.reset();
    run_steps(sim, 7);
    blob = sim.save_snapshot();
    sim.open_vcd("snap_ref.vcd");
    run_steps(sim, 13);
    want = Observed::of(sim, a);
  }
  want_vcd = tb::slurp_and_remove("snap_ref.vcd");

  // A freshly constructed instance restores the blob — no reset, no
  // warm-up — and must replay the same second half byte for byte.
  SnapTop b;
  Observed got;
  {
    Simulator sim(b, {});
    sim.restore_snapshot(blob);
    const rtl::Snapshot again = sim.save_snapshot();
    EXPECT_EQ(blob, again) << "cross-instance restore must round-trip";
    sim.open_vcd("snap_rep.vcd");
    run_steps(sim, 13);
    got = Observed::of(sim, b);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tb::slurp_and_remove("snap_rep.vcd"), want_vcd)
      << "replayed VCD bytes differ";
}

TEST(Snapshot, ResetAfterRestoreEqualsFreshConstruct) {
  // Fresh construct + reset: the canonical post-reset trajectory.
  SnapTop a;
  Observed want;
  {
    Simulator sim(a, {});
    sim.reset();
    sim.open_vcd("snap_fresh.vcd");
    run_steps(sim, 12);
    want = Observed::of(sim, a);
  }
  const std::string want_vcd = tb::slurp_and_remove("snap_fresh.vcd");

  // Run, snapshot, run further, restore, reset.  Sticky::epoch has
  // been mutated and restored to a mid-run value by then, and
  // on_reset() does not touch it — only the construction-state
  // baseline reload inside reset() can make this trajectory match.
  SnapTop b;
  Observed got;
  {
    Simulator sim(b, {});
    sim.reset();
    run_steps(sim, 9);
    const rtl::Snapshot blob = sim.save_snapshot();
    run_steps(sim, 5);
    sim.restore_snapshot(blob);
    sim.reset();
    sim.reset_stats();  // counters are cumulative across resets
    sim.open_vcd("snap_reset.vcd");
    run_steps(sim, 12);
    got = Observed::of(sim, b);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(tb::slurp_and_remove("snap_reset.vcd"), want_vcd)
      << "reset-after-restore VCD differs from fresh-construct VCD";
}

// ---------------------------------------------------------------------
// Corrupted blobs
// ---------------------------------------------------------------------

TEST(Snapshot, TruncatedBlobThrowsAndSimulatorStaysUsable) {
  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 5);
  const rtl::Snapshot blob = sim.save_snapshot();
  const auto& bytes = blob.bytes();
  ASSERT_GT(bytes.size(), 32u);

  // Header truncations fail before any mutation: the simulator state
  // is untouched and still serializes to the original blob.
  for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                std::size_t{7}, std::size_t{13}}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const rtl::Snapshot cut(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    EXPECT_THROW(sim.restore_snapshot(cut), Error);
    EXPECT_EQ(sim.save_snapshot(), blob) << "failed restore mutated state";
  }

  // Body truncations are detected mid-restore: the simulator falls
  // back to construction state (and says so) instead of staying
  // half-restored — after which a valid restore works again.
  for (const std::size_t len : {bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const rtl::Snapshot cut(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len));
    try {
      sim.restore_snapshot(cut);
      FAIL() << "truncated blob must throw";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("truncated"));
      EXPECT_THAT(std::string(e.what()),
                  HasSubstr("reset to construction state"));
    }
    sim.restore_snapshot(blob);
    EXPECT_EQ(sim.save_snapshot(), blob);
  }
}

TEST(Snapshot, BadMagicAndVersionThrowBeforeMutation) {
  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 4);
  const rtl::Snapshot blob = sim.save_snapshot();

  auto corrupt = [&](std::size_t at, std::uint8_t v) {
    std::vector<std::uint8_t> b = blob.bytes();
    b[at] = v;
    return rtl::Snapshot(std::move(b));
  };

  try {
    sim.restore_snapshot(corrupt(0, 'X'));
    FAIL() << "bad magic must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()), HasSubstr("bad magic"));
  }
  try {
    sim.restore_snapshot(corrupt(4, 99));  // version byte
    FAIL() << "unknown version must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()),
                HasSubstr("unsupported snapshot version 99"));
  }
  try {
    sim.restore_snapshot(corrupt(6, 0xAB));  // inside the topology hash
    FAIL() << "hash corruption must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()), HasSubstr("topology hash mismatch"));
  }
  // All three fail in header validation: nothing was mutated.
  EXPECT_EQ(sim.save_snapshot(), blob);
}

TEST(Snapshot, TopologyMismatchRejectsDifferentlyParameterizedDesign) {
  SnapTop narrow(8);
  SnapTop wide(9);
  Simulator sim_n(narrow, {});
  Simulator sim_w(wide, {});
  EXPECT_NE(sim_n.topology_hash(), sim_w.topology_hash());

  sim_n.reset();
  run_steps(sim_n, 6);
  const rtl::Snapshot blob = sim_n.save_snapshot();

  sim_w.reset();
  try {
    sim_w.restore_snapshot(blob);
    FAIL() << "width mismatch must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()), HasSubstr("topology hash mismatch"));
    EXPECT_THAT(std::string(e.what()), HasSubstr("snaptop"));
  }
  // The mismatch is detected in the header: sim_w keeps running.
  run_steps(sim_w, 3);
  EXPECT_EQ(sim_w.cycle(), 3u);

  // Same parameterization hashes (and restores) identically.
  SnapTop narrow2(8);
  Simulator sim_n2(narrow2, {});
  EXPECT_EQ(sim_n.topology_hash(), sim_n2.topology_hash());
  sim_n2.restore_snapshot(blob);
  EXPECT_EQ(sim_n2.save_snapshot(), blob);
}

// ---------------------------------------------------------------------
// Mid-event refusal
// ---------------------------------------------------------------------

/// Attempts a snapshot operation from inside its own on_clock().
struct Saboteur : Module {
  Bus& out;
  Simulator* sim = nullptr;
  int mode = 0;  ///< 0 = behave, 1 = try save, 2 = try restore
  rtl::Snapshot blob;
  std::string caught;
  Saboteur(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void on_clock() override {
    out.write(out.read() + 1);
    if (sim == nullptr || mode == 0) return;
    try {
      if (mode == 1) {
        (void)sim->save_snapshot();
      } else {
        sim->restore_snapshot(blob);
      }
      caught = "no throw";
    } catch (const Error& e) {
      caught = e.what();
    }
    mode = 0;
  }
  void declare_state() override { register_seq(out); }
};

TEST(Snapshot, SaveAndRestoreAreRefusedMidEvent) {
  struct Top : Module {
    Bus out{*this, "out", 16};
    Saboteur sab{this, "sab", out};
    Top() : Module(nullptr, "midevent") {}
    void declare_state() override { declare_seq_state(); }
  } top;

  Simulator sim(top, {});
  sim.reset();
  sim.step();
  top.sab.sim = &sim;
  top.sab.blob = sim.save_snapshot();

  top.sab.mode = 1;
  sim.step();
  EXPECT_THAT(top.sab.caught, HasSubstr("mid-event"));

  top.sab.mode = 2;
  sim.step();
  EXPECT_THAT(top.sab.caught, HasSubstr("mid-event"));

  // The refusals left the run intact: stepping and snapshotting still
  // work, and the counter saw every edge.
  sim.step();
  EXPECT_EQ(top.out.read(), 4u);
  EXPECT_FALSE(sim.save_snapshot().empty());
}

// ---------------------------------------------------------------------
// declare_comb_only() contract hardening
// ---------------------------------------------------------------------

/// Claims comb-only but overrides on_clock(): the declaration would
/// silently disable the sequential process.
struct BadCombClock : Module {
  int ticks = 0;
  using Module::Module;
  void on_clock() override { ++ticks; }
  void declare_state() override { declare_comb_only(); }
};

/// Claims comb-only but overrides on_clock_check().
struct BadCombCheck : Module {
  using Module::Module;
  void on_clock_check() const override {}
  void declare_state() override { declare_comb_only(); }
};

/// Claims comb-only but registers a sequential signal.
struct BadCombSeq : Module {
  Bus& out;
  BadCombSeq(Module* parent, std::string name, Bus& o)
      : Module(parent, std::move(name)), out(o) {}
  void declare_state() override {
    declare_comb_only();
    register_seq(out);
  }
};

TEST(Snapshot, CombOnlyContractRejectsSequentialProcesses) {
  {
    struct Top : Module {
      BadCombClock bad{this, "bad"};
      Top() : Module(nullptr, "combtop") {}
    } top;
    try {
      Simulator sim(top, {});
      FAIL() << "comb-only module overriding on_clock() must be rejected";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("combtop.bad"));
      EXPECT_THAT(std::string(e.what()), HasSubstr("on_clock()"));
    }
    // Elaboration failed cleanly: the same design binds fine with the
    // debug check disabled.
    Simulator::Options relaxed_opts;
    relaxed_opts.check_seq_contract = false;
    Simulator relaxed(top, relaxed_opts);
    relaxed.reset();
    relaxed.step();
  }
  {
    struct Top : Module {
      BadCombCheck bad{this, "bad"};
      Top() : Module(nullptr, "combtop") {}
    } top;
    try {
      Simulator sim(top, {});
      FAIL() << "comb-only module overriding on_clock_check() must be "
                "rejected";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("combtop.bad"));
      EXPECT_THAT(std::string(e.what()), HasSubstr("on_clock_check()"));
    }
  }
  {
    struct Top : Module {
      Bus w{*this, "w", 8};
      BadCombSeq bad{this, "bad", w};
      Top() : Module(nullptr, "combtop") {}
    } top;
    try {
      Simulator sim(top, {});
      FAIL() << "comb-only module with register_seq() must be rejected";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("combtop.bad"));
      EXPECT_THAT(std::string(e.what()), HasSubstr("register_seq"));
    }
  }
}

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

TEST(Snapshot, FaultPlanGrammar) {
  EXPECT_FALSE(rtl::parse_fault_plan("").armed());
  const rtl::FaultPlan p = rtl::parse_fault_plan("settle@12+3");
  EXPECT_TRUE(p.armed());
  EXPECT_EQ(p.point, rtl::FaultPoint::Settle);
  EXPECT_EQ(p.step, 12u);
  EXPECT_EQ(p.skip, 3u);
  EXPECT_EQ(rtl::parse_fault_plan("check@0").skip, 0u);

  for (const char* bad :
       {"bogus@1", "check", "check@", "check@x", "check@1+", "check@1+y",
        "@5", "check@1 extra", "check@1+2+3"}) {
    SCOPED_TRACE(bad);
    try {
      (void)rtl::parse_fault_plan(bad);
      FAIL() << "malformed plan must throw";
    } catch (const Error& e) {
      EXPECT_THAT(std::string(e.what()), HasSubstr("grammar"));
      EXPECT_THAT(std::string(e.what()), HasSubstr(bad));
    }
  }
  // A malformed plan is rejected at elaboration, not mid-run.
  SnapTop top;
  EXPECT_THROW(Simulator sim(top, {.fault_plan = "oops@1"}), Error);
}

/// Check/edge faults strike before any state mutates: the event aborts
/// transactionally and a retried step() continues the run as if the
/// crash never happened.
void expect_clean_abort(const std::string& point) {
  SCOPED_TRACE("point=" + point);
  constexpr int kSteps = 10;
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, kSteps);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {.fault_plan = point + "@3"});
  sim.reset();
  EXPECT_FALSE(sim.fault_fired());
  int fired_at = -1;
  for (int i = 0; i < kSteps; ++i) {
    try {
      sim.step();
    } catch (const rtl::FaultInjected& e) {
      ASSERT_EQ(fired_at, -1) << "fault must be one-shot";
      fired_at = i;
      EXPECT_THAT(std::string(e.what()), HasSubstr(point));
      EXPECT_THAT(std::string(e.what()), HasSubstr("snaptop"));
      sim.step();  // the aborted event was a no-op: same tick re-fires
    }
  }
  EXPECT_GE(fired_at, 0) << "the armed fault never fired";
  EXPECT_TRUE(sim.fault_fired());
  EXPECT_EQ(Observed::of(sim, top), want);
  EXPECT_FALSE(sim.save_snapshot().empty());
}

TEST(Snapshot, CheckFaultAbortsTransactionally) { expect_clean_abort("check"); }
TEST(Snapshot, EdgeFaultAbortsTransactionally) { expect_clean_abort("edge"); }

/// Settle/commit faults strike mid-mutation: the kernel must flag the
/// half-applied state, refuse to snapshot it, and recover through
/// restore_snapshot() — after which the replay matches the run that
/// never crashed.
void expect_crash_recovery(const std::string& point) {
  SCOPED_TRACE("point=" + point);
  constexpr int kSteps = 12;
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, kSteps);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {.fault_plan = point + "@4"});
  sim.reset();
  rtl::Snapshot good = sim.save_snapshot();
  int done = 0;
  bool crashed = false;
  while (done < kSteps) {
    try {
      sim.step();
      ++done;
      good = sim.save_snapshot();
    } catch (const rtl::FaultInjected&) {
      crashed = true;
      break;
    }
  }
  ASSERT_TRUE(crashed) << "the armed fault never fired";
  // Half-applied state: snapshotting is refused with a way out.
  try {
    (void)sim.save_snapshot();
    FAIL() << "save_snapshot after a mid-" << point << " crash must throw";
  } catch (const Error& e) {
    EXPECT_THAT(std::string(e.what()),
                HasSubstr("restore_snapshot() or reset()"));
  }
  sim.restore_snapshot(good);
  for (; done < kSteps; ++done) sim.step();
  EXPECT_EQ(Observed::of(sim, top), want);
}

TEST(Snapshot, SettleFaultRecoversThroughRestore) {
  expect_crash_recovery("settle");
}
TEST(Snapshot, CommitFaultRecoversThroughRestore) {
  expect_crash_recovery("commit");
}

TEST(Snapshot, CrashRecoversThroughResetToo) {
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, 8);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {.fault_plan = "commit@2"});
  sim.reset();
  bool crashed = false;
  try {
    run_steps(sim, 8);
  } catch (const rtl::FaultInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  sim.reset();  // full reset is the other recovery path
  sim.reset_stats();  // counters are cumulative; restart the tally too
  run_steps(sim, 8);
  EXPECT_EQ(Observed::of(sim, top), want);
}

// ---------------------------------------------------------------------
// Format stability across the SoA kernel-layout refactor
// ---------------------------------------------------------------------

#include "data/snapshot_prerefactor_snaptop.inc"

rtl::Snapshot pre_refactor_blob() {
  return rtl::Snapshot(std::vector<std::uint8_t>(
      kPreRefactorSnapTopBlob,
      kPreRefactorSnapTopBlob + sizeof(kPreRefactorSnapTopBlob)));
}

TEST(Snapshot, PreRefactorBlobRestoresIntoFreshInstanceAndReplays) {
  // Uninterrupted reference: the exact run the fixture blob froze at
  // step 10 of, continued for 13 more steps with the VCD covering the
  // continuation.
  SnapTop a;
  Observed want;
  {
    Simulator sim(a, {});
    sim.reset();
    run_steps(sim, 10);
    sim.open_vcd("snap_pre_ref.vcd");
    run_steps(sim, 13);
    want = Observed::of(sim, a);
  }
  const std::string want_vcd = tb::slurp_and_remove("snap_pre_ref.vcd");

  // A blob captured by the pre-refactor (AoS signal layout) kernel
  // must restore into a freshly constructed SoA-layout instance...
  SnapTop b;
  Observed got;
  std::string got_vcd;
  {
    Simulator sim(b, {});
    sim.restore_snapshot(pre_refactor_blob());
    EXPECT_EQ(sim.cycle(), 10u);
    EXPECT_EQ(sim.now(), 10u);
    // ...re-save byte-identically (same version-1 format: scheduler,
    // stats, values, learned fanout in the same list order)...
    EXPECT_EQ(sim.save_snapshot(), pre_refactor_blob())
        << "SoA re-save is not byte-identical to the pre-refactor blob";
    // ...and replay the continuation exactly as the old kernel did.
    sim.open_vcd("snap_pre_got.vcd");
    run_steps(sim, 13);
    got = Observed::of(sim, b);
  }
  got_vcd = tb::slurp_and_remove("snap_pre_got.vcd");
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_vcd, want_vcd)
      << "replay from the pre-refactor blob diverged from the "
         "uninterrupted run";
}

TEST(Snapshot, CorruptedPreRefactorBlobRejectsLoudlyNeverHalfRestores) {
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, 6);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 3);
  std::vector<std::uint8_t> bytes = pre_refactor_blob().bytes();
  bytes.resize(bytes.size() - 9);  // tear mid module-payload section
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "expected SnapshotError for a truncated blob";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  // Corruption detected after restoration began: the contract is a
  // reset to construction state, never a half-restore.  The simulator
  // must be immediately usable and deterministic.
  sim.reset();
  sim.reset_stats();
  run_steps(sim, 6);
  EXPECT_EQ(Observed::of(sim, top), want);
}

/// Minimal all-Word-signal design with one learned fanout arc, so a
/// test can compute the blob offset of the fanout section from the
/// documented layout and corrupt it surgically.
struct FanBlobTop : Module {
  Bus x{*this, "x", 16};
  Bus y{*this, "y", 16};
  struct Reader : Module {
    const Bus& in;
    Bus& out;
    Reader(Module* parent, const Bus& i, Bus& o)
        : Module(parent, "reader"), in(i), out(o) {}
    void eval_comb() override { out.write(in.read() + 7); }
    void declare_state() override { declare_comb_only(); }
  };
  Reader r{this, x, y};

  FanBlobTop() : Module(nullptr, "fantop") {}
  void on_clock() override { x.write(x.read() + 1); }
  void on_reset() override { x.write(0); }
  void declare_state() override { register_seq(x); }
};

TEST(Snapshot, DuplicateFanoutEntryInBlobRejectsLoudly) {
  // The old pointer-vector restore silently tolerated a duplicated
  // module id inside one signal's fanout list (it only bloated the
  // list); the CSR rebuild detects it via mod_mark_ and must refuse.
  FanBlobTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 3);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();

  // v1 layout up to the fanout section, for a single-domain design
  // whose signals are all Words: magic(4) version(1) flags(1)
  // topology-hash(8) tick(8) cycle(8) next_edge(8 per domain)
  // stats(12 u64) domain_edges(u32 count + 8 per domain)
  // values(u32 count + 8 per signal).
  ASSERT_EQ(sim.domain_count(), 1u);
  const std::size_t nsig = 2;  // x, y — reader declares no signals
  const std::size_t fan_at =
      4 + 1 + 1 + 8 + 8 + 8 + 8 * 1 + 12 * 8 + (4 + 8 * 1) + (4 + 8 * nsig);
  ASSERT_LT(fan_at + 8, bytes.size());
  auto rd_u32 = [&](std::size_t at) {
    return static_cast<std::uint32_t>(bytes[at]) |
           static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
           static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
           static_cast<std::uint32_t>(bytes[at + 3]) << 24;
  };
  // Sanity-pin the computed offset before corrupting anything: signal
  // x has exactly one learned reader, and its id addresses a module.
  ASSERT_EQ(rd_u32(fan_at), 1u) << "fanout-section offset drifted";
  const std::uint32_t reader_id = rd_u32(fan_at + 4);
  ASSERT_LT(reader_id, 3u);

  // Duplicate the entry: count 1 -> 2, id listed twice.
  bytes[fan_at] = 2;
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(fan_at + 4),
               {bytes[fan_at + 4], bytes[fan_at + 5], bytes[fan_at + 6],
                bytes[fan_at + 7]});
  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "expected SnapshotError for a duplicated fanout entry";
  } catch (const Error& e) {
    EXPECT_THAT(e.what(), HasSubstr("duplicate fanout module id"));
  }
  // Never half-restored: back to construction state and fully usable.
  sim.reset();
  run_steps(sim, 5);
  EXPECT_EQ(top.x.read(), 5u);
  EXPECT_EQ(top.y.read(), 12u);
}

// ---------------------------------------------------------------------
// Word-array codec
// ---------------------------------------------------------------------

TEST(StateCodec, WordArrayBytesArePinned) {
  const std::vector<std::vector<Word>> cases = {
      {0x0102030405060708ull, ~0ull, 0}, {}};
  for (const auto& v : cases) {
    SCOPED_TRACE("size=" + std::to_string(v.size()));
    rtl::StateWriter block;
    block.words(v);
    rtl::StateWriter each;
    each.u64(v.size());
    for (Word w : v) each.u64(w);
    const std::vector<std::uint8_t> bytes = std::move(block).take();
    EXPECT_EQ(bytes, std::move(each).take());
    EXPECT_EQ(bytes.size(), 8 * (v.size() + 1));

    rtl::StateReader r(bytes);
    std::vector<Word> back = {42, 43};  // decoding must resize
    r.words(back);
    EXPECT_EQ(back, v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(StateCodec, OverflowingWordCountThrowsSnapshotError) {
  // Count 2^61: count * 8 wraps to 0 in 64 bits, so a byte-size check
  // would pass and the resize would throw std::length_error instead.
  std::vector<std::uint8_t> bytes(16, 0);
  bytes[7] = 0x20;  // little-endian 2^61
  rtl::StateReader r(bytes);
  std::vector<Word> out;
  try {
    r.words(out);
    FAIL() << "expected SnapshotError for a word count of 2^61";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("word vector"));
    EXPECT_THAT(e.what(), HasSubstr("truncated"));
  }
  EXPECT_TRUE(out.empty());
}

TEST(Snapshot, OverflowingWordCountInPayloadResetsSimulator) {
  SnapTop ctrl;
  Simulator ref(ctrl, {});
  ref.reset();
  run_steps(ref, 6);
  const Observed want = Observed::of(ref, ctrl);

  SnapTop top;
  Simulator sim(top, {});
  sim.reset();
  run_steps(sim, 8);
  std::vector<std::uint8_t> bytes = sim.save_snapshot().bytes();

  // The FIFO is the last module, and its payload ends with its storage
  // as a word array: u64 count, then `depth` words.
  const std::size_t depth = 4;  // SnapTop's FIFO depth
  const std::size_t count_at = bytes.size() - 8 * depth - 8;
  std::uint64_t count = 0;
  for (int i = 0; i < 8; ++i)
    count |= static_cast<std::uint64_t>(bytes[count_at + i]) << (8 * i);
  ASSERT_EQ(count, depth) << "FIFO word-array offset drifted";
  for (int i = 0; i < 8; ++i) bytes[count_at + i] = 0;
  bytes[count_at + 7] = 0x20;  // 2^61

  try {
    sim.restore_snapshot(rtl::Snapshot(std::move(bytes)));
    FAIL() << "expected SnapshotError for a word count of 2^61";
  } catch (const SnapshotError& e) {
    EXPECT_THAT(e.what(), HasSubstr("word vector"));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
  // Left at construction state by the failed restore itself: no
  // reset() here.
  EXPECT_EQ(sim.cycle(), 0u);
  sim.reset_stats();
  run_steps(sim, 6);
  EXPECT_EQ(Observed::of(sim, top), want);
}

// ---------------------------------------------------------------------
// SRAM-bound saa2vga: two 2^16-word images through snapshot and reset
// ---------------------------------------------------------------------

std::vector<const devices::ExternalSram*> srams_of(const Module& top) {
  std::vector<const devices::ExternalSram*> out;
  top.visit([&](const Module& m) {
    if (const auto* s = dynamic_cast<const devices::ExternalSram*>(&m))
      out.push_back(s);
  });
  return out;
}

TEST(Snapshot, SramImagesSurviveRestoreAndResetClearsThem) {
  const designs::Saa2VgaConfig cfg{
      .width = 16, .height = 12, .device = designs::DeviceKind::Sram};
  int full_run = 0;  // steps to the end of the frame
  {
    auto d = designs::make_saa2vga_pattern(cfg);
    Simulator sim(*d, {});
    sim.reset();
    while (!d->finished() && full_run < 1'000'000) {
      sim.step();
      ++full_run;
    }
    ASSERT_TRUE(d->finished());
  }
  auto a = designs::make_saa2vga_pattern(cfg);
  const auto srams_a = srams_of(*a);
  ASSERT_EQ(srams_a.size(), 2u);
  Simulator sim_a(*a, {});
  sim_a.reset();
  run_steps(sim_a, full_run / 2);
  ASSERT_FALSE(a->finished());
  const bool written = std::any_of(
      srams_a.begin(), srams_a.end(), [](const devices::ExternalSram* s) {
        return s->resident_pages() != 0;
      });
  ASSERT_TRUE(written) << "no SRAM word written yet; the test is vacuous";
  const rtl::Snapshot blob = sim_a.save_snapshot();

  auto b = designs::make_saa2vga_pattern(cfg);
  const auto srams_b = srams_of(*b);
  ASSERT_EQ(srams_b.size(), 2u);
  Simulator sim_b(*b, {});
  sim_b.restore_snapshot(blob);
  for (std::size_t i = 0; i < srams_a.size(); ++i) {
    SCOPED_TRACE(srams_a[i]->full_name());
    EXPECT_EQ(srams_b[i]->image(), srams_a[i]->image());
  }
  EXPECT_EQ(sim_b.save_snapshot(), blob)
      << "save -> restore -> save must be bit-stable";

  sim_b.reset();
  for (const devices::ExternalSram* s : srams_b) {
    SCOPED_TRACE(s->full_name());
    const std::vector<Word> image = s->image();
    ASSERT_EQ(image.size(), std::size_t{1} << 16);
    EXPECT_TRUE(std::ranges::all_of(image, [](Word w) { return w == 0; }))
        << "reset() must reload the construction-time zeros";
    EXPECT_EQ(s->resident_pages(), 0u)
        << "reset() must free the pages the run allocated";
  }
}


// ---------------------------------------------------------------------
// Blob bytes pinned per design
// ---------------------------------------------------------------------

/// FNV-1a over a snapshot's bytes.
std::uint64_t blob_digest(const rtl::Snapshot& snap) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : snap.bytes()) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Snapshot of a video design after `steps` steps from reset.  The
/// step counts in the table below stop each design with one frame
/// collected and the next one in flight, so every stateful module
/// holds non-reset state.
rtl::Snapshot video_blob(designs::VideoDesign& d, int steps) {
  Simulator sim(d, {});
  sim.reset();
  run_steps(sim, steps);
  EXPECT_EQ(d.sink().frames().size(), 1u) << d.name();
  EXPECT_FALSE(d.finished()) << d.name();
  return sim.save_snapshot();
}

/// The container/iterator/algorithm models no video design uses: a
/// vector under a sequential and one under a random iterator, an
/// associative array, a width-adapted queue and a LIFO drained by a
/// reduction.
struct ModelTop : Module {
  core::RandomWires va_w{*this, "va", 8, 3};
  core::IterWires va_iw{*this, "va_it", 8, 8};
  core::VectorContainer va{
      this, "va",
      {.elem_bits = 8, .length = 8, .device = devices::DeviceKind::BlockRam},
      va_w.impl()};
  core::VectorSeqIterator va_it{
      this,
      "va_it",
      {.traversal = core::Traversal::Bidirectional,
       .role = core::IterRole::InputOutput},
      {.length = 8, .start_pos = 0},
      va_w.client(),
      va_iw.impl()};

  core::RandomWires vb_w{*this, "vb", 8, 3};
  core::IterWires vb_iw{*this, "vb_it", 8, 8};
  core::VectorContainer vb{
      this, "vb",
      {.elem_bits = 8, .length = 8, .device = devices::DeviceKind::BlockRam},
      vb_w.impl()};
  core::VectorRandomIterator vb_it{this,
                                   "vb_it",
                                   {.traversal = core::Traversal::Random,
                                    .role = core::IterRole::InputOutput},
                                   vb_w.client(),
                                   vb_iw.impl(),
                                   8};

  core::AssocWires aw{*this, "a", 8, 8};
  core::AssocArrayContainer assoc{
      this, "assoc", {.key_bits = 8, .val_bits = 8, .capacity = 16},
      aw.impl()};

  core::StreamWires q_w{*this, "q", 8, 16};
  core::IterWires wa_in{*this, "wa_in", 24, 16};
  core::IterWires wa_out{*this, "wa_out", 24, 16};
  std::unique_ptr<core::Container> queue;
  std::unique_ptr<core::Iterator> wa_it_out, wa_it_in;

  core::StreamWires st_w{*this, "st", 8, 16};
  core::IterWires st_iw{*this, "st_it", 8, 16};
  core::AlgoWires red_ctl{*this, "red"};
  Bus result{*this, "result", 16};
  core::CoreStreamContainer stack{this,
                                  "stack",
                                  {.kind = core::ContainerKind::Stack,
                                   .elem_bits = 8,
                                   .depth = 16},
                                  st_w.impl()};
  core::StreamInputIterator st_it{this,
                                  "st_it",
                                  {.traversal = core::Traversal::Backward,
                                   .role = core::IterRole::Input},
                                  core::ContainerKind::Stack,
                                  st_w.consumer(),
                                  st_iw.impl()};
  core::ReduceFsm reduce{this,
                         "reduce",
                         {.count = 6,
                          .in_advance = core::Op::Dec,
                          .op = core::ops_lib::sum(16)},
                         st_iw.client(),
                         result,
                         red_ctl.control()};
  tb::StreamFeeder feeder{this, "feeder", st_w.producer(),
                          {3, 1, 4, 1, 5, 9}};

  ModelTop() : Module(nullptr, "models") {
    meta::ContainerSpec cs;
    cs.name = "wq";
    cs.kind = core::ContainerKind::Queue;
    cs.device = devices::DeviceKind::FifoCore;
    cs.elem_bits = 24;
    cs.bus_bits = 8;
    cs.depth = 16;
    queue = meta::build_stream_container(
        this, cs, meta::StreamBuildPorts{.method = q_w.impl()});
    wa_it_out = meta::build_output_iterator(
        this,
        {.name = "wit",
         .traversal = core::Traversal::Forward,
         .role = core::IterRole::Output,
         .used_ops = {},
         .container = cs},
        q_w.producer(), wa_out.impl());
    wa_it_in = meta::build_input_iterator(
        this,
        {.name = "rit",
         .traversal = core::Traversal::Forward,
         .role = core::IterRole::Input,
         .used_ops = {},
         .container = cs},
        q_w.consumer(), wa_in.impl());
  }
};

/// One strobe on `bit` around a single step.
void strobe(Simulator& sim, Bit& bit) {
  bit.write(true);
  sim.step();
  bit.write(false);
}

/// Drives every model of ModelTop through a fixed script and leaves
/// the reduction, the width adapter and the associative array mid-way.
rtl::Snapshot model_blob() {
  ModelTop t;
  Simulator sim(t, {});
  sim.reset();
  const auto ready = [&](const Bit& b) {
    tb::step_until(sim, [&] { return b.read(); }, 1000);
  };
  // Sequential iterator: write two elements, then step back once.
  for (const Word v : {Word{0xA1}, Word{0xB2}}) {
    ready(t.va_iw.ready);
    t.va_iw.wdata.write(v);
    t.va_iw.inc.write(true);
    strobe(sim, t.va_iw.write);
    t.va_iw.inc.write(false);
  }
  ready(t.va_iw.ready);
  strobe(sim, t.va_iw.dec);
  // Random iterator: index 5, write there, index 3.
  ready(t.vb_iw.ready);
  t.vb_iw.index_pos.write(5);
  strobe(sim, t.vb_iw.index_op);
  ready(t.vb_iw.ready);
  t.vb_iw.wdata.write(0x55);
  strobe(sim, t.vb_iw.write);
  ready(t.vb_iw.ready);
  t.vb_iw.index_pos.write(3);
  strobe(sim, t.vb_iw.index_op);
  // Associative array: two colliding keys, then a lookup left running.
  for (const Word k : {Word{3}, Word{19}}) {
    ready(t.aw.ready);
    t.aw.key.write(k);
    t.aw.wdata.write(k * 2);
    strobe(sim, t.aw.op_insert);
    tb::step_until(sim, [&] { return t.aw.done.read(); }, 1000);
  }
  ready(t.aw.ready);
  t.aw.key.write(19);
  strobe(sim, t.aw.op_lookup);
  // Width adapter: two 24-bit pixels through the 8-bit queue, one of
  // them read back.
  for (const Word px : {Word{0xAABBCC}, Word{0x112233}}) {
    ready(t.wa_out.ready);
    t.wa_out.wdata.write(px);
    t.wa_out.inc.write(true);
    strobe(sim, t.wa_out.write);
    t.wa_out.inc.write(false);
  }
  ready(t.wa_in.rvalid);
  t.wa_in.inc.write(true);
  strobe(sim, t.wa_in.read);
  t.wa_in.inc.write(false);
  // Stack: fill it, then start the reduction and stop it half-way.
  tb::step_until(sim, [&] { return t.feeder.done(); }, 1000);
  strobe(sim, t.red_ctl.start);
  run_steps(sim, 4);
  EXPECT_FALSE(t.red_ctl.done.read());
  return sim.save_snapshot();
}

TEST(SnapshotFormat, BlobDigestsArePinnedPerDesign) {
  // Together these cover every module class with internal state.  The
  // digests were taken before the module state hooks were rewritten;
  // the blob format has not changed since, so neither may they.
  const designs::Saa2VgaConfig s{
      .width = 8, .height = 6, .buffer_depth = 16, .frames = 2};
  designs::Saa2VgaConfig s_sram = s;
  s_sram.device = designs::DeviceKind::Sram;
  const designs::BlurConfig b{
      .width = 8, .height = 6, .out_fifo_depth = 16, .frames = 2};
  const designs::Saa2VgaDualClkConfig dual{
      .width = 8, .height = 6, .cdc_depth = 4, .frames = 2};
  const designs::Saa2VgaTriClkConfig tri{
      .width = 8, .height = 6, .cdc_depth = 4, .frames = 2};
  struct Case {
    const char* name;
    std::function<rtl::Snapshot()> blob;
    std::uint64_t digest;
  };
  const auto video = [](auto make, int steps) {
    return [make, steps] {
      auto d = make();
      return video_blob(*d, steps);
    };
  };
  const std::vector<Case> cases = {
      {"saa2vga_fifo",
       video([&] { return designs::make_saa2vga_pattern(s); }, 70),
       0xc176f7fe18b67557ull},
      {"saa2vga_sram",
       video([&] { return designs::make_saa2vga_pattern(s_sram); }, 200),
       0x81da5434c98712cfull},
      {"saa2vga_custom_sram",
       video([&] { return designs::make_saa2vga_custom(s_sram); }, 350),
       0x47936d489d2b9e88ull},
      {"saa2vga_shared",
       video([&] { return designs::make_saa2vga_shared(s_sram); }, 420),
       0x5ecbedf30e3fddd4ull},
      {"saa2vga_dualclk",
       video([&] { return designs::make_saa2vga_dualclk(dual); }, 200),
       0xe1be5f7a1bf7a7d0ull},
      {"saa2vga_triclk",
       video([&] { return designs::make_saa2vga_triclk(tri); }, 250),
       0x35daa1bc55821852ull},
      {"blur_pattern",
       video([&] { return designs::make_blur_pattern(b); }, 70),
       0xce38276078839bd7ull},
      {"blur_custom",
       video([&] { return designs::make_blur_custom(b); }, 70),
       0x1251eb14ec1938bbull},
      {"models", model_blob, 0xcb505018e2292fdaull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const rtl::Snapshot snap = c.blob();
    EXPECT_EQ(blob_digest(snap), c.digest)
        << std::hex << "0x" << blob_digest(snap) << " (" << std::dec
        << snap.size_bytes() << " bytes)";
  }
}


// ---------------------------------------------------------------------
// Corrupted module payloads
// ---------------------------------------------------------------------

/// Where one module's payload sits inside a blob.
struct Payload {
  Module* module;
  std::size_t at;   ///< offset of the first payload byte
  std::size_t len;  ///< payload bytes (the u32 length sits just before)
};

/// Every module's payload in `blob`, in elaboration order.  The module
/// section closes the blob, so walking back from its end with each
/// module's own re-encoded payload length finds every frame; the design
/// must be in the state the blob was saved from.
std::vector<Payload> module_payloads(Module& top,
                                     const std::vector<std::uint8_t>& blob) {
  std::vector<Module*> mods;
  top.visit([&](Module& m) { mods.push_back(&m); });
  std::vector<Payload> out(mods.size());
  std::size_t end = blob.size();
  for (std::size_t i = mods.size(); i-- > 0;) {
    rtl::StateWriter w;
    rtl::StateIO io(w);
    mods[i]->visit_state(io);
    const std::size_t len = w.size();
    const std::size_t at = end - len;
    std::uint32_t framed = 0;
    for (int k = 0; k < 4; ++k)
      framed |= static_cast<std::uint32_t>(blob[at - 4 + k]) << (8 * k);
    EXPECT_EQ(framed, len) << "payload walk drifted at "
                           << mods[i]->full_name();
    out[i] = {mods[i], at, len};
    end = at - 4;
  }
  return out;
}

/// `blob` with `p`'s payload replaced by `bytes` and its length frame
/// rewritten to match.
rtl::Snapshot with_payload(const std::vector<std::uint8_t>& blob,
                           const Payload& p,
                           const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> out(blob.begin(), blob.begin() + (p.at - 4));
  for (int k = 0; k < 4; ++k)
    out.push_back(static_cast<std::uint8_t>(bytes.size() >> (8 * k)));
  out.insert(out.end(), bytes.begin(), bytes.end());
  out.insert(out.end(), blob.begin() + (p.at + p.len), blob.end());
  return rtl::Snapshot(std::move(out));
}

/// The payload of the first module of type `M` in `pays`.
template <typename M>
Payload payload_of(const std::vector<Payload>& pays) {
  for (const Payload& p : pays)
    if (dynamic_cast<M*>(p.module) != nullptr) return p;
  ADD_FAILURE() << "no such module";
  return pays.front();
}

/// After a failed restore the simulator sits at construction state and
/// runs `d` to the same frames as a fresh instance built by `make`.
void expect_reset_and_deterministic(
    Simulator& sim, designs::VideoDesign& d,
    const std::function<std::unique_ptr<designs::VideoDesign>()>& make) {
  EXPECT_EQ(sim.cycle(), 0u);
  auto ref = make();
  Simulator ref_sim(*ref, {});
  ref_sim.reset();
  int steps = 0;
  while (!ref->finished() && steps < 100'000) {
    ref_sim.step();
    ++steps;
  }
  ASSERT_TRUE(ref->finished());
  run_steps(sim, steps);
  EXPECT_TRUE(d.finished());
  EXPECT_EQ(d.sink().frames(), ref->sink().frames());
}

/// Restoring `snap` must throw SnapshotError mentioning every string in
/// `want`, and reset the simulator.
void expect_restore_rejects(Simulator& sim, const rtl::Snapshot& snap,
                            const std::vector<std::string>& want) {
  try {
    sim.restore_snapshot(snap);
    ADD_FAILURE() << "restore accepted a corrupted payload";
  } catch (const SnapshotError& e) {
    for (const std::string& w : want) EXPECT_THAT(e.what(), HasSubstr(w));
    EXPECT_THAT(e.what(), HasSubstr("reset to construction state"));
  }
}

TEST(Snapshot, FifoDepthMismatchIsRejected) {
  // Depths 48 and 64 elaborate to the same topology hash: only the
  // FIFO storage size tells the blobs apart, and a 48-word ring
  // restored under a depth-64 FIFO would be written past its end.
  designs::Saa2VgaConfig cfg{.width = 8, .height = 6, .buffer_depth = 48};
  auto small = designs::make_saa2vga_pattern(cfg);
  Simulator small_sim(*small, {});
  small_sim.reset();
  run_steps(small_sim, 30);
  const rtl::Snapshot blob = small_sim.save_snapshot();

  cfg.buffer_depth = 64;
  const auto make = [cfg] { return designs::make_saa2vga_pattern(cfg); };
  auto big = make();
  Simulator sim(*big, {});
  ASSERT_EQ(sim.topology_hash(), small_sim.topology_hash());
  sim.reset();
  run_steps(sim, 10);
  const Payload fifo = payload_of<devices::FifoCore>(
      module_payloads(*small, blob.bytes()));
  expect_restore_rejects(
      sim, blob,
      {"module '" + fifo.module->full_name() + "'",
       "word vector of 48 word(s) in the blob, 64 in the design"});
  expect_reset_and_deterministic(sim, *big, make);
}

TEST(Snapshot, ArbiterGrantCountMismatchIsRejected) {
  const designs::Saa2VgaConfig cfg{
      .width = 8, .height = 6, .device = designs::DeviceKind::Sram};
  const auto make = [cfg] { return designs::make_saa2vga_shared(cfg); };
  auto d = make();
  Simulator sim(*d, {});
  sim.reset();
  run_steps(sim, 40);
  const std::vector<std::uint8_t> blob = sim.save_snapshot().bytes();
  const Payload arb =
      payload_of<devices::SramArbiter>(module_payloads(*d, blob));
  // grant i64 | rr_next i64 | count u32 | one u64 per master.
  ASSERT_EQ(arb.len, 8 + 8 + 4 + 8 * 2u);
  for (const std::uint32_t count : {0u, 1u, 3u}) {
    SCOPED_TRACE(count);
    rtl::StateWriter w;
    w.i64(-1);
    w.i64(0);
    w.u32(count);
    for (std::uint32_t i = 0; i < count; ++i) w.u64(i);
    expect_restore_rejects(
        sim, with_payload(blob, arb, std::move(w).take()),
        {"grant counter count mismatch (blob has " + std::to_string(count) +
             ", design has 2)",
         arb.module->full_name()});
  }
  expect_reset_and_deterministic(sim, *d, make);
}

TEST(Snapshot, MalformedSinkFramesAreRejected) {
  const designs::Saa2VgaConfig cfg{.width = 8, .height = 6};
  const auto make = [cfg] { return designs::make_saa2vga_pattern(cfg); };
  auto d = make();
  Simulator sim(*d, {});
  sim.reset();
  run_steps(sim, 20);
  const std::vector<std::uint8_t> blob = sim.save_snapshot().bytes();
  const Payload sink =
      payload_of<video::VgaSink>(module_payloads(*d, blob));
  // A sink payload with no collected frames and `current` as given.
  const auto sink_payload = [](std::uint32_t frames, std::int64_t w,
                               std::int64_t h, std::int64_t ch,
                               std::uint64_t words, std::uint64_t pix = 0) {
    rtl::StateWriter out;
    out.u32(frames);
    out.i64(w);
    out.i64(h);
    out.i64(ch);
    out.u64(words);
    for (int i = 0; i < 48; ++i) out.u64(0);  // `words` claims these
    out.u64(pix);    // pix_idx
    out.i64(0);      // wait
    out.u8(0);       // streaming
    out.u64(0);      // received
    return std::move(out).take();
  };
  struct Case {
    const char* name;
    std::vector<std::uint8_t> payload;
    std::string want;
  };
  const std::vector<Case> cases = {
      {"negative width", sink_payload(0, -1, 6, 1, 48),
       "invalid frame dims -1x6x1"},
      {"zero height", sink_payload(0, 8, 0, 1, 0), "invalid frame dims 8x0x1"},
      {"two channels", sink_payload(0, 8, 6, 2, 48),
       "invalid frame dims 8x6x2"},
      {"int overflow", sink_payload(0, std::int64_t{1} << 40, 6, 1, 48),
       "int field holds"},
      {"4x4 frame without pixels", sink_payload(0, 4, 4, 1, 0),
       "a 4x4x1 frame with 0 pixel word(s)"},
      {"frame larger than the payload",
       sink_payload(0, 1 << 30, 1 << 30, 3, std::uint64_t{1} << 60),
       "overruns the payload"},
      {"frame count larger than the payload",
       sink_payload(0xFFFFFFFFu, 8, 6, 1, 48), "cannot fit the payload"},
      {"pixel index past the frame", sink_payload(0, 8, 6, 1, 48, 48),
       "pixel index 48 is past the frame"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    expect_restore_rejects(sim, with_payload(blob, sink, c.payload),
                           {c.want, sink.module->full_name()});
  }
  // The well-formed original still restores.
  sim.restore_snapshot(rtl::Snapshot(blob));
  EXPECT_EQ(sim.save_snapshot().bytes(), blob);
  sim.reset();
  expect_reset_and_deterministic(sim, *d, make);
}

TEST(Snapshot, FlippedPayloadBytesRestoreOrThrowSnapshotError) {
  // Flip each of the first 64 bytes of every module payload in turn:
  // the restore may accept the bytes (not every field value is
  // checkable) but may fail only with SnapshotError.
  const designs::Saa2VgaConfig cfg{
      .width = 8, .height = 6, .device = designs::DeviceKind::Sram};
  auto d = designs::make_saa2vga_shared(cfg);
  Simulator sim(*d, {});
  sim.reset();
  run_steps(sim, 420);
  const std::vector<std::uint8_t> blob = sim.save_snapshot().bytes();
  int rejected = 0, accepted = 0;
  for (const Payload& p : module_payloads(*d, blob)) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p.len, 64); ++i) {
      std::vector<std::uint8_t> bad = blob;
      bad[p.at + i] ^= 0xFF;
      try {
        sim.restore_snapshot(rtl::Snapshot(std::move(bad)));
        ++accepted;
      } catch (const SnapshotError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << p.module->full_name() << " byte " << i << ": "
                      << e.what();
      }
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}


// ---------------------------------------------------------------------
// Out-of-range index and enum fields
// ---------------------------------------------------------------------

/// Every module's visit_state bytes, in elaboration order.
std::vector<std::uint8_t> module_states(Module& top) {
  rtl::StateWriter w;
  rtl::StateIO io(w);
  top.visit([&](Module& m) { m.visit_state(io); });
  return std::move(w).take();
}

/// `bytes` with the `width`-byte little-endian field at `at` set to `v`.
std::vector<std::uint8_t> with_field(std::vector<std::uint8_t> bytes,
                                     std::size_t at, int width,
                                     std::int64_t v) {
  for (int k = 0; k < width; ++k)
    bytes[at + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(v) >> (8 * k));
  return bytes;
}

TEST(Snapshot, OutOfRangeIndexAndEnumFieldsAreRejected) {
  const designs::Saa2VgaConfig fifo{
      .width = 8, .height = 6, .buffer_depth = 16};
  designs::Saa2VgaConfig sram = fifo;
  sram.device = designs::DeviceKind::Sram;
  const designs::BlurConfig blur{.width = 8, .height = 6};
  using Make = std::function<std::unique_ptr<Module>()>;
  const Make saa2vga = [fifo] { return designs::make_saa2vga_pattern(fifo); };
  const Make saa2vga_sram = [sram] {
    return designs::make_saa2vga_pattern(sram);
  };
  const Make custom_sram = [sram] {
    return designs::make_saa2vga_custom(sram);
  };
  const Make shared = [sram] { return designs::make_saa2vga_shared(sram); };
  const Make blur_pattern = [blur] {
    return designs::make_blur_pattern(blur);
  };
  const Make models = [] { return std::make_unique<ModelTop>(); };
  using Find = std::function<Payload(const std::vector<Payload>&)>;
  struct Case {
    const char* name;
    Make make;
    int steps;  ///< from reset to the valid blob
    Find find;
    /// Offset of the field in the payload; negative counts from its end.
    std::ptrdiff_t at;
    int width;  ///< 8 for an i64/u64 field, 4 for an enum's u32
    std::int64_t value;
    std::string want;
  };
  const std::vector<Case> cases = {
      {"FifoCore head", saa2vga, 40, payload_of<devices::FifoCore>, 0, 8, 16,
       "head index holds 16, outside [0, 15]"},
      {"FifoCore count", saa2vga, 40, payload_of<devices::FifoCore>, 8, 8, 17,
       "element count holds 17, outside [0, 16]"},
      {"LifoCore count", models, 0, payload_of<devices::LifoCore>, 0, 8, 17,
       "stack pointer holds 17, outside [0, 16]"},
      {"VideoSource frame", saa2vga, 40, payload_of<video::VideoSource>, 0, 8,
       2, "frame index holds 2, outside [0, 1]"},
      {"VideoSource pixel", saa2vga, 40, payload_of<video::VideoSource>, 8, 8,
       48, "pixel index holds 48, outside [0, 47]"},
      {"LineBuffer3 queue head", blur_pattern, 40,
       payload_of<devices::LineBuffer3>, -32, 8, 4,
       "column queue head holds 4, outside [0, 3]"},
      {"LineBuffer3 queue count", blur_pattern, 40,
       payload_of<devices::LineBuffer3>, -24, 8, -1,
       "column queue count holds -1, outside [0, 4]"},
      {"LineBuffer3 write column", blur_pattern, 40,
       payload_of<devices::LineBuffer3>, -16, 8, 8,
       "write column holds 8, outside [0, 7]"},
      {"SramStreamContainer state", saa2vga_sram, 60,
       payload_of<core::SramStreamContainer>, 0, 4, 3,
       "state holds 3, outside [0, 2]"},
      {"SramStreamContainer head", saa2vga_sram, 60,
       payload_of<core::SramStreamContainer>, 4, 8, -1,
       "head index holds -1, outside [0, "},
      {"SramStreamContainer tail", saa2vga_sram, 60,
       payload_of<core::SramStreamContainer>, 12, 8, std::int64_t{1} << 20,
       "tail index holds 1048576, outside [0, "},
      {"SramStreamContainer count", saa2vga_sram, 60,
       payload_of<core::SramStreamContainer>, 20, 8, -1,
       "element count holds -1, outside [0, "},
      {"ExternalSram state", saa2vga_sram, 60,
       payload_of<devices::ExternalSram>, 0, 4, 3,
       "state holds 3, outside [0, 2]"},
      {"AssocArrayContainer state", models, 0,
       payload_of<core::AssocArrayContainer>, 0, 4, 5,
       "state holds 5, outside [0, 4]"},
      {"AssocArrayContainer operation", models, 0,
       payload_of<core::AssocArrayContainer>, 4, 4, 3,
       "operation holds 3, outside [0, 2]"},
      {"VectorContainer state", models, 0, payload_of<core::VectorContainer>,
       0, 4, 4, "state holds 4, outside [0, 3]"},
      {"Saa2VgaCustomSram state", custom_sram, 60,
       payload_of<designs::Saa2VgaCustomSram>, 0, 4, 3,
       "state holds 3, outside [0, 2]"},
      {"SramArbiter grant", shared, 40, payload_of<devices::SramArbiter>, 0,
       8, 2, "grant holds 2, outside [-1, 1]"},
      {"SramArbiter round-robin", shared, 40,
       payload_of<devices::SramArbiter>, 8, 8, -1,
       "round-robin pointer holds -1, outside [0, 1]"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto top = c.make();
    Simulator sim(*top, {});
    sim.reset();
    run_steps(sim, c.steps);
    const std::vector<std::uint8_t> blob = sim.save_snapshot().bytes();
    const Payload p = c.find(module_payloads(*top, blob));
    const std::size_t at =
        p.at + static_cast<std::size_t>(
                   c.at >= 0 ? c.at
                             : static_cast<std::ptrdiff_t>(p.len) + c.at);
    expect_restore_rejects(
        sim, rtl::Snapshot(with_field(blob, at, c.width, c.value)),
        {c.want, "module '" + p.module->full_name() + "'"});
    // reset() recovers: module state matches a fresh instance, before
    // and after both run on.
    auto fresh = c.make();
    Simulator fresh_sim(*fresh, {});
    fresh_sim.reset();
    EXPECT_EQ(module_states(*top), module_states(*fresh));
    sim.reset();
    run_steps(sim, 100);
    run_steps(fresh_sim, 100);
    EXPECT_EQ(module_states(*top), module_states(*fresh));
    // The uncorrupted blob still restores.
    sim.restore_snapshot(rtl::Snapshot(blob));
    EXPECT_EQ(sim.save_snapshot().bytes(), blob);
  }
}

// ---------------------------------------------------------------------
// Construction baseline: present SRAM pages only, preloads kept
// ---------------------------------------------------------------------

std::vector<std::uint8_t> encode(rtl::StateIO::Encoding enc, auto& field) {
  rtl::StateWriter w;
  rtl::StateIO io(w, enc);
  io(field);
  return std::move(w).take();
}

TEST(StateCodec, PagedImageBaselineListsPresentPagesOnly) {
  using rtl::StateIO;
  constexpr std::size_t kPage = rtl::PagedWords::kPageWords;
  rtl::PagedWords img(3 * kPage);
  img.set(5, 7);              // page 0
  img.set(2 * kPage + 1, 9);  // page 2
  const std::vector<Word> flat = img.image();
  // The blob is the std::vector<Word> encoding of the flat image.
  rtl::StateWriter full;
  full.words(flat);
  EXPECT_EQ(encode(StateIO::Encoding::Blob, img), std::move(full).take());
  // The baseline lists pages 0 and 2: a u32 count, then per page a u32
  // index and its words.
  const std::vector<std::uint8_t> base =
      encode(StateIO::Encoding::Baseline, img);
  ASSERT_EQ(base.size(), 4 + 2 * (4 + kPage * sizeof(Word)));
  EXPECT_EQ(base[0], 2);
  EXPECT_EQ(base[4], 0);
  EXPECT_EQ(base[4 + 4 + kPage * sizeof(Word)], 2);
  // Reloading drops the page a run allocated and rewrites the others.
  img.set(kPage, 3);
  img.set(5, 0);
  img.set(2 * kPage + 2, 1);
  {
    rtl::StateReader r(base);
    StateIO in(r, StateIO::Encoding::Baseline);
    in(img);
    EXPECT_EQ(r.remaining(), 0u);
  }
  EXPECT_EQ(img.image(), flat);
  EXPECT_EQ(img.resident_pages(), 2u);
  // An idle image is four bytes, and reloading it frees every page.
  rtl::PagedWords idle(3 * kPage);
  const std::vector<std::uint8_t> idle_base =
      encode(StateIO::Encoding::Baseline, idle);
  EXPECT_EQ(idle_base, std::vector<std::uint8_t>(4, 0));
  {
    rtl::StateReader r(idle_base);
    StateIO in(r, StateIO::Encoding::Baseline);
    in(img);
  }
  EXPECT_EQ(img.resident_pages(), 0u);
  // A page list out of order is rejected.
  std::vector<std::uint8_t> bad = base;
  bad[4] = 2;
  rtl::StateReader r(bad);
  StateIO in(r, StateIO::Encoding::Baseline);
  EXPECT_THROW(in(img), SnapshotError);
  // Plain word arrays are encoded the same in both encodings.
  std::vector<Word> fifo{0, 0, 7};
  EXPECT_EQ(encode(StateIO::Encoding::Baseline, fifo),
            encode(StateIO::Encoding::Blob, fifo));
}

TEST(Snapshot, ResetAfterSramWritesEqualsFreshReset) {
  // reset() reloads the SRAM images from the baseline and forgets the
  // sensitivity the run learned: after reset_stats() + reset() the
  // whole blob must be the one a fresh simulator saves after its
  // reset(), and both must do the same work from there on.
  const designs::Saa2VgaConfig cfg{
      .width = 16, .height = 12, .device = designs::DeviceKind::Sram};
  auto fresh = designs::make_saa2vga_pattern(cfg);
  Simulator fresh_sim(*fresh, {});
  fresh_sim.reset();

  auto d = designs::make_saa2vga_pattern(cfg);
  const auto srams = srams_of(*d);
  Simulator sim(*d, {});
  sim.reset();
  run_steps(sim, 400);
  const bool written = std::ranges::any_of(
      srams, [](const devices::ExternalSram* s) {
        return std::ranges::any_of(s->image(),
                                   [](Word w) { return w != 0; });
      });
  ASSERT_TRUE(written) << "no SRAM word written yet; the test is vacuous";
  sim.reset_stats();
  sim.reset();
  EXPECT_EQ(sim.save_snapshot().bytes(), fresh_sim.save_snapshot().bytes());

  run_steps(sim, 200);
  run_steps(fresh_sim, 200);
  const auto counters = [](const Simulator::Stats& st) {
    return std::vector<std::uint64_t>{
        st.steps,     st.settles,   st.deltas,           st.evals,
        st.commits,   st.commit_changes,  st.seq_touches, st.seq_skips,
        st.edges,     st.act_skips, st.partition_settles,
        st.partition_skips};
  };
  EXPECT_EQ(counters(sim.stats()), counters(fresh_sim.stats()));
  EXPECT_EQ(sim.stats().domain_edges, fresh_sim.stats().domain_edges);
  EXPECT_EQ(sim.save_snapshot().bytes(), fresh_sim.save_snapshot().bytes());
}

/// One BlockRam the testbench drives directly through its ports.
struct BramTop : Module {
  Bit a_en{*this, "a_en"};
  Bit a_we{*this, "a_we"};
  Bus a_addr{*this, "a_addr", 4};
  Bus a_wdata{*this, "a_wdata", 8};
  Bus a_rdata{*this, "a_rdata", 8};
  Bit b_en{*this, "b_en"};
  Bus b_addr{*this, "b_addr", 4};
  Bus b_rdata{*this, "b_rdata", 8};
  devices::BlockRam ram{this,
                        "ram",
                        {.data_width = 8, .depth = 16},
                        {a_en, a_we, a_addr, a_wdata, a_rdata, b_en, b_addr,
                         b_rdata}};
  BramTop() : Module(nullptr, "bramtop") {}
};

TEST(Snapshot, PreloadBeforeConstructionSurvivesRunAndReset) {
  // A preload made before the simulator exists is part of the
  // construction state: a run may overwrite it, reset() brings it back.
  {
    BramTop t;
    t.ram.preload(2, {0x11, 0x22, 0x33});
    const std::vector<Word> image = t.ram.mem();
    Simulator sim(t, {});
    sim.reset();
    EXPECT_EQ(t.ram.mem(), image);
    t.a_en.write(true);
    t.a_we.write(true);
    t.a_addr.write(3);
    t.a_wdata.write(0x99);
    sim.step();
    t.a_we.write(false);
    sim.step();
    ASSERT_EQ(t.ram.mem()[3], 0x99u);
    sim.reset();
    EXPECT_EQ(t.ram.mem(), image);
  }
  {
    const designs::Saa2VgaConfig cfg{
        .width = 16, .height = 12, .device = designs::DeviceKind::Sram};
    auto d = designs::make_saa2vga_pattern(cfg);
    const auto srams = srams_of(*d);
    ASSERT_EQ(srams.size(), 2u);
    d->visit([](Module& m) {
      if (auto* s = dynamic_cast<devices::ExternalSram*>(&m)) {
        // The buffers start at 0x0000 and 0x8000; 0xFFF0 is in neither.
        s->preload(0x0000, {0xA5, 0x5A});
        s->preload(0x8000, {0xA5, 0x5A});
        s->preload(0xFFF0, {1, 2, 3});
      }
    });
    std::vector<std::vector<Word>> images;
    for (const devices::ExternalSram* s : srams) images.push_back(s->image());
    Simulator sim(*d, {});
    sim.reset();
    int steps = 0;
    while (!d->finished() && steps < 1'000'000) {
      sim.step();
      ++steps;
    }
    ASSERT_TRUE(d->finished());
    for (std::size_t i = 0; i < srams.size(); ++i) {
      SCOPED_TRACE(srams[i]->full_name());
      EXPECT_NE(srams[i]->image(), images[i]) << "the run wrote no SRAM word";
      EXPECT_EQ(srams[i]->word(0xFFF1), 2u);
    }
    sim.reset();
    for (std::size_t i = 0; i < srams.size(); ++i) {
      SCOPED_TRACE(srams[i]->full_name());
      EXPECT_EQ(srams[i]->image(), images[i]);
    }
  }
}

}  // namespace
}  // namespace hwpat
