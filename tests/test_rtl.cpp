// Unit tests of the RTL simulation kernel: two-phase signal semantics,
// delta-cycle settling, clocking, reset, hierarchy, VCD output and
// failure modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "rtl/simulator.hpp"
#include "rtl/vcd.hpp"
#include "tb_util.hpp"

namespace hwpat::rtl {
namespace {

/// A registered counter with combinational "is-max" flag.
class Counter : public Module {
 public:
  Counter(Module* parent, std::string name, int width, Word max)
      : Module(parent, std::move(name)),
        max_(max),
        value(*this, "value", width),
        at_max(*this, "at_max") {}

  void eval_comb() override { at_max.write(value.read() == max_); }
  void on_clock() override {
    value.write(value.read() == max_ ? 0 : value.read() + 1);
  }

  Word max_;
  Bus value;
  Bit at_max;
};

/// A 3-stage combinational chain: c = b+1, b = a+1.
class CombChain : public Module {
 public:
  CombChain(Module* parent)
      : Module(parent, "chain"),
        a(*this, "a", 8),
        b(*this, "b", 8),
        c(*this, "c", 8) {}

  void eval_comb() override {
    b.write(a.read() + 1);
    c.write(b.read() + 1);
  }

  Bus a, b, c;
};

/// Intentional combinational feedback: x = x + 1.
class CombLoop : public Module {
 public:
  explicit CombLoop(Module* parent)
      : Module(parent, "loop"), x(*this, "x", 8) {}
  void eval_comb() override { x.write(x.read() + 1); }
  Bus x;
};

TEST(Signal, TwoPhaseWriteIsInvisibleUntilCommit) {
  Module top(nullptr, "top");
  Bus s(top, "s", 8, 5);
  EXPECT_EQ(s.read(), 5u);
  s.write(9);
  EXPECT_EQ(s.read(), 5u);  // not yet committed
  EXPECT_TRUE(s.commit());
  EXPECT_EQ(s.read(), 9u);
  EXPECT_FALSE(s.commit());  // unchanged
}

TEST(Signal, BusTruncatesToWidth) {
  Module top(nullptr, "top");
  Bus s(top, "s", 4);
  s.write(0xFF);
  s.commit();
  EXPECT_EQ(s.read(), 0xFu);
}

TEST(Signal, ResetValueRestoresInit) {
  Module top(nullptr, "top");
  Bus s(top, "s", 8, 42);
  s.write(7);
  s.commit();
  s.reset_value();
  EXPECT_EQ(s.read(), 42u);
}

TEST(Signal, FullNameIsHierarchical) {
  Module top(nullptr, "top");
  Module sub(&top, "sub");
  Bit b(sub, "flag");
  EXPECT_EQ(b.full_name(), "top.sub.flag");
}

TEST(Module, HierarchyAndVisit) {
  Module top(nullptr, "top");
  Module a(&top, "a");
  Module b(&top, "b");
  Module aa(&a, "aa");
  EXPECT_EQ(aa.full_name(), "top.a.aa");
  int count = 0;
  top.visit([&](Module&) { ++count; });
  EXPECT_EQ(count, 4);
  EXPECT_EQ(top.children().size(), 2u);
}

TEST(Simulator, CounterCounts) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  EXPECT_EQ(top.value.read(), 0u);
  sim.step(5);
  EXPECT_EQ(top.value.read(), 5u);
  EXPECT_EQ(sim.cycle(), 5u);
}

TEST(Simulator, CounterWrapsAtMax) {
  Counter top(nullptr, "cnt", 4, 3);
  Simulator sim(top);
  sim.reset();
  sim.step(3);
  EXPECT_TRUE(top.at_max.read());
  sim.step();
  EXPECT_EQ(top.value.read(), 0u);
}

TEST(Simulator, CombChainSettlesAcrossDeltas) {
  CombChain top(nullptr);
  Simulator sim(top);
  sim.reset();
  top.a.write(10);
  sim.settle();
  EXPECT_EQ(top.b.read(), 11u);
  EXPECT_EQ(top.c.read(), 12u);
}

TEST(Simulator, CombLoopRaises) {
  CombLoop top(nullptr);
  Simulator sim(top);
  EXPECT_THROW(sim.settle(), CombLoopError);
}

TEST(Simulator, DeltaLimitIsConfigurable) {
  CombLoop top(nullptr);
  Simulator sim(top, {.delta_limit = 7});
  try {
    sim.settle();
    FAIL() << "expected CombLoopError";
  } catch (const CombLoopError& e) {
    EXPECT_NE(std::string(e.what()).find("7"), std::string::npos);
  }
}

TEST(Simulator, ResetRestoresState) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  sim.step(42);
  sim.reset();
  EXPECT_EQ(top.value.read(), 0u);
  EXPECT_EQ(sim.cycle(), 0u);
}

TEST(Simulator, RunStopsOnCondition) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  const RunStatus st =
      sim.run([&] { return top.value.read() == 17; }, 1000);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.steps, 17u);
}

TEST(Simulator, RunReportsTimeoutAsValue) {
  Counter top(nullptr, "cnt", 8, 255);
  Simulator sim(top);
  sim.reset();
  const RunStatus st = sim.run([] { return false; }, 10);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.result, RunResult::Timeout);
  EXPECT_EQ(st.steps, 10u);
  // The diagnostic string names the stall point.
  EXPECT_NE(sim.progress_report().find("cycle 10"), std::string::npos);
}

TEST(Vcd, ProducesHeaderAndChanges) {
  const std::string path = "test_rtl_wave.vcd";
  {
    Counter top(nullptr, "cnt", 8, 255);
    Simulator sim(top);
    sim.open_vcd(path);
    sim.reset();
    sim.step(3);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("$scope module cnt"), std::string::npos);
  EXPECT_NE(all.find("$var wire 8"), std::string::npos);
  EXPECT_NE(all.find("#3"), std::string::npos);
  std::remove(path.c_str());
}

/// Buses of every width class the VCD formatter treats differently
/// (one bit, a partial leading byte, whole bytes, a full Word), with
/// enough signals that identifiers run to two characters.  Each clock
/// loads bus i from kPatterns, holding some buses for several cycles so
/// samples carry both changed and unchanged signals.
class WidthZoo : public Module {
 public:
  static constexpr int kWidths[] = {1, 2, 7, 8, 9, 31, 63, 64};
  static constexpr Word kPatterns[] = {0,
                                       ~Word{0},
                                       0xAAAAAAAAAAAAAAAAull,
                                       0x5555555555555555ull,
                                       0x0123456789ABCDEFull,
                                       1};

  explicit WidthZoo(int copies) : Module(nullptr, "zoo") {
    for (int c = 0; c < copies; ++c)
      for (const int w : kWidths) {
        std::string name(1, 'b');
        name += std::to_string(buses.size());
        buses.push_back(std::make_unique<Bus>(*this, name, w));
      }
  }

  void on_reset() override { phase_ = 0; }
  void on_clock() override {
    ++phase_;
    for (std::size_t i = 0; i < buses.size(); ++i)
      buses[i]->write(
          kPatterns[(phase_ / (1 + i % 3) + i) % std::size(kPatterns)]);
  }

  std::vector<std::unique_ptr<Bus>> buses;

 private:
  std::size_t phase_ = 0;
};

/// What every VCD sample saw: the simulator tick and each bus's value.
struct ZooTrace {
  std::vector<std::uint64_t> ticks;
  std::vector<std::vector<Word>> values;

  void record(const WidthZoo& z, const Simulator& sim) {
    ticks.push_back(sim.now());
    std::vector<Word>& v = values.emplace_back();
    for (const auto& b : z.buses) v.push_back(b->read());
  }
};

/// Reference VCD value-change section for samples [from, end) of `t`,
/// spelled bit by bit straight from the format: the first sample dumps
/// every signal, later ones only those that changed, each sample with
/// changes opening with `#<tick * mult>`.
std::string naive_vcd_changes(const WidthZoo& z, const ZooTrace& t,
                              std::size_t from, std::uint64_t mult) {
  std::string out;
  for (std::size_t k = from; k < t.ticks.size(); ++k) {
    bool stamped = false;
    for (std::size_t i = 0; i < z.buses.size(); ++i) {
      const Word v = t.values[k][i];
      if (k != from && v == t.values[k - 1][i]) continue;
      if (!stamped) {
        out += '#';
        out += std::to_string(t.ticks[k] * mult);
        out += '\n';
        stamped = true;
      }
      std::string id;
      std::size_t n = i;
      do {
        id += static_cast<char>('!' + n % 94);
        n /= 94;
      } while (n != 0);
      const int w = z.buses[i]->width();
      if (w == 1) {
        out += std::string(v & 1 ? "1" : "0") + id + "\n";
        continue;
      }
      out += "b";
      for (int b = w - 1; b >= 0; --b) out += (v >> b) & 1 ? '1' : '0';
      out += " " + id + "\n";
    }
  }
  return out;
}

/// The part of a VCD file after its header.
std::string vcd_changes(const std::string& vcd) {
  const std::string end = "$enddefinitions $end\n";
  const std::size_t at = vcd.find(end);
  EXPECT_NE(at, std::string::npos);
  return at == std::string::npos ? std::string() : vcd.substr(at + end.size());
}

/// Runs a WidthZoo for `steps` clocks with a VCD open from reset on,
/// recording every sample into `trace`.  Returns the VCD text.
std::string run_zoo(WidthZoo& z, bool full_sweep, int steps,
                    ZooTrace* trace) {
  const std::string path = tb::scratch_path(
      full_sweep ? "zoo_full_sweep.vcd" : "zoo_event.vcd");
  {
    Simulator sim(z, {.full_sweep = full_sweep, .tick_ps = 40'000});
    sim.open_vcd(path);
    sim.reset();
    trace->record(z, sim);
    for (int i = 0; i < steps; ++i) {
      sim.step();
      trace->record(z, sim);
    }
  }
  return tb::slurp_and_remove(path);
}

// Every other VCD byte-identity gate compares two runs of the same
// writer; this one checks its output against the format itself.
TEST(Vcd, MatchesIndependentReferenceFormatter) {
  for (const bool full_sweep : {false, true}) {
    WidthZoo z(13);
    ASSERT_GT(z.buses.size(), 94u);  // two-character identifiers
    ZooTrace t;
    const std::string vcd = run_zoo(z, full_sweep, 40, &t);
    // tick_ps = 40'000 is `$timescale 10ns` with timestamps times 4.
    EXPECT_NE(vcd.find("$timescale 10ns $end\n"), std::string::npos);
    EXPECT_EQ(vcd_changes(vcd), naive_vcd_changes(z, t, 0, 4))
        << (full_sweep ? "full_sweep" : "event");
  }
}

TEST(Vcd, OutputSpanningManyFlushesIsComplete) {
  WidthZoo ze(13), zf(13);
  ZooTrace te, tf;
  const std::string evt = run_zoo(ze, false, 400, &te);
  const std::string ref = run_zoo(zf, true, 400, &tf);
  ASSERT_GT(evt.size(), 4 * VcdWriter::kFlushBytes);
  EXPECT_EQ(evt, ref);
  // The final sample changes something, so the file must end with its
  // last record.
  const std::string want = naive_vcd_changes(ze, te, 0, 4);
  ASSERT_NE(want.rfind("#" + std::to_string(te.ticks.back() * 4) + "\n"),
            std::string::npos);
  const std::size_t last = want.rfind('\n', want.size() - 2);
  ASSERT_NE(last, std::string::npos);
  EXPECT_TRUE(evt.ends_with(want.substr(last + 1)));
  EXPECT_EQ(vcd_changes(evt), want);
}

TEST(Vcd, ReopeningFlushesThePreviousFile) {
  const std::string first = tb::scratch_path("reopen_first.vcd");
  const std::string second = tb::scratch_path("reopen_second.vcd");
  WidthZoo z(13);
  ZooTrace t;
  auto sim =
      std::make_unique<Simulator>(z, Simulator::Options{.tick_ps = 40'000});
  const auto run = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      sim->step();
      t.record(z, *sim);
    }
  };
  sim->open_vcd(first);
  sim->reset();
  t.record(z, *sim);
  run(100);  // more than one buffer's worth
  sim->open_vcd(second);
  // The replaced writer is gone, so its file is complete already.
  const std::string a = tb::slurp_and_remove(first);
  ASSERT_GT(a.size(), VcdWriter::kFlushBytes);
  EXPECT_EQ(vcd_changes(a), naive_vcd_changes(z, t, 0, 4));
  run(30);
  // Reopening the same path starts it afresh: only what follows stays,
  // opening with a full dump.
  const std::size_t reopened = t.ticks.size();
  sim->open_vcd(second);
  run(30);
  sim.reset();
  EXPECT_EQ(vcd_changes(tb::slurp_and_remove(second)),
            naive_vcd_changes(z, t, reopened, 4));
}

TEST(Vcd, RejectsSignalsWiderThanAWord) {
  Counter top(nullptr, "cnt", 8, 255);
  Signal<Word> wide(top, "wide", 65);
  Simulator sim(top);
  EXPECT_THROW(sim.open_vcd(tb::scratch_path("wide.vcd")), Error);
}

TEST(PrimitiveTally, AccumulatesAndMaxFoldsDepth) {
  PrimitiveTally a, b;
  a.regs(8).adder(4).depth(3);
  b.regs(2).lut(5).depth(5);
  a.add(b);
  EXPECT_EQ(a.reg_bits, 10);
  EXPECT_EQ(a.add_bits, 4);
  EXPECT_EQ(a.lut_raw, 5);
  EXPECT_EQ(a.logic_levels, 5);
  EXPECT_FALSE(a.empty());
  EXPECT_TRUE(PrimitiveTally{}.empty());
}

TEST(PrimitiveTally, FsmAddsStateRegsAndLogic) {
  PrimitiveTally t;
  t.fsm(5, 10);
  EXPECT_EQ(t.reg_bits, 3);  // clog2(5)
  EXPECT_GT(t.lut_raw, 0);
}

}  // namespace
}  // namespace hwpat::rtl
