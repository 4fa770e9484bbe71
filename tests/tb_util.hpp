// Shared testbench utilities: small driver/monitor modules that feed
// and drain stream containers, plus stepping helpers.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/ports.hpp"
#include "rtl/simulator.hpp"

namespace hwpat::tb {

/// Reads a whole generated file (a VCD trace, typically) and deletes
/// it, failing the test if it cannot be opened.  Shared by every
/// differential-waveform test so byte-exactness tweaks (binary-mode
/// reads, read-error checks) land in one place.
inline std::string slurp_and_remove(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  return ss.str();
}

/// Path of `name` inside a directory private to this process, created
/// under std::filesystem::temp_directory_path() on first use and
/// removed with its contents at process exit.  Generated files routed
/// through it cannot collide with those of a concurrently running copy
/// of the same test binary.
inline std::string scratch_path(const std::string& name) {
  namespace fs = std::filesystem;
  struct Dir {
    fs::path path;
    Dir() {
      // create_directory() is false when the name exists: retry until
      // this process owns a fresh directory.
      std::random_device rd;
      do {
        path = fs::temp_directory_path() /
               ("hwpat_tb_" + std::to_string(rd()) + std::to_string(rd()));
      } while (!fs::create_directory(path));
    }
    ~Dir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return (dir.path / name).string();
}

using core::StreamConsumer;
using core::StreamProducer;
using rtl::Bit;
using rtl::Bus;
using rtl::Module;
using rtl::Simulator;

/// Pushes a fixed sequence of words into a stream container, one per
/// cycle whenever the container accepts.
class StreamFeeder : public Module {
 public:
  StreamFeeder(Module* parent, std::string name, StreamProducer p,
               std::vector<Word> data)
      : Module(parent, std::move(name)), p_(p), data_(std::move(data)) {}

  void eval_comb() override {
    const bool go = idx_ < data_.size() && p_.can_push.read();
    p_.push.write(go);
    p_.push_data.write(go ? data_[idx_] : 0);
  }

  void on_clock() override {
    if (idx_ < data_.size() && p_.can_push.read()) ++idx_;
  }

  void on_reset() override { idx_ = 0; }

  void save_state(rtl::StateWriter& w) const override { w.u64(idx_); }
  void load_state(rtl::StateReader& r) override {
    idx_ = static_cast<std::size_t>(r.u64());
  }

  [[nodiscard]] bool done() const { return idx_ >= data_.size(); }
  [[nodiscard]] std::size_t sent() const { return idx_; }

 private:
  StreamProducer p_;
  std::vector<Word> data_;
  std::size_t idx_ = 0;
};

/// Pops every available element from a stream container into a vector.
/// With limit == 0 the drainer is completely passive (it does not even
/// drive `pop`), so a testbench may drive the consumer wires manually.
class StreamDrainer : public Module {
 public:
  StreamDrainer(Module* parent, std::string name, StreamConsumer c,
                std::size_t limit = SIZE_MAX)
      : Module(parent, std::move(name)), c_(c), limit_(limit) {}

  void eval_comb() override {
    if (limit_ == 0) return;  // passive: leave the wires to the test
    c_.pop.write(got_.size() < limit_ && c_.can_pop.read());
  }

  void on_clock() override {
    if (limit_ == 0) return;
    if (got_.size() < limit_ && c_.can_pop.read())
      got_.push_back(c_.front.read());
  }

  void on_reset() override { got_.clear(); }

  void save_state(rtl::StateWriter& w) const override { w.words(got_); }
  void load_state(rtl::StateReader& r) override { r.words(got_); }

  [[nodiscard]] const std::vector<Word>& got() const { return got_; }

 private:
  StreamConsumer c_;
  std::size_t limit_;
  std::vector<Word> got_;
};

/// Pushes whole frames of pixels into a stream container, asserting a
/// start-of-frame strobe with each frame's first pixel.
class FrameFeeder : public Module {
 public:
  FrameFeeder(Module* parent, std::string name, StreamProducer p, Bit& sof,
              std::vector<Word> pixels, std::size_t frame_size)
      : Module(parent, std::move(name)),
        p_(p),
        sof_(sof),
        pixels_(std::move(pixels)),
        frame_size_(frame_size) {}

  void eval_comb() override {
    const bool go = idx_ < pixels_.size() && p_.can_push.read();
    p_.push.write(go);
    p_.push_data.write(go ? pixels_[idx_] : 0);
    sof_.write(go && idx_ % frame_size_ == 0);
  }

  void on_clock() override {
    if (idx_ < pixels_.size() && p_.can_push.read()) ++idx_;
  }

  void on_reset() override { idx_ = 0; }

  void save_state(rtl::StateWriter& w) const override { w.u64(idx_); }
  void load_state(rtl::StateReader& r) override {
    idx_ = static_cast<std::size_t>(r.u64());
  }

  [[nodiscard]] bool done() const { return idx_ >= pixels_.size(); }

 private:
  StreamProducer p_;
  Bit& sof_;
  std::vector<Word> pixels_;
  std::size_t frame_size_;
  std::size_t idx_ = 0;
};

/// Steps until `cond()` holds, failing the test on any other outcome
/// (timeout, latched injected fault).
template <typename Cond>
void step_until(Simulator& sim, Cond&& cond, std::uint64_t max_cycles) {
  const rtl::RunStatus st = sim.run(std::forward<Cond>(cond), max_cycles);
  ASSERT_TRUE(st.ok()) << "step_until: " << rtl::to_string(st.result)
                       << " after " << st.steps << " steps";
}

/// Asserts `bit` for exactly one clock cycle.
inline void pulse(Simulator& sim, Bit& bit) {
  bit.write(true);
  sim.step();
  bit.write(false);
}

}  // namespace hwpat::tb
