// VectorContainer: the random-access container of Table 1, bindable to
// on-chip block RAM (one-cycle access) or external SRAM (handshake
// access).  Exposes the RandomImpl method interface; the positional
// iterators (random and sequential) of vector.cpp/iterators sit on top.
//
// Single-outstanding-operation discipline: `ready` is high in the idle
// state; a read or write strobe launches one memory transaction;
// `rvalid` pulses together with `rdata` when a read completes.
#pragma once

#include <memory>

#include "core/container.hpp"
#include "devices/bram.hpp"

namespace hwpat::core {

class VectorContainer : public Container {
 public:
  struct Config {
    int elem_bits = 8;
    int length = 256;      ///< elements
    DeviceKind device = DeviceKind::BlockRam;
    Word base_addr = 0;    ///< SRAM binding only
    bool strict = true;
  };

  /// Block-RAM binding: the container owns the BRAM device.
  VectorContainer(Module* parent, std::string name, Config cfg,
                  RandomImpl p);
  /// External-SRAM binding: the memory port is external (arbitrable).
  VectorContainer(Module* parent, std::string name, Config cfg,
                  RandomImpl p, SramMaster mem);
  ~VectorContainer() override;  // out-of-line: BramWires is incomplete here

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void visit_state(rtl::StateIO& io) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] int length() const { return cfg_.length; }
  [[nodiscard]] int addr_bits() const {
    return std::max(1, clog2(static_cast<Word>(cfg_.length)));
  }

  /// Testbench backdoor (BRAM binding only).
  [[nodiscard]] devices::BlockRam* bram() { return bram_.get(); }

 private:
  enum class State { Idle, BramRead, SramRead, SramWrite };

  void check_addr(Word a) const;

  Config cfg_;
  RandomImpl p_;
  // BRAM binding --------------------------------------------------
  std::unique_ptr<devices::BlockRam> bram_;
  struct BramWires;
  std::unique_ptr<BramWires> bw_;
  // SRAM binding --------------------------------------------------
  bool has_mem_ = false;
  Bit* mem_req_ = nullptr;
  Bit* mem_we_ = nullptr;
  Bus* mem_addr_ = nullptr;
  Bus* mem_wdata_ = nullptr;
  const Bit* mem_ack_ = nullptr;
  const Bus* mem_rdata_ = nullptr;

  State state_ = State::Idle;
};

}  // namespace hwpat::core
