// SramArbiter: shares one external SRAM among several masters.
//
// The paper's metaprogramming layer "allows automatic generation of
// arbitration logic for shared physical resources (e.g. RAM)"; this is
// the module that generation instantiates.  Masters use the same
// req/ack protocol as the SRAM itself, so a container FSM cannot tell
// whether it talks to a private SRAM or an arbitrated share — exactly
// the transparency the paper claims for the model.
//
// Grants are registered: a master is selected at a rising edge among the
// pending requests (fixed-priority or round-robin) and keeps the slave
// until its ack completes.
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

enum class ArbPolicy { FixedPriority, RoundRobin };

/// One master-side port bundle (non-owning pointers; all required).
struct ArbMasterPorts {
  const Bit* req;
  const Bit* we;
  const Bus* addr;
  const Bus* wdata;
  Bit* ack;
  Bus* rdata;
};

/// Slave-side bundle: the wires toward the shared SRAM.
struct ArbSlavePorts {
  Bit* req;
  Bit* we;
  Bus* addr;
  Bus* wdata;
  const Bit* ack;
  const Bus* rdata;
};

class SramArbiter : public rtl::Module {
 public:
  SramArbiter(Module* parent, std::string name, ArbPolicy policy,
              std::vector<ArbMasterPorts> masters, ArbSlavePorts slave);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void visit_state(rtl::StateIO& io) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] int num_masters() const {
    return static_cast<int>(masters_.size());
  }
  /// Index of the currently granted master, -1 when idle.
  [[nodiscard]] int granted() const { return grant_; }
  /// Grants issued to each master since reset (fairness statistics).
  [[nodiscard]] const std::vector<std::uint64_t>& grant_counts() const {
    return grant_counts_;
  }

 private:
  [[nodiscard]] int pick() const;

  ArbPolicy policy_;
  std::vector<ArbMasterPorts> masters_;
  ArbSlavePorts slave_;
  int grant_ = -1;
  int rr_next_ = 0;
  std::vector<std::uint64_t> grant_counts_;
};

}  // namespace hwpat::devices
