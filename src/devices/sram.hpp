// ExternalSram: off-chip asynchronous static RAM behind a req/ack
// handshake, matching the implementation interface of the generated
// `rbuffer_sram` entity in Fig. 5 of the paper (p_addr, p_data, req,
// ack).
//
// Protocol: the master drives addr/wdata/we and raises `req`.  After
// `latency` rising edges the operation is performed and `ack` is high
// for exactly one cycle (read data registered on `rdata`).  The cycle
// after `ack`, the SRAM ignores `req` (turnaround), so a sustained
// access takes latency+1 cycles — 2 cycles with the default latency of
// the modelled board.
//
// Being off-chip, the SRAM itself consumes no FPGA resources (that is
// why the paper's saa2vga_2 row shows 0 block RAMs); only the
// controller logic inside containers does.
//
// Memory model: the 2^addr_width-word image is a PagedWords
// (rtl/paged_words.hpp) of 512-word (4 KiB) pages, each allocated by
// the first non-zero write into it.  Every word reads as 0 until
// written, and writing 0 into an untouched page allocates nothing, so
// a design that addresses one region of a 64 Ki-word SRAM holds one
// page per region, not 512 KiB.  Snapshot blobs encode the full image
// word for word.  The testbench backdoor is preload() (before or
// between runs), word() for one word and image() for a flat copy of
// the whole array; resident_pages() counts the allocated pages.
#pragma once

#include <vector>

#include "devices/device.hpp"
#include "rtl/module.hpp"
#include "rtl/paged_words.hpp"

namespace hwpat::devices {

using rtl::Bit;
using rtl::Bus;

struct SramConfig {
  int data_width = 8;
  int addr_width = 16;
  int latency = 1;  ///< edges from accepted req to operation + ack
  bool strict = true;
};

struct SramPorts {
  const Bit& req;
  const Bit& we;
  const Bus& addr;
  const Bus& wdata;
  Bit& ack;
  Bus& rdata;
};

class ExternalSram : public rtl::Module {
 public:
  ExternalSram(Module* parent, std::string name, SramConfig cfg,
               SramPorts p);

  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void visit_state(rtl::StateIO& io) override;
  // Off-chip: contributes nothing to the FPGA resource tally.
  void report(rtl::PrimitiveTally&) const override {}

  [[nodiscard]] const SramConfig& config() const { return cfg_; }

  /// Direct backdoor access for testbenches (load/readback images).
  [[nodiscard]] Word word(std::size_t addr) const { return mem_.get(addr); }
  [[nodiscard]] std::vector<Word> image() const { return mem_.image(); }
  [[nodiscard]] std::size_t resident_pages() const {
    return mem_.resident_pages();
  }
  void preload(std::size_t offset, const std::vector<Word>& data);

 private:
  enum class State { Idle, Busy, Turnaround };

  SramConfig cfg_;
  SramPorts p_;
  rtl::PagedWords mem_;
  State state_ = State::Idle;
  int countdown_ = 0;

  void do_op();
};

}  // namespace hwpat::devices
