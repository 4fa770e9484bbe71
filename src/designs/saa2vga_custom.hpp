// saa2vga, ad hoc: the baseline of Table 3.
//
// The same function as Saa2VgaPattern — buffer the decoder stream,
// copy it, feed the VGA coder — but written the pre-pattern way the
// paper's §2 describes: one hand-written finite state machine directly
// "handling the buffer signals and sequencing the read and write
// operations".  The FIFO variant is a combinational forwarder between
// two FIFO cores; the SRAM variant is one fused FSM that "maintains a
// memory address register pointing to the appropriate position in RAM"
// for both memories.
//
// Crucially, changing the memory technology forces this file to change
// radically (two unrelated classes below), while the pattern version
// only rebinds a spec — the coupling problem the paper opens with.
#pragma once

#include <tuple>

#include "designs/design.hpp"
#include "devices/fifo.hpp"
#include "devices/sram.hpp"
#include "core/ports.hpp"

namespace hwpat::designs {

/// Ad hoc FIFO implementation (baseline of Table 3 row "saa2vga 1").
class Saa2VgaCustomFifo : public VideoDesign {
 public:
  explicit Saa2VgaCustomFifo(const Saa2VgaConfig& cfg);

  void eval_comb() override;
  // Pure combinational forwarder: no on_clock() — pruned from the
  // activation list entirely.
  void declare_state() override { declare_comb_only(); }
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const video::VgaSink& sink() const override {
    return vga_;
  }
  [[nodiscard]] const video::VideoSource& source() const override {
    return src_;
  }
  [[nodiscard]] bool finished() const override;

 private:
  Saa2VgaConfig cfg_;
  rtl::Bit sof_;
  // Raw device wires (no containers, no iterators).
  rtl::Bit in_wr_, in_rd_, in_empty_, in_full_;
  rtl::Bus in_wdata_, in_rdata_, in_level_;
  rtl::Bit out_wr_, out_rd_, out_empty_, out_full_;
  rtl::Bus out_wdata_, out_rdata_, out_level_;
  // Adapter wires so source/sink speak their stream protocol.
  rtl::Bit src_can_push_, vga_can_pop_;
  devices::FifoCore in_fifo_, out_fifo_;
  video::VideoSource src_;
  video::VgaSink vga_;
};

/// Ad hoc SRAM implementation (baseline of Table 3 row "saa2vga 2"):
/// two hand-written circular-buffer controllers, one per external
/// memory (real ad hoc designs keep the memories independent so both
/// SRAMs can be accessed in parallel), plus the forwarding glue between
/// them.  Structurally "almost the same physical components" as the
/// pattern version (§4) — begin/end pointer registers, a little memory
/// FSM per buffer, a front cache — but welded to these two SRAMs.
class Saa2VgaCustomSram : public VideoDesign {
 public:
  explicit Saa2VgaCustomSram(const Saa2VgaConfig& cfg);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void visit_state(rtl::StateIO& io) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const video::VgaSink& sink() const override {
    return vga_;
  }
  [[nodiscard]] const video::VideoSource& source() const override {
    return src_;
  }
  [[nodiscard]] bool finished() const override;

 private:
  enum class State { Idle, Write, Fetch };

  /// Hand-written circular-buffer controller over one SRAM: the "few
  /// registers ... and a little finite state machine" of Fig. 5, fused
  /// into the design instead of generated.
  struct MemCtl {
    State state = State::Idle;
    int head = 0, tail = 0, count = 0;
    Word wlatch = 0;
    bool wpend = false;
    Word front = 0;
    bool front_valid = false;
    Word base = 0;

    void reset();
    [[nodiscard]] bool can_accept(int capacity) const;
    [[nodiscard]] bool can_consume() const;
    /// The fields eval_comb() observes (sequential-state declaration).
    [[nodiscard]] auto eval_key() const {
      return std::make_tuple(state, count, wpend, front, front_valid);
    }
  };

  void step_mem(MemCtl& m, rtl::Bit& req, rtl::Bit& we, rtl::Bus& addr,
                rtl::Bus& wdata, const rtl::Bit& ack,
                const rtl::Bus& rdata);

  Saa2VgaConfig cfg_;
  rtl::Bit sof_;
  // SRAM A (input buffer) master wires.
  rtl::Bit a_req_, a_we_, a_ack_;
  rtl::Bus a_addr_, a_wdata_, a_rdata_;
  // SRAM B (output buffer) master wires.
  rtl::Bit b_req_, b_we_, b_ack_;
  rtl::Bus b_addr_, b_wdata_, b_rdata_;
  // Stream adapters toward source/sink.
  rtl::Bit src_push_, src_can_push_;
  rtl::Bus src_data_;
  rtl::Bit vga_pop_, vga_can_pop_;
  rtl::Bus vga_front_;
  devices::ExternalSram sram_a_, sram_b_;
  video::VideoSource src_;
  video::VgaSink vga_;

  MemCtl in_ctl_;   // buffer over SRAM A
  MemCtl out_ctl_;  // buffer over SRAM B
};

}  // namespace hwpat::designs
