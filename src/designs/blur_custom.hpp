// blur, ad hoc: the baseline for Table 3's blur row.
//
// One fused FSM drives the 3-line buffer and the output FIFO directly:
// window shift registers, the shift-add convolution, raster bookkeeping
// and both device handshakes are welded together.  Functionally
// identical to BlurPattern (it reuses the same kernel arithmetic), but
// none of it survives a change of buffer device.
#pragma once

#include "designs/design.hpp"
#include "devices/fifo.hpp"
#include "devices/linebuffer.hpp"

namespace hwpat::designs {

class BlurCustom : public VideoDesign {
 public:
  explicit BlurCustom(const BlurConfig& cfg);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  // on_clock() writes no signals; win_/x_ changes are seq_touch()ed.
  void declare_state() override { declare_seq_state(); }
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
  [[nodiscard]] bool consume_now() const;

  BlurConfig cfg_;
  rtl::Bit sof_;
  // Line buffer device wires.
  rtl::Bit lb_wr_, lb_wr_ready_, lb_rd_, lb_col_valid_;
  rtl::Bus lb_wdata_, lb_col_;
  // Output FIFO device wires.
  rtl::Bit of_wr_, of_rd_, of_empty_, of_full_;
  rtl::Bus of_wdata_, of_rdata_, of_level_;
  // Source/sink protocol adapters.
  rtl::Bit src_can_push_, vga_can_pop_;
  devices::LineBuffer3 linebuf_;
  devices::FifoCore out_fifo_;
  video::VideoSource src_;
  video::VgaSink vga_;

  // Fused datapath registers.
  Word win_[2] = {0, 0};
  int x_ = 0;
};

}  // namespace hwpat::designs
