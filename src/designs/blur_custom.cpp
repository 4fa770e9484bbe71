#include "designs/blur_custom.hpp"

#include "core/blur.hpp"

namespace hwpat::designs {

BlurCustom::BlurCustom(const BlurConfig& cfg)
    : VideoDesign(nullptr, "blur_custom"),
      cfg_(cfg),
      sof_(*this, "sof"),
      lb_wr_(*this, "lb_wr"),
      lb_wr_ready_(*this, "lb_wr_ready"),
      lb_rd_(*this, "lb_rd"),
      lb_col_valid_(*this, "lb_col_valid"),
      lb_wdata_(*this, "lb_wdata", 8),
      lb_col_(*this, "lb_col", 24),
      of_wr_(*this, "of_wr"),
      of_rd_(*this, "of_rd"),
      of_empty_(*this, "of_empty"),
      of_full_(*this, "of_full"),
      of_wdata_(*this, "of_wdata", 8),
      of_rdata_(*this, "of_rdata", 8),
      of_level_(*this, "of_level", 16),
      src_can_push_(*this, "src_can_push"),
      vga_can_pop_(*this, "vga_can_pop"),
      linebuf_(this, "linebuf",
               {.pixel_width = 8, .line_width = cfg.width,
                .col_fifo_depth = 4},
               devices::LineBuffer3Ports{lb_wr_, lb_wdata_, sof_,
                                         lb_wr_ready_, lb_rd_, lb_col_,
                                         lb_col_valid_}),
      out_fifo_(this, "out_fifo",
                {.width = 8, .depth = cfg.out_fifo_depth},
                devices::FifoPorts{of_wr_, of_wdata_, of_rd_, of_rdata_,
                                   of_empty_, of_full_, of_level_}),
      src_(this, "decoder",
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           core::StreamProducer{lb_wr_, lb_wdata_, src_can_push_,
                                src_can_push_},
           sof_,
           camera_frames(cfg.width, cfg.height, cfg.frames,
                         cfg.pattern_seed)),
      vga_(this, "vga",
           {.width = cfg.width - 2, .height = cfg.height - 2,
            .channels = 1},
           core::StreamConsumer{of_rd_, of_rdata_, vga_can_pop_,
                                of_empty_, of_level_}) {}

bool BlurCustom::consume_now() const {
  if (!lb_col_valid_.read()) return false;
  if (x_ >= 2 && of_full_.read()) return false;
  return true;
}

void BlurCustom::eval_comb() {
  const bool rd = consume_now();
  const bool wr = rd && x_ >= 2;
  lb_rd_.write(rd);
  of_wr_.write(wr);
  of_wdata_.write(
      core::BlurFsm::kernel3x3(win_[0], win_[1], lb_col_.read(), 8));
  src_can_push_.write(lb_wr_ready_.read());
  vga_can_pop_.write(!of_empty_.read());
}

void BlurCustom::on_clock() {
  if (!consume_now()) return;
  seq_touch();  // win_ and x_ are both eval-visible
  win_[0] = win_[1];
  win_[1] = lb_col_.read();
  if (++x_ == cfg_.width) x_ = 0;
}

void BlurCustom::on_reset() {
  win_[0] = win_[1] = 0;
  x_ = 0;
}

void BlurCustom::report(rtl::PrimitiveTally& t) const {
  // Same datapath as the library BlurFsm, minus its run/frame control
  // (the ad hoc design free-runs).
  t.regs(6 * 8);                      // two 3-pixel window columns
  t.adder(3 * 2 * 10 + 2 * 12);       // convolution tree
  const int xb = bits_for(static_cast<Word>(cfg_.width));
  t.regs(xb);
  t.adder(xb);
  t.comparator(xb + 2);
  t.lut(4);
  t.depth(5);
}

bool BlurCustom::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}


void BlurCustom::visit_state(rtl::StateIO& io) {
  io(win_[0], win_[1], x_);
}

}  // namespace hwpat::designs
