// BlurFsm: 3x3 convolution blur over a column-delivering input iterator
// — the paper's third design example.  "The rbuffer container, instead
// of a simple FIFO has been mapped over a special one ... structured to
// provide 3 pixels in a column for each access.  This makes the
// convolution product in the blur algorithm very simple and quite
// efficient since ideally a new filtered pixel can be generated at each
// clock cycle."
//
// Kernel: the integer Gaussian  [1 2 1; 2 4 2; 1 2 1] / 16  (shift-add
// only, exact in integer arithmetic).
//
// The algorithm consumes one packed column (3 vertically adjacent
// pixels) per cycle through its input iterator, keeps a 3-column window
// in registers, and emits one blurred pixel per interior window through
// its output iterator.  For a WxH input frame the output is the
// (W-2)x(H-2) interior.  Like every algorithm in the library it touches
// data only through iterator interfaces, so it is oblivious to whether
// the columns come from a line-buffer device, an SRAM-backed container
// or a testbench stub.
#pragma once

#include "core/algorithm.hpp"

namespace hwpat::core {

class BlurFsm : public Algorithm {
 public:
  struct Config {
    int width = 64;        ///< input frame width (pixels per line)
    int height = 48;       ///< input frame height
    int pixel_bits = 8;    ///< grayscale pixel width
    std::uint64_t frames = 0;  ///< frames per run; 0 = endless
  };

  /// `in.rdata` must be 3*pixel_bits wide (a packed column: bits
  /// [w-1:0] newest row y, [2w-1:w] row y-1, [3w-1:2w] row y-2);
  /// `out.wdata` must be pixel_bits wide.
  BlurFsm(Module* parent, std::string name, Config cfg, IterClient in,
          IterClient out, AlgoControl ctl);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void report(rtl::PrimitiveTally& t) const override;
  void visit_state(rtl::StateIO& io) override;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// The convolution product on a 3x3 window given as three packed
  /// columns (left, centre, right).  Exposed for tests and for the
  /// custom (ad hoc) blur design, which shares the arithmetic.
  [[nodiscard]] static Word kernel3x3(Word left, Word centre, Word right,
                                      int pixel_bits);

 private:
  [[nodiscard]] bool consume_now() const;
  [[nodiscard]] bool output_now() const;

  Config cfg_;
  IterClient in_;
  IterClient out_;

  // Architectural state.  Only the two previous columns need
  // registering: the third column of the window is the incoming one.
  Word win_[2] = {0, 0};  ///< columns x-2 (index 0) and x-1 (index 1)
  int x_ = 0;                ///< column index within the current row
  int row_ = 0;              ///< completed column-rows this frame
  std::uint64_t frames_done_ = 0;
};

}  // namespace hwpat::core
