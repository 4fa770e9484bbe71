#include "video/stream.hpp"

#include "common/error.hpp"

namespace hwpat::video {

VideoSource::VideoSource(Module* parent, std::string name, Config cfg,
                         core::StreamProducer out, Bit& sof,
                         std::vector<Frame> frames)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      out_(out),
      sof_(sof),
      frames_(std::move(frames)) {
  HWPAT_ASSERT(cfg_.pixel_interval >= 1);
  HWPAT_ASSERT(cfg_.frame_blanking >= 0);
  for (const Frame& f : frames_) HWPAT_ASSERT(!f.empty());
}

bool VideoSource::pixel_due() const {
  if (done() || frame_idx_ >= frames_.size()) return false;
  return wait_ == 0;
}

void VideoSource::eval_comb() {
  const bool due = pixel_due();
  const bool go =
      due && (!cfg_.respect_backpressure || out_.can_push.read());
  out_.push.write(go);
  if (go) {
    const Frame& f = frames_[frame_idx_];
    out_.push_data.write(f.pixels()[pix_idx_]);
    sof_.write(pix_idx_ == 0);
  } else {
    out_.push_data.write(0);
    sof_.write(false);
  }
}

void VideoSource::declare_state() {
  // on_clock() writes no signals; wait_/pix_idx_/frame_idx_ drive
  // eval_comb() (sent_ is statistics only) and are reported below.
  declare_seq_state();
}

void VideoSource::on_clock() {
  if (wait_ > 0) {
    // eval_comb() only tests wait_ == 0 (pixel_due), so mid-countdown
    // decrements are not eval-visible — touch on the final one only.
    if (--wait_ == 0) seq_touch();
    return;
  }
  if (done() || frame_idx_ >= frames_.size()) return;  // past the window
  if (cfg_.respect_backpressure && !out_.can_push.read()) return;
  // The pixel was pushed this edge.
  ++sent_;
  seq_touch();
  const Frame& f = frames_[frame_idx_];
  if (++pix_idx_ >= f.pixel_count()) {
    pix_idx_ = 0;
    ++frame_idx_;
    if (cfg_.loop && frame_idx_ >= frames_.size()) frame_idx_ = 0;
    wait_ = cfg_.pixel_interval - 1 + cfg_.frame_blanking;
  } else {
    wait_ = cfg_.pixel_interval - 1;
  }
}

void VideoSource::on_reset() {
  frame_idx_ = 0;
  pix_idx_ = 0;
  wait_ = 0;
  sent_ = 0;
}

void VideoSource::report(rtl::PrimitiveTally& t) const {
  // The decoder-side sync logic: line/pixel counters and sync decode.
  if (frames_.empty()) return;
  const int xb = bits_for(static_cast<Word>(frames_[0].width()));
  const int yb = bits_for(static_cast<Word>(frames_[0].height()));
  t.regs(xb + yb + 4);
  t.adder(xb + yb);
  t.comparator(xb + yb);
  t.lut(4);
  t.depth(2);
}

VgaSink::VgaSink(Module* parent, std::string name, Config cfg,
                 core::StreamConsumer in)
    : Module(parent, std::move(name)),
      cfg_(cfg),
      in_(in),
      current_(cfg.width, cfg.height, cfg.channels) {
  HWPAT_ASSERT(cfg_.pixel_interval >= 1);
}

void VgaSink::eval_comb() {
  in_.pop.write(wait_ == 0 && in_.can_pop.read());
}

void VgaSink::declare_state() {
  // eval_comb() reads wait_ only; the frame reassembly state (pix_idx_,
  // current_, frames_, streaming_) never feeds back into the design.
  declare_seq_state();
}

void VgaSink::on_clock() {
  if (wait_ > 0) {
    // eval_comb() only tests wait_ == 0 — touch on the final decrement.
    if (--wait_ == 0) seq_touch();
    return;
  }
  if (!in_.can_pop.read()) {
    if (cfg_.strict_rate && streaming_)
      throw ProtocolError("VGA sink '" + full_name() +
                          "': pixel underrun (pipeline too slow for the "
                          "display rate)");
    return;
  }
  streaming_ = true;
  current_.pixels()[pix_idx_] = in_.front.read();
  ++received_;
  if (++pix_idx_ >= current_.pixel_count()) {
    frames_.push_back(current_);
    pix_idx_ = 0;
  }
  wait_ = cfg_.pixel_interval - 1;
  if (wait_ != 0) seq_touch();  // wait_ was 0 on entry to this path
}

void VgaSink::on_reset() {
  frames_.clear();
  pix_idx_ = 0;
  wait_ = 0;
  streaming_ = false;
  received_ = 0;
}

void VgaSink::report(rtl::PrimitiveTally& t) const {
  // VGA timing generator: horizontal/vertical counters + sync compare.
  const int xb = bits_for(static_cast<Word>(cfg_.width) + 160);
  const int yb = bits_for(static_cast<Word>(cfg_.height) + 45);
  t.regs(xb + yb + 3);
  t.adder(xb + yb);
  t.comparator(2 * (xb + yb));  // sync start/end per axis
  t.lut(4);
  t.depth(2);
}


namespace {

/// Smallest encoded frame: three dims and an empty pixel count.
constexpr std::size_t kMinFrameBytes = 4 * sizeof(std::uint64_t);

/// A frame is its three dims, then its pixels as a word array.  Reading
/// checks the dims and the pixel count against each other and against
/// the payload before it allocates the frame.
void visit_frame(rtl::StateIO& io, Frame& f) {
  int width = f.width();
  int height = f.height();
  int channels = f.channels();
  std::uint64_t words = f.pixel_count();  // the pixel array's count
  io(width, height, channels, words);
  if (io.reading()) {
    const std::string dims = std::to_string(width) + "x" +
                             std::to_string(height) + "x" +
                             std::to_string(channels);
    if (width < 1 || height < 1 || (channels != 1 && channels != 3))
      throw SnapshotError("snapshot: invalid frame dims " + dims);
    if (words != static_cast<std::uint64_t>(width) *
                     static_cast<std::uint64_t>(height))
      throw SnapshotError("snapshot: a " + dims + " frame with " +
                          std::to_string(words) + " pixel word(s)");
    if (words > io.remaining() / sizeof(Word))
      throw SnapshotError("snapshot: a " + dims +
                          " frame overruns the payload");
    f = Frame(width, height, channels);
  }
  io.word_block(f.pixels());
}

}  // namespace

void VideoSource::visit_state(rtl::StateIO& io) {
  io.bounded(frame_idx_, 0, frames_.size(), "frame index");
  // Past the last frame (no loop) the pixel index rests at 0.
  const std::size_t pixels =
      frame_idx_ < frames_.size() ? frames_[frame_idx_].pixel_count() : 1;
  io.bounded(pix_idx_, 0, pixels - 1, "pixel index");
  io(wait_, sent_);
}

void VgaSink::visit_state(rtl::StateIO& io) {
  auto n = static_cast<std::uint32_t>(frames_.size());
  io(n);
  if (io.reading()) {
    if (n > io.remaining() / kMinFrameBytes)
      throw SnapshotError("snapshot: " + std::to_string(n) +
                          " frame(s) cannot fit the payload");
    frames_.assign(n, Frame{});
  }
  for (Frame& f : frames_) visit_frame(io, f);
  visit_frame(io, current_);
  io(pix_idx_, wait_, streaming_, received_);
  // on_clock() stores the next pixel at pix_idx_.
  if (pix_idx_ >= current_.pixel_count())
    throw SnapshotError("snapshot: pixel index " + std::to_string(pix_idx_) +
                        " is past the frame");
}

}  // namespace hwpat::video
