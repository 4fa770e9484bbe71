#include "designs/saa2vga_custom.hpp"

namespace hwpat::designs {

// ---------------------------------------------------------------------
// FIFO variant
// ---------------------------------------------------------------------

Saa2VgaCustomFifo::Saa2VgaCustomFifo(const Saa2VgaConfig& cfg)
    : VideoDesign(nullptr, "saa2vga_custom"),
      cfg_(cfg),
      sof_(*this, "sof"),
      in_wr_(*this, "in_wr"),
      in_rd_(*this, "in_rd"),
      in_empty_(*this, "in_empty"),
      in_full_(*this, "in_full"),
      in_wdata_(*this, "in_wdata", 8),
      in_rdata_(*this, "in_rdata", 8),
      in_level_(*this, "in_level", 16),
      out_wr_(*this, "out_wr"),
      out_rd_(*this, "out_rd"),
      out_empty_(*this, "out_empty"),
      out_full_(*this, "out_full"),
      out_wdata_(*this, "out_wdata", 8),
      out_rdata_(*this, "out_rdata", 8),
      out_level_(*this, "out_level", 16),
      src_can_push_(*this, "src_can_push"),
      vga_can_pop_(*this, "vga_can_pop"),
      in_fifo_(this, "in_fifo",
               {.width = 8, .depth = cfg.buffer_depth},
               devices::FifoPorts{in_wr_, in_wdata_, in_rd_, in_rdata_,
                                  in_empty_, in_full_, in_level_}),
      out_fifo_(this, "out_fifo",
                {.width = 8, .depth = cfg.buffer_depth},
                devices::FifoPorts{out_wr_, out_wdata_, out_rd_,
                                   out_rdata_, out_empty_, out_full_,
                                   out_level_}),
      src_(this, "decoder",
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           core::StreamProducer{in_wr_, in_wdata_, src_can_push_,
                                in_full_},
           sof_,
           camera_frames(cfg.width, cfg.height, cfg.frames,
                         cfg.pattern_seed)),
      vga_(this, "vga",
           {.width = cfg.width, .height = cfg.height, .channels = 1},
           core::StreamConsumer{out_rd_, out_rdata_, vga_can_pop_,
                                out_empty_, out_level_}) {}

void Saa2VgaCustomFifo::eval_comb() {
  // The whole ad hoc "algorithm": move a word when the input FIFO has
  // one and the output FIFO has room — hard-wired to these two devices.
  const bool move = !in_empty_.read() && !out_full_.read();
  in_rd_.write(move);
  out_wr_.write(move);
  out_wdata_.write(in_rdata_.read());
  // Interface adaptation for source/sink.
  src_can_push_.write(!in_full_.read());
  vga_can_pop_.write(!out_empty_.read());
}

void Saa2VgaCustomFifo::report(rtl::PrimitiveTally& t) const {
  // The forwarding gate.  The FIFO cores and source/sink report
  // themselves as children.
  t.lut(2);
  t.depth(2);
}

bool Saa2VgaCustomFifo::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}

// ---------------------------------------------------------------------
// SRAM variant
// ---------------------------------------------------------------------

Saa2VgaCustomSram::Saa2VgaCustomSram(const Saa2VgaConfig& cfg)
    : VideoDesign(nullptr, "saa2vga_custom"),
      cfg_(cfg),
      sof_(*this, "sof"),
      a_req_(*this, "a_req"),
      a_we_(*this, "a_we"),
      a_ack_(*this, "a_ack"),
      a_addr_(*this, "a_addr", 16),
      a_wdata_(*this, "a_wdata", 8),
      a_rdata_(*this, "a_rdata", 8),
      b_req_(*this, "b_req"),
      b_we_(*this, "b_we"),
      b_ack_(*this, "b_ack"),
      b_addr_(*this, "b_addr", 16),
      b_wdata_(*this, "b_wdata", 8),
      b_rdata_(*this, "b_rdata", 8),
      src_push_(*this, "src_push"),
      src_can_push_(*this, "src_can_push"),
      src_data_(*this, "src_data", 8),
      vga_pop_(*this, "vga_pop"),
      vga_can_pop_(*this, "vga_can_pop"),
      vga_front_(*this, "vga_front", 8),
      sram_a_(this, "sram_a",
              {.data_width = 8, .addr_width = 16},
              devices::SramPorts{a_req_, a_we_, a_addr_, a_wdata_, a_ack_,
                                 a_rdata_}),
      sram_b_(this, "sram_b",
              {.data_width = 8, .addr_width = 16},
              devices::SramPorts{b_req_, b_we_, b_addr_, b_wdata_, b_ack_,
                                 b_rdata_}),
      src_(this, "decoder",
           {.pixel_interval = 1, .frame_blanking = 8,
            .respect_backpressure = true},
           core::StreamProducer{src_push_, src_data_, src_can_push_,
                                src_can_push_},
           sof_,
           camera_frames(cfg.width, cfg.height, cfg.frames,
                         cfg.pattern_seed)),
      vga_(this, "vga",
           {.width = cfg.width, .height = cfg.height, .channels = 1},
           core::StreamConsumer{vga_pop_, vga_front_, vga_can_pop_,
                                vga_can_pop_, vga_front_}) {
  in_ctl_.base = 0x0000;
  out_ctl_.base = 0x8000;
}

void Saa2VgaCustomSram::MemCtl::reset() {
  state = State::Idle;
  head = tail = count = 0;
  wlatch = 0;
  wpend = false;
  front = 0;
  front_valid = false;
}

bool Saa2VgaCustomSram::MemCtl::can_accept(int capacity) const {
  return !wpend && count + (wpend ? 1 : 0) < capacity;
}

bool Saa2VgaCustomSram::MemCtl::can_consume() const {
  return front_valid && state == State::Idle && !wpend;
}

void Saa2VgaCustomSram::eval_comb() {
  src_can_push_.write(in_ctl_.can_accept(cfg_.buffer_depth));
  vga_can_pop_.write(out_ctl_.can_consume());
  vga_front_.write(out_ctl_.front);
}

/// One hand-written circular-buffer controller step (mirrors the
/// structure of the generated SRAM container, welded to its wires).
void Saa2VgaCustomSram::step_mem(MemCtl& m, rtl::Bit& req, rtl::Bit& we,
                                 rtl::Bus& addr, rtl::Bus& wdata,
                                 const rtl::Bit& ack,
                                 const rtl::Bus& rdata) {
  switch (m.state) {
    case State::Idle:
      break;
    case State::Write:
      if (ack.read()) {
        req.write(false);
        we.write(false);
        m.tail = (m.tail + 1) % cfg_.buffer_depth;
        ++m.count;
        if (m.count == 1) {
          m.front = m.wlatch;
          m.front_valid = true;
        }
        m.wpend = false;
        m.state = State::Idle;
      }
      break;
    case State::Fetch:
      if (ack.read()) {
        req.write(false);
        m.front = rdata.read();
        m.front_valid = true;
        m.state = State::Idle;
      }
      break;
  }
  if (m.state == State::Idle) {
    if (m.wpend) {
      req.write(true);
      we.write(true);
      addr.write(m.base + static_cast<Word>(m.tail));
      wdata.write(m.wlatch);
      m.state = State::Write;
    } else if (!m.front_valid && m.count > 0) {
      req.write(true);
      we.write(false);
      addr.write(m.base + static_cast<Word>(m.head));
      m.state = State::Fetch;
    }
  }
}

void Saa2VgaCustomSram::declare_state() {
  register_seq(a_req_);
  register_seq(a_we_);
  register_seq(a_addr_);
  register_seq(a_wdata_);
  register_seq(b_req_);
  register_seq(b_we_);
  register_seq(b_addr_);
  register_seq(b_wdata_);
}

void Saa2VgaCustomSram::on_clock() {
  // Snapshot the controller state eval_comb() reads, for the exact
  // seq_touch() decision at the end of the edge.
  const auto pre_in = in_ctl_.eval_key();
  const auto pre_out = out_ctl_.eval_key();
  // Client strobes first (they were produced against pre-edge state).
  if (src_push_.read() && in_ctl_.can_accept(cfg_.buffer_depth)) {
    in_ctl_.wlatch = src_data_.read();
    in_ctl_.wpend = true;
  }
  if (vga_pop_.read() && out_ctl_.can_consume()) {
    out_ctl_.front_valid = false;
    --out_ctl_.count;
    out_ctl_.head = (out_ctl_.head + 1) % cfg_.buffer_depth;
  }
  // The forwarding glue (the hand-coded copy loop): move the input
  // buffer's front into the output buffer whenever possible.
  if (in_ctl_.can_consume() && out_ctl_.can_accept(cfg_.buffer_depth)) {
    out_ctl_.wlatch = in_ctl_.front;
    out_ctl_.wpend = true;
    in_ctl_.front_valid = false;
    --in_ctl_.count;
    in_ctl_.head = (in_ctl_.head + 1) % cfg_.buffer_depth;
  }
  // Both memory controllers progress in parallel (separate SRAMs).
  step_mem(in_ctl_, a_req_, a_we_, a_addr_, a_wdata_, a_ack_, a_rdata_);
  step_mem(out_ctl_, b_req_, b_we_, b_addr_, b_wdata_, b_ack_, b_rdata_);

  if (pre_in != in_ctl_.eval_key() || pre_out != out_ctl_.eval_key())
    seq_touch();
}

void Saa2VgaCustomSram::on_reset() {
  in_ctl_.reset();
  out_ctl_.reset();
}

void Saa2VgaCustomSram::report(rtl::PrimitiveTally& t) const {
  // Two hand-written buffer controllers, each structurally identical to
  // the generated container (same pointers, caches and FSM), plus the
  // forwarding gate.
  const int pb = std::max(1, clog2(static_cast<Word>(cfg_.buffer_depth)));
  for (int i = 0; i < 2; ++i) {
    t.regs(2 * pb + 1);  // begin/end pointers + wrap bit
    t.adder(2 * pb);     // pointer increments
    t.regs(2 * 8 + 2);   // front cache + write latch + valid/pend
    t.fsm(3, 6);
    // Region bases are size-aligned: address forming is concatenation.
    t.mux2(pb);          // read/write pointer select
    t.comparator(2 * pb);
  }
  t.lut(2);  // forwarding gate
  t.depth(3);
}

bool Saa2VgaCustomSram::finished() const {
  return src_.done() &&
         vga_.frames().size() == static_cast<std::size_t>(cfg_.frames);
}


void Saa2VgaCustomSram::visit_state(rtl::StateIO& io) {
  for (MemCtl* m : {&in_ctl_, &out_ctl_}) {
    io.bounded(m->state, State::Idle, State::Fetch, "state");
    io(m->head, m->tail, m->count, m->wlatch, m->wpend, m->front,
       m->front_valid, m->base);
  }
}

}  // namespace hwpat::designs
