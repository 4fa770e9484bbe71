#include "devices/arbiter.hpp"

namespace hwpat::devices {

SramArbiter::SramArbiter(Module* parent, std::string name, ArbPolicy policy,
                         std::vector<ArbMasterPorts> masters,
                         ArbSlavePorts slave)
    : Module(parent, std::move(name)),
      policy_(policy),
      masters_(std::move(masters)),
      slave_(slave),
      grant_counts_(masters_.size(), 0) {
  HWPAT_ASSERT(!masters_.empty());
  for (const auto& m : masters_) {
    HWPAT_ASSERT(m.req && m.we && m.addr && m.wdata && m.ack && m.rdata);
  }
}

int SramArbiter::pick() const {
  const int n = num_masters();
  if (policy_ == ArbPolicy::FixedPriority) {
    for (int i = 0; i < n; ++i)
      if (masters_[static_cast<std::size_t>(i)].req->read()) return i;
    return -1;
  }
  for (int k = 0; k < n; ++k) {
    const int i = (rr_next_ + k) % n;
    if (masters_[static_cast<std::size_t>(i)].req->read()) return i;
  }
  return -1;
}

void SramArbiter::eval_comb() {
  // Route the granted master through to the slave; everyone else sees a
  // quiet bus.  The grant itself is registered, so there is no
  // combinational path from req to grant.
  for (const auto& m : masters_) {
    m.ack->write(false);
    m.rdata->write(slave_.rdata->read());
  }
  if (grant_ >= 0) {
    const auto& g = masters_[static_cast<std::size_t>(grant_)];
    slave_.req->write(g.req->read());
    slave_.we->write(g.we->read());
    slave_.addr->write(g.addr->read());
    slave_.wdata->write(g.wdata->read());
    g.ack->write(slave_.ack->read());
  } else {
    slave_.req->write(false);
    slave_.we->write(false);
    slave_.addr->write(0);
    slave_.wdata->write(0);
  }
}

void SramArbiter::declare_state() {
  // on_clock() writes no signals; eval_comb() reads grant_ (rr_next_
  // and grant_counts_ only feed future on_clock() decisions).
  declare_seq_state();
}

void SramArbiter::on_clock() {
  if (grant_ >= 0) {
    // Release after the slave acknowledged, or if the master withdrew.
    const auto& g = masters_[static_cast<std::size_t>(grant_)];
    if (slave_.ack->read() || !g.req->read()) {
      if (policy_ == ArbPolicy::RoundRobin)
        rr_next_ = (grant_ + 1) % num_masters();
      grant_ = -1;
      seq_touch();
    }
    return;
  }
  const int next = pick();
  if (next >= 0) {
    grant_ = next;
    ++grant_counts_[static_cast<std::size_t>(next)];
    seq_touch();
  }
}

void SramArbiter::on_reset() {
  grant_ = -1;
  rr_next_ = 0;
  std::fill(grant_counts_.begin(), grant_counts_.end(), 0);
}

void SramArbiter::report(rtl::PrimitiveTally& t) const {
  const int n = num_masters();
  const int gbits = std::max(1, clog2(static_cast<Word>(n) + 1));
  const int path_bits = slave_.addr->width() + slave_.wdata->width() + 2;
  t.regs(gbits + (policy_ == ArbPolicy::RoundRobin ? gbits : 0));
  t.muxn(n, path_bits);       // master -> slave routing
  t.lut(n + gbits);           // request priority encode / grant decode
  t.depth(2 + clog2(static_cast<Word>(n)));
}


void SramArbiter::visit_state(rtl::StateIO& io) {
  io.bounded(grant_, -1, num_masters() - 1, "grant");
  io.bounded(rr_next_, 0, num_masters() - 1, "round-robin pointer");
  // One counter per master: a blob with any other count would leave
  // the next grant indexing past the table.
  io.count(grant_counts_.size(), "grant counter");
  for (std::uint64_t& c : grant_counts_) io(c);
}

}  // namespace hwpat::devices
