#include "core/assoc.hpp"

namespace hwpat::core {

struct AssocArrayContainer::Wires {
  Bit a_en, a_we, b_en;
  Bus a_addr, a_wdata, a_rdata, b_addr, b_rdata;

  Wires(Module& owner, int entry_bits, int addr_bits)
      : a_en(owner, "ht_a_en"),
        a_we(owner, "ht_a_we"),
        b_en(owner, "ht_b_en"),
        a_addr(owner, "ht_a_addr", addr_bits),
        a_wdata(owner, "ht_a_wdata", entry_bits),
        a_rdata(owner, "ht_a_rdata", entry_bits),
        b_addr(owner, "ht_b_addr", addr_bits),
        b_rdata(owner, "ht_b_rdata", entry_bits) {}
};

AssocArrayContainer::AssocArrayContainer(Module* parent, std::string name,
                                         Config cfg, AssocImpl p)
    : Container(parent, std::move(name), ContainerKind::AssocArray,
                DeviceKind::BlockRam, cfg.val_bits),
      cfg_(cfg),
      p_(p) {
  HWPAT_ASSERT(cfg_.capacity >= 2);
  if ((cfg_.capacity & (cfg_.capacity - 1)) != 0)
    throw SpecError("assoc_array '" + this->name() +
                    "': capacity must be a power of two");
  if (entry_bits() > kMaxBusBits)
    throw SpecError("assoc_array '" + this->name() +
                    "': key+value too wide for one entry word");
  const int abits = std::max(1, clog2(static_cast<Word>(cfg_.capacity)));
  w_ = std::make_unique<Wires>(*this, entry_bits(), abits);
  bram_ = std::make_unique<devices::BlockRam>(
      this, "ht_ram",
      devices::BramConfig{.data_width = entry_bits(),
                          .depth = cfg_.capacity},
      devices::BramPorts{.a_en = w_->a_en,
                         .a_we = w_->a_we,
                         .a_addr = w_->a_addr,
                         .a_wdata = w_->a_wdata,
                         .a_rdata = w_->a_rdata,
                         .b_en = w_->b_en,
                         .b_addr = w_->b_addr,
                         .b_rdata = w_->b_rdata});
}

AssocArrayContainer::~AssocArrayContainer() = default;

Word AssocArrayContainer::pack(Word state2, Word key, Word val) const {
  return (state2 << (cfg_.key_bits + cfg_.val_bits)) |
         (truncate(key, cfg_.key_bits) << cfg_.val_bits) |
         truncate(val, cfg_.val_bits);
}

void AssocArrayContainer::eval_comb() {
  p_.ready.write(state_ == State::Idle);
  p_.full.write(occupancy_ >= cfg_.capacity);
}

void AssocArrayContainer::declare_state() {
  register_seq(w_->a_en);
  register_seq(w_->a_we);
  register_seq(w_->a_addr);
  register_seq(w_->a_wdata);
  register_seq(p_.rdata);
  register_seq(p_.found);
  register_seq(p_.done);
}

void AssocArrayContainer::issue_read(Word slot) {
  w_->a_en.write(true);
  w_->a_we.write(false);
  w_->a_addr.write(slot);
}

void AssocArrayContainer::on_clock() {
  // eval_comb() reads state_ (ready) and occupancy_ (full) only.
  const State pre_state = state_;
  const int pre_occ = occupancy_;
  // Default: quiet BRAM port and one-cycle done pulse management.
  w_->a_en.write(false);
  w_->a_we.write(false);
  p_.done.write(false);

  switch (state_) {
    case State::Idle: {
      const bool ins = p_.op_insert.read();
      const bool look = p_.op_lookup.read();
      const bool rem = p_.op_remove.read();
      const int nops = (ins ? 1 : 0) + (look ? 1 : 0) + (rem ? 1 : 0);
      if (nops == 0) break;
      if (nops > 1) {
        if (cfg_.strict)
          throw ProtocolError("assoc_array '" + full_name() +
                              "': multiple method strobes in one cycle");
        break;
      }
      op_ = ins ? OpKind::Insert : look ? OpKind::Lookup : OpKind::Remove;
      key_ = truncate(p_.key.read(), cfg_.key_bits);
      val_ = truncate(p_.wdata.read(), cfg_.val_bits);
      slot_ = key_ & static_cast<Word>(cfg_.capacity - 1);  // hash
      have_free_ = false;
      probes_ = 0;
      issue_read(slot_);
      state_ = State::Issue;  // wait one cycle for the BRAM read
      break;
    }
    case State::Issue:
      // The BRAM captured the address last edge; its rdata is valid
      // next cycle, when Probe examines it.
      state_ = State::Probe;
      break;
    case State::Probe: {
      // a_rdata now presents the entry issued last cycle.
      const Word e = w_->a_rdata.read();
      const Word st = e >> (cfg_.key_bits + cfg_.val_bits);
      const Word ekey = truncate(e >> cfg_.val_bits, cfg_.key_bits);
      const Word eval_ = truncate(e, cfg_.val_bits);
      const bool occupied = (st & 0b10) != 0;
      const bool tombstone = st == 0b01;
      const bool empty = st == 0b00;

      if (occupied && ekey == key_) {
        // Key present.
        switch (op_) {
          case OpKind::Insert:  // overwrite value in place
            w_->a_en.write(true);
            w_->a_we.write(true);
            w_->a_addr.write(slot_);
            w_->a_wdata.write(pack(0b10, key_, val_));
            state_ = State::Finish;
            p_.found.write(true);
            break;
          case OpKind::Lookup:
            p_.rdata.write(eval_);
            p_.found.write(true);
            p_.done.write(true);
            state_ = State::Idle;
            break;
          case OpKind::Remove:
            w_->a_en.write(true);
            w_->a_we.write(true);
            w_->a_addr.write(slot_);
            w_->a_wdata.write(pack(0b01, 0, 0));  // tombstone
            --occupancy_;
            p_.found.write(true);
            state_ = State::Finish;
            break;
        }
        break;
      }
      if (tombstone && !have_free_) {
        have_free_ = true;
        first_free_ = slot_;
      }
      if (empty || probes_ + 1 >= cfg_.capacity) {
        // End of probe chain: key absent.
        switch (op_) {
          case OpKind::Insert: {
            if (occupancy_ >= cfg_.capacity) {
              if (cfg_.strict)
                throw ProtocolError("assoc_array '" + full_name() +
                                    "': insert while full");
              p_.found.write(false);
              p_.done.write(true);
              state_ = State::Idle;
              break;
            }
            const Word target =
                have_free_ ? first_free_ : (empty ? slot_ : first_free_);
            w_->a_en.write(true);
            w_->a_we.write(true);
            w_->a_addr.write(target);
            w_->a_wdata.write(pack(0b10, key_, val_));
            ++occupancy_;
            p_.found.write(false);
            state_ = State::Finish;
            break;
          }
          case OpKind::Lookup:
          case OpKind::Remove:
            p_.found.write(false);
            p_.done.write(true);
            state_ = State::Idle;
            break;
        }
        break;
      }
      // Keep probing.
      ++probes_;
      slot_ = (slot_ + 1) & static_cast<Word>(cfg_.capacity - 1);
      issue_read(slot_);
      state_ = State::Issue;  // wait for the new entry to arrive
      break;
    }
    case State::WriteBack:
      state_ = State::Finish;
      break;
    case State::Finish:
      p_.done.write(true);
      state_ = State::Idle;
      break;
  }
  if (state_ != pre_state || occupancy_ != pre_occ) seq_touch();
}

void AssocArrayContainer::on_reset() {
  state_ = State::Idle;
  occupancy_ = 0;
  // Clear the table (hardware would run an init sweep; the model clears
  // the backing store directly, as a configuration-time preload).
  if (bram_) {
    std::vector<Word> zeros(static_cast<std::size_t>(cfg_.capacity), 0);
    bram_->preload(0, zeros);
  }
}

void AssocArrayContainer::report(rtl::PrimitiveTally& t) const {
  const int abits = std::max(1, clog2(static_cast<Word>(cfg_.capacity)));
  t.regs(cfg_.key_bits + cfg_.val_bits);      // key/value operand regs
  t.regs(2 * abits + 1);                      // slot, first_free, flag
  t.regs(bits_for(static_cast<Word>(cfg_.capacity)));  // occupancy
  t.adder(abits);                             // probe advance
  t.adder(bits_for(static_cast<Word>(cfg_.capacity)));
  t.comparator(cfg_.key_bits);                // tag compare
  t.comparator(2);                            // state decode
  t.fsm(5, 12);
  t.mux2(abits);                              // slot vs first_free
  t.depth(3);
}


void AssocArrayContainer::visit_state(rtl::StateIO& io) {
  io.bounded(state_, State::Idle, State::Finish, "state");
  io.bounded(op_, OpKind::Insert, OpKind::Remove, "operation");
  io(key_, val_, slot_, first_free_, have_free_, probes_, occupancy_);
}

}  // namespace hwpat::core
