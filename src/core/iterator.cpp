#include "core/iterator.hpp"

namespace hwpat::core {

Iterator::Iterator(Module* parent, std::string name, Spec spec,
                   ContainerKind bound_kind)
    : Module(parent, std::move(name)), spec_(spec), bound_kind_(bound_kind) {
  if (!iterator_admissible(bound_kind, spec_.traversal, spec_.role))
    throw SpecError("iterator '" + this->name() + "': a " +
                    to_string(spec_.traversal) + " " + to_string(spec_.role) +
                    " iterator is not admissible over a " +
                    to_string(bound_kind) + " (Table 1)");
  const OpSet admissible = ops_for(spec_.traversal, spec_.role);
  if (spec_.used_ops.empty()) {
    spec_.used_ops = admissible;
  } else if (!spec_.used_ops.subset_of(admissible)) {
    throw SpecError("iterator '" + this->name() + "': used ops " +
                    spec_.used_ops.str() + " exceed the admissible set " +
                    admissible.str() + " (Table 2)");
  }
}

bool Iterator::guard_strobes(const IterImpl& p) const {
  struct Probe {
    Op op;
    bool asserted;
  };
  const Probe probes[] = {
      {Op::Inc, p.inc.read()},    {Op::Dec, p.dec.read()},
      {Op::Read, p.read.read()},  {Op::Write, p.write.read()},
      {Op::Index, p.index_op.read()},
  };
  for (const auto& pr : probes) {
    if (pr.asserted && !ops().contains(pr.op)) {
      if (spec().strict)
        throw ProtocolError("iterator '" + full_name() + "': operation '" +
                            to_string(pr.op) +
                            "' strobed but not implemented (ops " +
                            ops().str() + ")");
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// StreamInputIterator
// ---------------------------------------------------------------------

StreamInputIterator::StreamInputIterator(Module* parent, std::string name,
                                         Spec spec, ContainerKind bound_kind,
                                         StreamConsumer c, IterImpl p)
    : Iterator(parent, std::move(name), spec, bound_kind), c_(c), p_(p) {
  if (this->spec().role != IterRole::Input)
    throw SpecError("iterator '" + this->name() +
                    "': StreamInputIterator requires the Input role");
}

const Bit& StreamInputIterator::advance_strobe() const {
  return spec().traversal == Traversal::Backward ? p_.dec : p_.inc;
}

void StreamInputIterator::eval_comb() {
  // Pure renaming: this is the logic that "dissolves at synthesis".
  p_.ready.write(c_.can_pop.read());
  p_.rvalid.write(c_.can_pop.read());
  p_.rdata.write(c_.front.read());
  c_.pop.write(advance_strobe().read() && c_.can_pop.read());
}

void StreamInputIterator::on_clock() {
  if (!guard_strobes(p_)) return;
  if (advance_strobe().read() && !c_.can_pop.read() && spec().strict)
    throw ProtocolError("iterator '" + full_name() +
                        "': advance while not ready (container empty or "
                        "busy)");
}

// ---------------------------------------------------------------------
// StreamOutputIterator
// ---------------------------------------------------------------------

StreamOutputIterator::StreamOutputIterator(Module* parent, std::string name,
                                           Spec spec,
                                           ContainerKind bound_kind,
                                           StreamProducer pr, IterImpl p)
    : Iterator(parent, std::move(name), spec, bound_kind), pr_(pr), p_(p) {
  if (this->spec().role != IterRole::Output)
    throw SpecError("iterator '" + this->name() +
                    "': StreamOutputIterator requires the Output role");
}

void StreamOutputIterator::eval_comb() {
  p_.ready.write(pr_.can_push.read());
  p_.rvalid.write(false);
  p_.rdata.write(0);
  pr_.push.write(p_.write.read() && pr_.can_push.read());
  pr_.push_data.write(p_.wdata.read());
}

void StreamOutputIterator::on_clock() {
  if (!guard_strobes(p_)) return;
  if (p_.write.read() && !pr_.can_push.read() && spec().strict)
    throw ProtocolError("iterator '" + full_name() +
                        "': write while not ready (container full or busy)");
}

// ---------------------------------------------------------------------
// VectorRandomIterator
// ---------------------------------------------------------------------

VectorRandomIterator::VectorRandomIterator(Module* parent, std::string name,
                                           Spec spec, RandomClient rc,
                                           IterImpl p, int length)
    : Iterator(parent, std::move(name), spec, ContainerKind::Vector),
      rc_(rc),
      p_(p),
      length_(length) {
  if (this->spec().traversal != Traversal::Random)
    throw SpecError("iterator '" + this->name() +
                    "': VectorRandomIterator requires random traversal");
  HWPAT_ASSERT(length_ >= 1);
}

void VectorRandomIterator::eval_comb() {
  p_.ready.write(rc_.ready.read());
  p_.rvalid.write(rc_.rvalid.read());
  p_.rdata.write(rc_.rdata.read());
  rc_.addr.write(pos_);
  rc_.wdata.write(p_.wdata.read());
  rc_.read.write(p_.read.read() && rc_.ready.read());
  rc_.write.write(p_.write.read() && rc_.ready.read());
}

void VectorRandomIterator::on_clock() {
  if (!guard_strobes(p_)) return;
  if ((p_.read.read() || p_.write.read()) && !rc_.ready.read() &&
      spec().strict)
    throw ProtocolError("iterator '" + full_name() +
                        "': access while container busy");
  if (p_.index_op.read()) {
    const Word np = p_.index_pos.read();
    if (np >= static_cast<Word>(length_) && spec().strict)
      throw ProtocolError("iterator '" + full_name() + "': index " +
                          std::to_string(np) + " out of range");
    const Word next = np % static_cast<Word>(length_);
    if (next != pos_) {
      pos_ = next;
      seq_touch();
    }
  }
}

void VectorRandomIterator::on_reset() { pos_ = 0; }

void VectorRandomIterator::report(rtl::PrimitiveTally& t) const {
  const int pbits = std::max(1, clog2(static_cast<Word>(length_)));
  // The position register exists only when `index` is used; without it
  // the iterator degenerates to a fixed-position wrapper.
  if (ops().contains(Op::Index)) {
    t.regs(pbits);
    t.lut(1);  // load enable
    t.depth(1);
  }
}

// ---------------------------------------------------------------------
// VectorSeqIterator
// ---------------------------------------------------------------------

VectorSeqIterator::VectorSeqIterator(Module* parent, std::string name,
                                     Spec spec, Config cfg, RandomClient rc,
                                     IterImpl p)
    : Iterator(parent, std::move(name), spec, ContainerKind::Vector),
      cfg_(cfg),
      rc_(rc),
      p_(p),
      pos_(cfg.start_pos) {
  if (this->spec().traversal == Traversal::Random)
    throw SpecError("iterator '" + this->name() +
                    "': VectorSeqIterator requires sequential traversal");
  HWPAT_ASSERT(cfg_.length >= 1);
  HWPAT_ASSERT(cfg_.start_pos < static_cast<Word>(cfg_.length));
}

void VectorSeqIterator::eval_comb() {
  p_.ready.write(rc_.ready.read());
  p_.rvalid.write(rc_.rvalid.read());
  p_.rdata.write(rc_.rdata.read());
  rc_.addr.write(pos_);
  rc_.wdata.write(p_.wdata.read());
  rc_.read.write(p_.read.read() && rc_.ready.read());
  rc_.write.write(p_.write.read() && rc_.ready.read());
}

void VectorSeqIterator::on_clock() {
  if (!guard_strobes(p_)) return;
  if ((p_.read.read() || p_.write.read()) && !rc_.ready.read() &&
      spec().strict)
    throw ProtocolError("iterator '" + full_name() +
                        "': access while container busy");
  const auto len = static_cast<Word>(cfg_.length);
  const Word pre = pos_;
  if (p_.inc.read()) pos_ = (pos_ + 1) % len;
  if (p_.dec.read()) pos_ = (pos_ + len - 1) % len;
  if (pos_ != pre) seq_touch();
}

void VectorSeqIterator::on_reset() { pos_ = cfg_.start_pos; }

void VectorSeqIterator::report(rtl::PrimitiveTally& t) const {
  const int pbits = std::max(1, clog2(static_cast<Word>(cfg_.length)));
  t.regs(pbits);  // the position register of the ConcreteIterator
  // Dead-operation elimination: the increment/decrement datapath exists
  // only for the operations the design uses.
  if (ops().contains(Op::Inc)) {
    t.adder(pbits);
    t.comparator(pbits);  // wrap at length-1
  }
  if (ops().contains(Op::Dec)) {
    t.adder(pbits);
    t.comparator(pbits);  // wrap at 0
  }
  if (ops().contains(Op::Inc) && ops().contains(Op::Dec)) t.mux2(pbits);
  t.depth(2);
}


void VectorRandomIterator::visit_state(rtl::StateIO& io) {
  io(pos_);
}

void VectorSeqIterator::visit_state(rtl::StateIO& io) {
  io(pos_);
}

}  // namespace hwpat::core
