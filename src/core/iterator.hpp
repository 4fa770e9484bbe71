// Iterator: base class of every ConcreteIterator in the hardware
// Iterator pattern (Fig. 2 of the paper).
//
// An iterator is instantiated at design time (the paper: "due to the
// static nature of hardware ... iterators must be instantiated at
// design time"), binds to exactly one container, and exposes the
// operation subset of Table 2 admitted by its traversal and role —
// *minus* any operations the design does not use (`used_ops`), which is
// the generator's dead-operation elimination: an operation that is not
// in `used_ops` gets no ports and no logic, and strobing it is a model
// bug (ProtocolError in strict mode).
#pragma once

#include "core/container.hpp"
#include "core/ops.hpp"
#include "core/ports.hpp"

namespace hwpat::core {

class Iterator : public rtl::Module {
 public:
  struct Spec {
    Traversal traversal = Traversal::Forward;
    IterRole role = IterRole::Input;
    /// Operations the design actually exercises.  Empty (the default)
    /// means "all operations admissible for traversal+role".
    OpSet used_ops{};
    bool strict = true;
  };

  Iterator(Module* parent, std::string name, Spec spec,
           ContainerKind bound_kind);

  [[nodiscard]] const Spec& spec() const { return spec_; }
  [[nodiscard]] ContainerKind bound_kind() const { return bound_kind_; }
  /// The operation set this iterator implements.
  [[nodiscard]] OpSet ops() const { return spec_.used_ops; }

 protected:
  /// Raises ProtocolError when a strobe outside ops() is asserted
  /// (strict mode); returns true when all strobes are admissible.
  bool guard_strobes(const IterImpl& p) const;

 private:
  Spec spec_;
  ContainerKind bound_kind_;
};

/// Input iterator over the consumer side of a stream container
/// (read buffer, queue front, stack top, line-buffer columns).
///
/// A pure wrapper — "iterators are only wrappers that will be dissolved
/// at the time of synthesizing the design" (§4): ready/rvalid rename
/// can_pop, rdata renames front, and the advance strobe (inc for
/// forward traversal, dec for the backward traversal of a stack)
/// renames pop.  report() is empty.
class StreamInputIterator : public Iterator {
 public:
  StreamInputIterator(Module* parent, std::string name, Spec spec,
                      ContainerKind bound_kind, StreamConsumer c,
                      IterImpl p);

  void eval_comb() override;
  void on_clock() override;
  // on_clock() only validates the strobe protocol (it may throw, never
  // writes): a dissolving wrapper with no sequential state at all.
  void declare_state() override { declare_seq_state(); }

 private:
  [[nodiscard]] const Bit& advance_strobe() const;

  StreamConsumer c_;
  IterImpl p_;
};

/// Output iterator over the producer side of a stream container
/// (write buffer, queue back, stack push).  Also a pure wrapper.
class StreamOutputIterator : public Iterator {
 public:
  StreamOutputIterator(Module* parent, std::string name, Spec spec,
                       ContainerKind bound_kind, StreamProducer pr,
                       IterImpl p);

  void eval_comb() override;
  void on_clock() override;
  // Protocol checks only in on_clock(): no sequential state.
  void declare_state() override { declare_seq_state(); }

 private:
  StreamProducer pr_;
  IterImpl p_;
};

/// Random iterator over a vector container: read/write/index (Table 2
/// grants random iterators no inc/dec — sequential traversal of a
/// vector uses VectorSeqIterator instead).
class VectorRandomIterator : public Iterator {
 public:
  VectorRandomIterator(Module* parent, std::string name, Spec spec,
                       RandomClient rc, IterImpl p, int length);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  // The position register is internal state read by eval_comb();
  // on_clock() reports its changes via seq_touch().
  void declare_state() override { declare_seq_state(); }
  void visit_state(rtl::StateIO& io) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] Word position() const { return pos_; }

 private:
  RandomClient rc_;
  IterImpl p_;
  int length_;
  Word pos_ = 0;
};

/// Sequential (forward / backward / bidirectional) iterator over a
/// vector container.  Keeps the current position in a register and
/// advances it with inc/dec; read/write access the element at the
/// current position through the container's random port.
class VectorSeqIterator : public Iterator {
 public:
  struct Config {
    int length = 0;     ///< container length (wraps modulo length)
    Word start_pos = 0; ///< initial position (e.g. length-1 backward)
  };

  VectorSeqIterator(Module* parent, std::string name, Spec spec,
                    Config cfg, RandomClient rc, IterImpl p);

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  // Position register changes are reported via seq_touch().
  void declare_state() override { declare_seq_state(); }
  void visit_state(rtl::StateIO& io) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] Word position() const { return pos_; }

 private:
  Config cfg_;
  RandomClient rc_;
  IterImpl p_;
  Word pos_;
};

}  // namespace hwpat::core
