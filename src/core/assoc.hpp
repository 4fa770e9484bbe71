// AssocArrayContainer: the associative container of Table 1 — random
// keyed access, no sequential traversal, hence no iterators.  Access
// goes through the container method interface (insert / lookup /
// remove).
//
// Implementation: open-addressed hash table with linear probing over a
// dual-state-bit entry encoding, stored in one on-chip block RAM:
//
//   entry = [ state(2) | key(K) | value(V) ]   state: 00 empty,
//                                              01 tombstone, 1x occupied
//
// Probing walks from hash(key) = key mod capacity; tombstones keep
// probe chains intact across removals and are recycled by inserts.
// One probe costs one BRAM access (one cycle), so an operation takes
// 2 + probe-length cycles.
#pragma once

#include <memory>

#include "core/container.hpp"
#include "devices/bram.hpp"

namespace hwpat::core {

class AssocArrayContainer : public Container {
 public:
  struct Config {
    int key_bits = 8;
    int val_bits = 8;
    int capacity = 256;  ///< must be a power of two (hash = low key bits)
    bool strict = true;
  };

  AssocArrayContainer(Module* parent, std::string name, Config cfg,
                      AssocImpl p);
  ~AssocArrayContainer() override;  // out-of-line: Wires is incomplete here

  void eval_comb() override;
  void on_clock() override;
  void on_reset() override;
  void declare_state() override;
  void visit_state(rtl::StateIO& io) override;
  void report(rtl::PrimitiveTally& t) const override;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] int occupancy() const { return occupancy_; }

 private:
  enum class OpKind { Insert, Lookup, Remove };
  enum class State { Idle, Issue, Probe, WriteBack, Finish };

  [[nodiscard]] int entry_bits() const {
    return 2 + cfg_.key_bits + cfg_.val_bits;
  }
  [[nodiscard]] Word pack(Word state2, Word key, Word val) const;
  void issue_read(Word slot);

  Config cfg_;
  AssocImpl p_;
  struct Wires;
  std::unique_ptr<Wires> w_;
  std::unique_ptr<devices::BlockRam> bram_;

  State state_ = State::Idle;
  OpKind op_ = OpKind::Lookup;
  Word key_ = 0;
  Word val_ = 0;
  Word slot_ = 0;        // current probe slot
  Word first_free_ = 0;  // first tombstone seen during an insert probe
  bool have_free_ = false;
  int probes_ = 0;
  int occupancy_ = 0;
};

}  // namespace hwpat::core
