// Snapshot/restore bodies of the Simulator (format in rtl/snapshot.hpp
// and src/rtl/README.md).
//
// Blob layout (version 1, all integers little-endian):
//
//   magic "HWPS" | version u8 | flags u8 | topology hash u64
//   tick u64 | cycle u64 | per-domain next_edge u64...
//   stats (12 x u64) | domain count u32 | domain_edges u64...
//   signal count u32 | per-signal committed value (SigKind encoding)
//   per-signal fanout: count u32 + module ids u32... (IN LIST ORDER —
//     fanout order determines pending-commit order and therefore VCD
//     emission order during replay, so it is state, not just a cache)
//   module count u32 | per-module: payload length u32 + save_state bytes
//
// flags bit 0 marks a capture by the full-sweep kernel: its fanout
// lists are empty (never traced), so an event-kernel restore re-seeds a
// full settle exactly like the post-bind seeding.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "rtl/simulator.hpp"

namespace hwpat::rtl {

namespace {

constexpr std::uint8_t kMagic[4] = {'H', 'W', 'P', 'S'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFlagFullSweep = 1;

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void mix_str(std::uint64_t& h, const std::string& s) {
  mix(h, s.size());
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t Simulator::topology_hash() const {
  // FNV-1a over everything that identifies the elaboration: module
  // paths and partitions, signal names/owners/kinds/widths, resolved
  // domains.  Two designs agree iff the same tree elaborated with the
  // same parameters — a width or lane-count change renames or re-ids
  // something and the hash moves.
  std::uint64_t h = 1469598103934665603ull;
  mix(h, modules_.size());
  for (const Module* m : modules_) {
    mix_str(h, m->full_name());
    mix(h, static_cast<std::uint64_t>(m->part_));
    mix(h, m->comb_only() ? 1 : 0);
  }
  mix(h, signals_.size());
  for (const SignalBase* s : signals_) {
    mix_str(h, s->name());
    mix(h, static_cast<std::uint64_t>(s->owner().sim_id_));
    mix(h, static_cast<std::uint64_t>(s->width()));
    mix(h, static_cast<std::uint64_t>(s->kind()));
    mix(h, static_cast<std::uint64_t>(s->part_));
    mix(h, s->cdc_cross() ? 1 : 0);
  }
  mix(h, scheds_.size());
  for (const DomainSched& ds : scheds_) {
    mix_str(h, ds.name);
    mix(h, ds.period);
    mix(h, ds.phase);
    mix(h, ds.active.size());
    mix(h, ds.pruned);
  }
  return h;
}

void Simulator::save_module_states(StateWriter& w) const {
  w.u32(static_cast<std::uint32_t>(modules_.size()));
  for (const Module* m : modules_) {
    const std::size_t at = w.mark_u32();
    m->save_state(w);
    w.patch_u32(at, static_cast<std::uint32_t>(w.size() - at - 4));
  }
}

void Simulator::load_module_states(StateReader& r) {
  const std::uint32_t n = r.u32();
  if (n != modules_.size())
    throw SnapshotError("snapshot: module count mismatch (blob has " +
                std::to_string(n) + ", design has " +
                std::to_string(modules_.size()) + ")");
  for (Module* m : modules_) {
    const std::uint32_t len = r.u32();
    if (len > r.remaining())
      throw SnapshotError("snapshot: truncated module payload for '" +
                  m->full_name() + "' (declared " + std::to_string(len) +
                  " byte(s), " + std::to_string(r.remaining()) +
                  " left)");
    const std::size_t before = r.consumed();
    m->load_state(r);
    const std::size_t used = r.consumed() - before;
    if (used != len)
      throw SnapshotError("module '" + m->full_name() +
                          "': load_state() consumed " + std::to_string(used) +
                  " byte(s) but save_state() wrote " +
                  std::to_string(len) +
                  " — the save/load pair is out of sync");
  }
}

Snapshot Simulator::save_snapshot() const {
  if (busy_)
    throw SnapshotError(
        "save_snapshot: called from inside a simulator callback "
        "(mid-event) — snapshots may only be taken between steps");
  if (needs_recovery_)
    throw SnapshotError(
        "save_snapshot: an exception unwound a settle or commit and "
        "left state inconsistent — restore_snapshot() or reset() "
        "first, then retry");
  for (const Partition& p : parts_)
    if (!p.pending.empty() || !p.worklist.empty())
      throw SnapshotError(
          "save_snapshot: uncommitted writes or dirty modules pending "
          "— settle() (or finish the step) before snapshotting");
  // The pending lists cover only the event kernel; the full-sweep
  // kernel commits by scanning every signal, so a testbench write made
  // after the last settle leaves no list trace — scan for it directly.
  for (const SignalBase* s : signals_)
    if (s->has_uncommitted_write())
      throw SnapshotError("save_snapshot: signal '" + s->full_name() +
                  "' has an uncommitted write — settle() (or finish "
                  "the step) before snapshotting");
  const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
  StateWriter w;
  // Byte-at-a-time (identical blob): GCC 12's -Wstringop-overflow
  // misfires on vector::insert of the 4-byte array once this TU's
  // inlining shifts.
  for (const std::uint8_t b : kMagic) w.u8(b);
  w.u8(kVersion);
  w.u8(opt_.full_sweep ? kFlagFullSweep : 0);
  w.u64(topology_hash());
  // Scheduler.
  w.u64(tick_);
  w.u64(cycle_);
  for (const DomainSched& ds : scheds_) w.u64(ds.next_edge);
  // Stats — part of the state so replay-from-restore is byte-identical
  // to the uninterrupted run, counters included.
  w.u64(stats_.steps);
  w.u64(stats_.settles);
  w.u64(stats_.deltas);
  w.u64(stats_.evals);
  w.u64(stats_.commits);
  w.u64(stats_.commit_changes);
  w.u64(stats_.seq_touches);
  w.u64(stats_.seq_skips);
  w.u64(stats_.edges);
  w.u64(stats_.act_skips);
  w.u64(stats_.partition_settles);
  w.u64(stats_.partition_skips);
  w.u32(static_cast<std::uint32_t>(stats_.domain_edges.size()));
  for (const std::uint64_t v : stats_.domain_edges) w.u64(v);
  // Committed signal values.
  w.u32(static_cast<std::uint32_t>(signals_.size()));
  for (const SignalBase* s : signals_) s->save_value_fast(w);
  // Learned fanout lists, in order (see file comment).  Read out of the
  // CSR spans — the bytes are identical to the historical per-signal
  // pointer-vector dump, because the spans hold module ids in the same
  // append order the old lists did.
  for (const SignalBase* s : signals_) {
    const std::int32_t sid = s->id_;
    const std::uint32_t nf = fan_count_[sid];
    w.u32(nf);
    const std::uint32_t fb = fan_begin_[sid];
    for (std::uint32_t k = 0; k < nf; ++k)
      w.u32(static_cast<std::uint32_t>(fan_pool_[fb + k]));
  }
  // Module payloads, length-framed.
  save_module_states(w);
  std::vector<std::uint8_t> bytes = std::move(w).take();
  if (telem_ != nullptr)
    telem_->add(TracePhase::SnapshotSave, t0, telem_->now_ns(),
                bytes.size());
  return Snapshot(std::move(bytes));
}

void Simulator::restore_snapshot(const Snapshot& snap) {
  if (busy_)
    throw SnapshotError(
        "restore_snapshot: called from inside a simulator callback "
        "(mid-event) — the event must finish or abort first; the "
        "simulator is unchanged");
  StateReader r(snap.bytes());
  std::uint8_t magic[4];
  r.bytes(magic, 4);
  if (std::memcmp(magic, kMagic, 4) != 0)
    throw SnapshotError("restore_snapshot: not a hwpat snapshot (bad magic)");
  const std::uint8_t version = r.u8();
  if (version != kVersion)
    throw SnapshotError("restore_snapshot: unsupported snapshot version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kVersion) + ")");
  const std::uint8_t flags = r.u8();
  const bool from_full_sweep = (flags & kFlagFullSweep) != 0;
  const std::uint64_t have = r.u64();
  const std::uint64_t want = topology_hash();
  if (have != want)
    throw SnapshotError("restore_snapshot: topology hash mismatch (snapshot 0x" +
                hex64(have) + ", design '" + top_.name() + "' 0x" +
                hex64(want) +
                ") — the snapshot was taken from a different or "
                "differently-parameterized elaboration");
  // Header validated; mutation begins.
  // The fault engine models the crash, not the design, so it is not
  // serialized — but restoring rolls the timeline back, so the
  // eligible-occurrence counter rewinds with it (a fault that already
  // fired stays fired: replay must not re-crash).
  fault_seen_ = 0;
  const std::uint64_t t0 = telem_ != nullptr ? telem_->now_ns() : 0;
  try {
    // Scheduler.
    tick_ = r.u64();
    cycle_ = r.u64();
    for (DomainSched& ds : scheds_) ds.next_edge = r.u64();
    // Stats.
    stats_.steps = r.u64();
    stats_.settles = r.u64();
    stats_.deltas = r.u64();
    stats_.evals = r.u64();
    stats_.commits = r.u64();
    stats_.commit_changes = r.u64();
    stats_.seq_touches = r.u64();
    stats_.seq_skips = r.u64();
    stats_.edges = r.u64();
    stats_.act_skips = r.u64();
    stats_.partition_settles = r.u64();
    stats_.partition_skips = r.u64();
    const std::uint32_t nd = r.u32();
    if (nd != scheds_.size())
      throw SnapshotError("snapshot: domain count mismatch (blob has " +
                  std::to_string(nd) + ", design has " +
                  std::to_string(scheds_.size()) + ")");
    stats_.domain_edges.resize(nd);
    for (std::uint64_t& v : stats_.domain_edges) v = r.u64();
    // Kernel queues: a snapshot is always quiet (see save_snapshot), so
    // every transient list empties.  settle_seq_/settle_seen reset
    // coherently (their only job is dedup within one settle).
    for (Partition& p : parts_) {
      p.worklist.clear();
      p.pending.clear();
      p.queued = false;
      p.settle_seen = 0;
    }
    settle_seq_ = 0;
    dirty_parts_.clear();
    active_parts_.clear();
    eval_list_.clear();
    touched_.clear();
    const std::size_t nsig = signals_.size();
    const std::size_t nmod = modules_.size();
    std::fill_n(sig_pending_, nsig, static_cast<unsigned char>(0));
    std::fill_n(sig_stamp_, nsig, std::uint64_t{0});
    std::fill_n(sig_mark_, nsig, std::uint64_t{0});
    std::fill_n(last_reader_, nsig, std::int32_t{-1});
    mark_epoch_ = 0;
    eval_stamp_ = 0;
    // Only listed signals carry the vcd mark (sentinel 2 — never
    // sampled — must survive), so clearing the list clears the marks.
    for (const std::int32_t sid : vcd_changed_) sig_vcdmark_[sid] = 0;
    vcd_changed_.clear();
    // Committed signal values.
    const std::uint32_t ns = r.u32();
    if (ns != signals_.size())
      throw SnapshotError("snapshot: signal count mismatch (blob has " +
                  std::to_string(ns) + ", design has " +
                  std::to_string(signals_.size()) + ")");
    for (SignalBase* s : signals_) s->load_value_fast(r);
    // Fanout lists -> CSR, rebuilt in lockstep with the per-module
    // accumulated read sets so the  s ∈ reads(m) ⟺ m ∈ fanout(s)
    // invariant holds at every prefix — a mid-rebuild throw then lands
    // in reset() with a merely partial (monotone-superset-safe)
    // sensitivity, never an inconsistent one.  mod_mark_ detects a
    // duplicated module id inside one signal's list (a corrupted blob
    // the old pointer-vector restore silently tolerated).
    fan_pool_.clear();
    sens_pool_.clear();
    std::fill_n(fan_begin_, nsig, std::uint32_t{0});
    std::fill_n(fan_count_, nsig, std::uint32_t{0});
    std::fill_n(fan_cap_, nsig, std::uint32_t{0});
    std::fill_n(sens_begin_, nmod, std::uint32_t{0});
    std::fill_n(sens_count_, nmod, std::uint32_t{0});
    std::fill_n(sens_cap_, nmod, std::uint32_t{0});
    std::fill_n(mod_mark_, nmod, std::uint64_t{0});
    std::uint64_t pass = 0;
    for (SignalBase* s : signals_) {
      const std::int32_t sid = s->id_;
      const std::uint32_t nf = r.u32();
      ++pass;
      for (std::uint32_t j = 0; j < nf; ++j) {
        const std::uint32_t id = r.u32();
        if (id >= modules_.size())
          throw SnapshotError("snapshot: fanout module id " + std::to_string(id) +
                      " out of range for signal '" + s->full_name() +
                      "'");
        if (mod_mark_[id] == pass)
          throw SnapshotError("snapshot: duplicate fanout module id " +
                      std::to_string(id) + " for signal '" +
                      s->full_name() + "' — corrupted blob");
        mod_mark_[id] = pass;
        fan_push(sid, static_cast<std::int32_t>(id));
        sens_push(static_cast<std::int32_t>(id), sid);
      }
    }
    std::fill_n(mod_dirty_, nmod, static_cast<unsigned char>(0));
    for (Module* m : modules_) m->seq_touched_ = false;
    // Module payloads.
    load_module_states(r);
    if (r.remaining() != 0)
      throw SnapshotError("snapshot: " + std::to_string(r.remaining()) +
                  " trailing byte(s) after the last module payload — "
                  "corrupted blob");
    if (!opt_.full_sweep && from_full_sweep) {
      // Full-sweep captures carry no learned sensitivity: seed a full
      // settle, exactly like the post-bind seeding.
      for (SignalBase* s : signals_) {
        sig_pending_[s->id_] = 1;
        s->queue_->push_back(s->id_);
      }
      mark_all_modules_dirty();
    }
    if (vcd_) vcd_full_pending_ = true;
    needs_recovery_ = false;
    if (telem_ != nullptr)
      telem_->add(TracePhase::SnapshotRestore, t0, telem_->now_ns(),
                  snap.size_bytes());
  } catch (const Error& e) {
    // Corruption detected after mutation began: never leave the
    // simulator half-restored — fall back to construction state.
    reset();
    throw SnapshotError(std::string(e.what()) +
                        "; the simulator was reset to construction state");
  } catch (...) {
    reset();
    throw;
  }
}

}  // namespace hwpat::rtl
