// Snapshot: versioned, self-describing serialization of complete
// simulator state.
//
// A snapshot captures everything the kernel needs to replay
// deterministically from the capture point: every signal's committed
// value, every module's internal C++ state (via the
// Module::save_state/load_state hooks), and the scheduler (tick,
// per-domain next edges, stats counters).  The blob is guarded by a
// topology hash of the elaborated design so restoring into a
// mismatched or differently-parameterized design throws SnapshotError
// instead of silently corrupting.
//
// StateWriter/StateReader are the little-endian byte codecs the hooks
// write through.  All multi-byte integers are stored little-endian
// regardless of host order, so blobs are portable across builds of the
// same design.  A word array (BlockRam, FIFO and SRAM storage, video
// frames) is one block: a u64 element count, then every element as a
// little-endian u64.  On a little-endian host that block is the
// vector's own memory, so it moves in one copy each way; the
// per-element loop runs only on big-endian hosts.  StateReader throws
// SnapshotError on any truncated read, which is what turns a corrupted
// blob into a clean failure.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace hwpat::rtl {

/// Opaque serialized simulator state.  Produced by
/// Simulator::save_snapshot(), consumed by Simulator::restore_snapshot().
/// The raw bytes are exposed so snapshots can be written to disk,
/// compared for bit-stability, or (in tests) deliberately corrupted.
class Snapshot {
 public:
  Snapshot() = default;
  explicit Snapshot(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t size_bytes() const { return bytes_.size(); }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }

  friend bool operator==(const Snapshot&, const Snapshot&) = default;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Append-only little-endian encoder for snapshot payloads.
class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void boolean(bool v) { u8(v ? 1 : 0); }
  void word(Word v) { u64(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(int v) { i64(v); }

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

  /// Raw-bytes escape hatch for trivially-copyable values whose layout
  /// is process-internal (Signal<T> kOther payloads).  Not stable
  /// across compilers — signals carrying such types should be rare.
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }

  void words(const std::vector<Word>& v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little)
      bytes(v.data(), v.size() * sizeof(Word));
    else
      for (Word w : v) u64(w);
  }

  /// Reserves a 4-byte length slot; patch it later with patch_u32().
  [[nodiscard]] std::size_t mark_u32() {
    const std::size_t at = buf_.size();
    u32(0);
    return at;
  }

  void patch_u32(std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder.  Every read validates the
/// remaining byte count and throws SnapshotError("snapshot: truncated
/// ...") on underrun, so corrupted blobs fail loudly instead of
/// reading junk.
class StateReader {
 public:
  StateReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  explicit StateReader(const std::vector<std::uint8_t>& bytes)
      : StateReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }

  bool boolean() { return u8() != 0; }
  Word word() { return u64(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  int i32() { return static_cast<int>(i64()); }

  void bytes(void* p, std::size_t n) {
    need(n, "raw bytes");
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n, "string");
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    bytes(&v, sizeof v);
    return v;
  }

  void words(std::vector<Word>& out) {
    const std::uint64_t n = u64();
    // Divide, never multiply: a corrupted count >= 2^61 would wrap
    // n * 8 into a small byte count that passes the check.
    if (n > remaining() / sizeof(Word))
      truncated(std::to_string(n) + " word(s)", "word vector");
    out.resize(static_cast<std::size_t>(n));
    if constexpr (std::endian::native == std::endian::little) {
      if (n != 0) bytes(out.data(), out.size() * sizeof(Word));
    } else {
      for (auto& w : out) w = u64();
    }
  }

  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > size_ - pos_) truncated(std::to_string(n) + " more byte(s)", what);
  }

  [[noreturn]] void truncated(const std::string& amount,
                              const char* what) const {
    throw SnapshotError("snapshot: truncated blob (need " + amount + " for " +
                        what + ", have " + std::to_string(size_ - pos_) +
                        " of " + std::to_string(size_) + ")");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace hwpat::rtl
