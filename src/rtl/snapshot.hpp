// Snapshot: versioned, self-describing serialization of complete
// simulator state.
//
// A snapshot captures everything the kernel needs to replay
// deterministically from the capture point: every signal's committed
// value, every module's internal C++ state (via Module::visit_state),
// and the scheduler (tick, per-domain next edges, stats counters).  The
// blob is guarded by a topology hash of the elaborated design so
// restoring into a mismatched or differently-parameterized design
// throws SnapshotError instead of silently corrupting.
//
// StateWriter/StateReader are the little-endian byte codecs.  All
// multi-byte integers are stored little-endian regardless of host
// order, so blobs are portable across builds of the same design.  A
// word array (BlockRam, FIFO and SRAM storage, video frames) is one
// block: a u64 element count, then every element as a little-endian
// u64; a paged SRAM image (rtl/paged_words.hpp) is written the same
// way, its absent pages as zeros.  On a little-endian host that block
// is the vector's own memory, so it moves in one copy each way; the
// per-element loop runs only on big-endian hosts.  StateReader throws
// SnapshotError on any truncated read, which is what turns a corrupted
// blob into a clean failure.
//
// StateIO runs one field list in either direction: a module names its
// state once, in visit_state(), and the same code saves and restores
// it, so the two can no longer drift apart.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "rtl/paged_words.hpp"

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

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
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
    word_block(v.data(), v.size());
  }

  /// `n` words without a count prefix.
  void word_block(const Word* p, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little)
      bytes(p, n * sizeof(Word));
    else
      for (std::size_t i = 0; i < n; ++i) u64(p[i]);
  }

  /// `n` zero words (an absent page of a PagedWords).
  void zero_words(std::size_t n) {
    buf_.resize(buf_.size() + n * sizeof(Word));
  }

  /// Room for `n` more bytes, so a run of small appends grows the
  /// buffer once.
  void reserve_more(std::size_t n) { buf_.reserve(buf_.size() + n); }

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

  void bytes(void* p, std::size_t n) {
    need(n, "raw bytes");
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    bytes(&v, sizeof v);
    return v;
  }

  /// A word array whose length the blob decides (u64 count + block).
  void words(std::vector<Word>& out) {
    const std::uint64_t n = u64();
    need_words(n);
    out.resize(static_cast<std::size_t>(n));
    word_block(out.data(), out.size());
  }

  /// The `n` words of a block whose count was already read.
  void word_block(Word* out, std::size_t n) {
    need_words(n);
    if constexpr (std::endian::native == std::endian::little) {
      if (n != 0) bytes(out, n * sizeof(Word));
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = u64();
    }
  }

  /// Skips the next `n` (at most one page of) words when all of them
  /// are zero, which the bytes show on any host; returns whether it did.
  bool skip_zero_words(std::size_t n) {
    HWPAT_ASSERT(n <= PagedWords::kPageWords);
    need_words(n);
    const std::size_t bytes = n * sizeof(Word);
    if (std::memcmp(data_ + pos_, PagedWords::kZeroPage, bytes) != 0)
      return false;
    pos_ += bytes;
    return true;
  }

  /// A reader over the next `n` bytes, which this reader skips.
  [[nodiscard]] StateReader slice(std::size_t n, const char* what) {
    need(n, what);
    const StateReader sub(data_ + pos_, n);
    pos_ += n;
    return sub;
  }

  [[nodiscard]] std::size_t consumed() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > size_ - pos_) truncated(std::to_string(n) + " more byte(s)", what);
  }

  // Divide, never multiply: a corrupted count >= 2^61 would wrap
  // n * 8 into a small byte count that passes the check.
  void need_words(std::uint64_t n) const {
    if (n > remaining() / sizeof(Word))
      truncated(std::to_string(n) + " word(s)", "word vector");
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

/// One description of a module's state, run in either direction: over
/// a StateWriter it saves each field it is handed, over a StateReader
/// it overwrites each field from the blob, so `io(head_, count_, mem_)`
/// is both halves.  Encodings by field type: int i64; Word, uint64_t
/// and size_t u64; uint32_t u32; bool u8; std::vector<Word> and
/// PagedWords a u64 count and a block, where the count must equal the
/// array's size (storage is sized at construction).  Index fields and
/// enums go through bounded() instead.  Reading throws SnapshotError on
/// a truncated payload, an out-of-range int or a mismatched count.
class StateIO {
 public:
  /// Blob is the snapshot format.  Baseline is the simulator's private
  /// construction-time image that reset() reloads: the same encoding,
  /// except that a PagedWords lists only its present pages, so an idle
  /// 2^16-word SRAM costs four bytes.  Baseline bytes never leave the
  /// simulator.
  enum class Encoding : bool { Blob, Baseline };

  explicit StateIO(StateWriter& w, Encoding e = Encoding::Blob)
      : w_(&w), baseline_(e == Encoding::Baseline) {}
  explicit StateIO(StateReader& r, Encoding e = Encoding::Blob)
      : r_(&r), baseline_(e == Encoding::Baseline) {}

  [[nodiscard]] bool reading() const { return r_ != nullptr; }

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (field(fields), ...);
  }

  /// A field whose value must lie in [lo, hi]: an index or count into
  /// storage sized by the design, or an enum up to its last enumerator.
  /// Same encoding as the plain field; reading throws SnapshotError
  /// when the blob's value is out of range, before anything indexes
  /// with it.
  template <typename T>
  void bounded(T& v, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
               const char* what) {
    if constexpr (std::is_enum_v<T>) {
      auto u = static_cast<std::uint32_t>(v);
      bounded(u, static_cast<std::uint32_t>(lo),
              static_cast<std::uint32_t>(hi), what);
      v = static_cast<T>(u);
    } else {
      field(v);
      if (reading() && (v < lo || v > hi))
        throw SnapshotError("snapshot: " + std::string(what) + " holds " +
                            std::to_string(v) + ", outside [" +
                            std::to_string(lo) + ", " + std::to_string(hi) +
                            "]");
    }
  }

  /// A u32 element count fixed by the design (one entry per arbiter
  /// master, per clock domain): reading throws SnapshotError unless
  /// the blob's count equals `n`.
  void count(std::size_t n, const char* what) {
    if (!reading()) return w_->u32(static_cast<std::uint32_t>(n));
    const std::uint32_t have = r_->u32();
    if (have != n)
      throw SnapshotError("snapshot: " + std::string(what) +
                          " count mismatch (blob has " +
                          std::to_string(have) + ", design has " +
                          std::to_string(n) + ")");
  }

  /// A word array that grows at run time (a testbench's collected
  /// output): same encoding as a fixed one, but the blob sets the size.
  void word_list(std::vector<Word>& v) {
    if (reading()) r_->words(v);
    else w_->words(v);
  }

  /// The words of an array whose u64 count the visit has already
  /// handled, for a visit that must check the count before it sizes
  /// the array.
  void word_block(std::vector<Word>& v) {
    if (reading()) r_->word_block(v.data(), v.size());
    else w_->word_block(v.data(), v.size());
  }

  /// Payload bytes left to read; 0 while writing.  Lets a visit bound
  /// a variable element count before it allocates for it.
  [[nodiscard]] std::size_t remaining() const {
    return reading() ? r_->remaining() : 0;
  }

 private:
  void field(int& v) {
    if (!reading()) return w_->i64(v);
    const std::int64_t x = r_->i64();
    if (x < std::numeric_limits<int>::min() ||
        x > std::numeric_limits<int>::max())
      throw SnapshotError("snapshot: int field holds " + std::to_string(x));
    v = static_cast<int>(x);
  }

  void field(bool& v) {
    if (reading()) v = r_->boolean();
    else w_->boolean(v);
  }

  void field(std::uint32_t& v) {
    if (reading()) v = r_->u32();
    else w_->u32(v);
  }

  template <std::unsigned_integral T>
    requires(sizeof(T) == sizeof(std::uint64_t))
  void field(T& v) {
    if (reading()) v = static_cast<T>(r_->u64());
    else w_->u64(v);
  }

  /// The u64 count of a word array sized by the design.
  void fixed_count(std::size_t size) {
    std::uint64_t n = size;
    field(n);
    if (n != size)
      throw SnapshotError("snapshot: word vector of " + std::to_string(n) +
                          " word(s) in the blob, " + std::to_string(size) +
                          " in the design");
  }

  void field(std::vector<Word>& v) {
    fixed_count(v.size());
    word_block(v);
  }

  void field(PagedWords& v) {
    if (baseline_) return present_pages(v);
    // Blob: the std::vector<Word> encoding of the same size.  Absent
    // pages are written as zeros; a restored page that holds only
    // zeros is dropped, so the restored image is as sparse as it can be.
    fixed_count(v.size());
    if (!reading()) w_->reserve_more(v.size() * sizeof(Word));
    for (std::size_t p = 0; p < v.page_count(); ++p) {
      const std::size_t pw = v.page_words(p);
      if (!reading()) {
        if (const Word* w = v.page(p)) w_->word_block(w, pw);
        else w_->zero_words(pw);
        continue;
      }
      if (r_->skip_zero_words(pw)) v.drop_page(p);
      else r_->word_block(v.touch_page(p), pw);
    }
  }

  /// Baseline encoding of a PagedWords: a u32 count of present pages,
  /// then each as its u32 index and its block.  Reading drops every
  /// page the list does not name.
  void present_pages(PagedWords& v) {
    if (!reading()) {
      w_->u32(static_cast<std::uint32_t>(v.resident_pages()));
      for (std::size_t p = 0; p < v.page_count(); ++p)
        if (const Word* w = v.page(p)) {
          w_->u32(static_cast<std::uint32_t>(p));
          w_->word_block(w, v.page_words(p));
        }
      return;
    }
    const std::uint32_t k = r_->u32();
    std::size_t next = 0;  // pages below `next` are settled
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t p = r_->u32();
      if (p < next || p >= v.page_count())
        throw SnapshotError("snapshot: page index " + std::to_string(p) +
                            " out of order or past " +
                            std::to_string(v.page_count()) + " page(s)");
      for (; next < p; ++next) v.drop_page(next);
      r_->word_block(v.touch_page(p), v.page_words(p));
      next = p + 1;
    }
    for (; next < v.page_count(); ++next) v.drop_page(next);
  }

  StateWriter* w_ = nullptr;
  StateReader* r_ = nullptr;
  bool baseline_ = false;
};

}  // namespace hwpat::rtl
