// PagedWords: a fixed-size word array stored as 4 KiB pages that exist
// only once written.
//
// An absent page reads as zero, and writing zero into an absent page
// allocates nothing, so a 2^16-word off-chip SRAM image whose design
// touches one region costs one page, not 512 KiB.  The page table is
// the only storage sized by the array.  StateIO (rtl/snapshot.hpp)
// encodes the array in a snapshot blob exactly like a std::vector<Word>
// of the same size, so paging is invisible in the blob bytes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace hwpat::rtl {

class PagedWords {
 public:
  static constexpr std::size_t kPageShift = 9;
  static constexpr std::size_t kPageWords = std::size_t{1} << kPageShift;
  /// What an absent page reads as.
  static constexpr Word kZeroPage[kPageWords] = {};

  explicit PagedWords(std::size_t size)
      : size_(size), pages_((size + kPageWords - 1) / kPageWords) {}

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] Word get(std::size_t i) const {
    HWPAT_ASSERT(i < size_);
    const Word* p = pages_[i >> kPageShift].get();
    return p != nullptr ? p[i & (kPageWords - 1)] : 0;
  }

  void set(std::size_t i, Word v) {
    HWPAT_ASSERT(i < size_);
    Word* p = pages_[i >> kPageShift].get();
    if (p == nullptr) {
      if (v == 0) return;
      p = touch_page(i >> kPageShift);
    }
    p[i & (kPageWords - 1)] = v;
  }

  /// The whole array as a flat vector (absent pages as zeros).
  [[nodiscard]] std::vector<Word> image() const {
    std::vector<Word> out(size_, 0);
    for (std::size_t p = 0; p < pages_.size(); ++p)
      if (const Word* w = page(p))
        std::copy_n(w, page_words(p), out.begin() + p * kPageWords);
    return out;
  }

  // ---- page-level access (the snapshot codec) -------------------------

  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }
  /// Words in page `p`: kPageWords, or fewer for a short last page.
  [[nodiscard]] std::size_t page_words(std::size_t p) const {
    return std::min(kPageWords, size_ - p * kPageWords);
  }
  /// Page `p`'s words, or nullptr while it is absent.
  [[nodiscard]] const Word* page(std::size_t p) const {
    return pages_[p].get();
  }
  /// Page `p`'s words, allocated zeroed if absent.
  Word* touch_page(std::size_t p) {
    if (!pages_[p]) pages_[p] = std::make_unique<Word[]>(page_words(p));
    return pages_[p].get();
  }
  void drop_page(std::size_t p) { pages_[p].reset(); }
  /// Pages currently allocated.
  [[nodiscard]] std::size_t resident_pages() const {
    return static_cast<std::size_t>(std::ranges::count_if(
        pages_, [](const std::unique_ptr<Word[]>& p) { return p != nullptr; }));
  }

 private:
  std::size_t size_;
  std::vector<std::unique_ptr<Word[]>> pages_;
};

}  // namespace hwpat::rtl
