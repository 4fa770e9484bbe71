// Randomized property test of the paged off-chip SRAM image.
//
// ExternalSram stores its 2^16 words as 512-word pages that exist only
// once a non-zero word is written into them (rtl/paged_words.hpp).  For
// each seed, a testbench drives random reads and writes through the
// req/ack handshake and checks the image against a flat
// std::vector<Word> reference: word 0 and word 0xFFFF, both sides of
// every page boundary, zeros written into present and absent pages,
// and a preload made before the simulator exists.  The image then goes
// through save -> restore into a fresh instance -> more steps ->
// reset(), and at every stage the images, the blob bytes and the
// resident page counts must match what the reference predicts.
//
// HWPAT_SRAM_SEEDS (default 12) seeds starting at HWPAT_SRAM_BASE
// (default 1) run; a failure names its seed.  Replay one with
//   HWPAT_SRAM_BASE=<seed> HWPAT_SRAM_SEEDS=1 ./test_sram_image
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "devices/sram.hpp"
#include "rtl/rtl.hpp"

namespace hwpat {
namespace {

using devices::ExternalSram;
using devices::SramConfig;
using devices::SramPorts;
using rtl::Bit;
using rtl::Bus;
using rtl::Module;
using rtl::Simulator;

constexpr int kDataWidth = 16;
constexpr std::size_t kWords = std::size_t{1} << 16;
constexpr std::size_t kPage = rtl::PagedWords::kPageWords;
constexpr std::size_t kPages = kWords / kPage;

unsigned env_or(const char* name, unsigned dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return static_cast<unsigned>(std::strtoull(v, nullptr, 10));
}

struct SramTb : Module {
  Bit req{*this, "req"}, we{*this, "we"}, ack{*this, "ack"};
  Bus addr{*this, "addr", 16};
  Bus wdata{*this, "wdata", kDataWidth};
  Bus rdata{*this, "rdata", kDataWidth};
  ExternalSram sram;

  explicit SramTb(int latency)
      : Module(nullptr, "tb"),
        sram(this, "sram",
             {.data_width = kDataWidth, .addr_width = 16, .latency = latency},
             SramPorts{req, we, addr, wdata, ack, rdata}) {}

  /// One handshake access; returns the read data (reads only).
  Word access(Simulator& sim, bool write, Word a, Word d) {
    req.write(true);
    we.write(write);
    addr.write(a);
    wdata.write(d);
    for (int cycles = 0; !ack.read(); ++cycles) {
      if (cycles > 16) throw Error("SRAM handshake timeout");
      sim.step();
    }
    const Word got = rdata.read();
    req.write(false);
    we.write(false);
    sim.step();  // turnaround
    return got;
  }
};

/// The flat image every paged image is checked against.
struct Reference {
  std::vector<Word> words = std::vector<Word>(kWords, 0);
  /// Pages a non-zero write allocated (the paged image never frees a
  /// page on its own, only a restore or a reset does).
  std::vector<bool> touched = std::vector<bool>(kPages, false);

  void write(std::size_t a, Word v) {
    v &= mask_of(kDataWidth);
    words[a] = v;
    if (v != 0) touched[a / kPage] = true;
  }
  [[nodiscard]] std::size_t touched_pages() const {
    return static_cast<std::size_t>(std::ranges::count(touched, true));
  }
  /// Pages holding a non-zero word: what a restore allocates.
  [[nodiscard]] std::size_t nonzero_pages() const {
    std::size_t n = 0;
    for (std::size_t p = 0; p < kPages; ++p)
      n += std::any_of(words.begin() + p * kPage,
                       words.begin() + (p + 1) * kPage,
                       [](Word w) { return w != 0; });
    return n;
  }
  /// After a restore only non-zero pages remain allocated.
  void settle_touched() {
    for (std::size_t p = 0; p < kPages; ++p)
      touched[p] = std::any_of(words.begin() + p * kPage,
                               words.begin() + (p + 1) * kPage,
                               [](Word w) { return w != 0; });
  }
};

/// Addresses biased to the edges: word 0, word 0xFFFF, and both sides
/// of a random page boundary, besides uniform ones.
std::size_t pick_addr(std::mt19937_64& rng) {
  switch (rng() % 6) {
    case 0: return 0;
    case 1: return kWords - 1;
    case 2: return (1 + rng() % (kPages - 1)) * kPage - 1;
    case 3: return (1 + rng() % (kPages - 1)) * kPage;
    default: return rng() % kWords;
  }
}

/// Values: zero a quarter of the time, otherwise wider than the data
/// bus so truncation is exercised too.
Word pick_value(std::mt19937_64& rng) {
  return rng() % 4 == 0 ? 0 : 1 + rng() % 0xFFFFF;
}

/// Random reads and writes on both testbenches in lockstep, checked
/// against the reference.
void drive(std::mt19937_64& rng, int ops, Reference& ref,
           std::vector<std::pair<SramTb*, Simulator*>> tbs) {
  for (int i = 0; i < ops; ++i) {
    const std::size_t a = pick_addr(rng);
    const bool write = rng() % 3 != 0;
    const Word v = pick_value(rng);
    if (write) ref.write(a, v);
    for (auto [tb, sim] : tbs) {
      const Word got = tb->access(*sim, write, a, v);
      if (!write) {
        ASSERT_EQ(got, ref.words[a]) << "read of 0x" << std::hex << a;
      }
      ASSERT_EQ(tb->sram.word(a), ref.words[a]) << "word 0x" << std::hex << a;
    }
  }
}

/// The SRAM payload of a blob is the std::vector<Word> encoding of the
/// flat image.
bool blob_holds_image(const rtl::Snapshot& snap,
                      const std::vector<Word>& image) {
  rtl::StateWriter w;
  w.words(image);
  const std::vector<std::uint8_t> enc = std::move(w).take();
  const std::vector<std::uint8_t>& b = snap.bytes();
  return std::search(b.begin(), b.end(), enc.begin(), enc.end()) != b.end();
}

void run_seed(unsigned seed) {
  std::mt19937_64 rng(seed);
  const int latency = 1 + static_cast<int>(rng() % 2);
  Reference ref;

  // Preload before construction: segments that cross a page boundary,
  // hold zeros, or touch either end of the address space.
  SramTb a(latency);
  for (int k = 0; k < 4; ++k) {
    std::size_t at = pick_addr(rng);
    std::vector<Word> data(1 + rng() % 8);
    for (Word& w : data) w = pick_value(rng);
    at = std::min(at, kWords - data.size());
    a.sram.preload(at, data);
    for (std::size_t i = 0; i < data.size(); ++i) ref.write(at + i, data[i]);
  }
  const Reference preloaded = ref;
  Simulator sim_a(a, {});
  sim_a.reset();
  ASSERT_EQ(a.sram.image(), ref.words) << "preload lost by reset()";
  ASSERT_EQ(a.sram.resident_pages(), ref.touched_pages());

  drive(rng, 300, ref, {{&a, &sim_a}});
  if (::testing::Test::HasFatalFailure()) return;
  // A page that is present but holds only zeros: a restore must not
  // allocate it.
  const std::size_t lo = (1 + rng() % (kPages - 2)) * kPage;
  a.access(sim_a, true, lo + 3, 0);  // zero into a (likely) absent page
  ref.write(lo + 3, 0);
  a.access(sim_a, true, lo + 7, 0x1234);
  ref.write(lo + 7, 0x1234);
  for (std::size_t w = lo; w < lo + kPage; ++w)
    if (ref.words[w] != 0) {
      a.access(sim_a, true, w, 0);  // zero into a present page
      ref.write(w, 0);
    }
  ASSERT_EQ(a.sram.image(), ref.words);
  ASSERT_EQ(a.sram.resident_pages(), ref.touched_pages());
  ASSERT_GT(ref.touched_pages(), ref.nonzero_pages());

  // save -> restore into a fresh instance.
  const rtl::Snapshot blob = sim_a.save_snapshot();
  EXPECT_TRUE(blob_holds_image(blob, ref.words));
  SramTb b(latency);
  Simulator sim_b(b, {});
  sim_b.restore_snapshot(blob);
  ASSERT_EQ(b.sram.image(), ref.words);
  EXPECT_EQ(sim_b.save_snapshot(), blob);
  EXPECT_EQ(b.sram.resident_pages(), ref.nonzero_pages())
      << "a restore allocates exactly the pages that hold a non-zero word";

  // More steps on both, in lockstep.
  Reference ref_b = ref;
  ref_b.settle_touched();
  drive(rng, 300, ref_b, {{&a, &sim_a}, {&b, &sim_b}});
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_EQ(a.sram.image(), ref_b.words);
  ASSERT_EQ(b.sram.image(), ref_b.words);
  EXPECT_EQ(b.sram.resident_pages(), ref_b.touched_pages());
  EXPECT_EQ(sim_a.save_snapshot(), sim_b.save_snapshot());

  // reset(): back to each instance's construction image, pages freed.
  sim_a.reset_stats();
  sim_a.reset();
  sim_b.reset();
  EXPECT_EQ(a.sram.image(), preloaded.words);
  EXPECT_EQ(a.sram.resident_pages(), preloaded.touched_pages());
  EXPECT_EQ(b.sram.image(), std::vector<Word>(kWords, 0));
  EXPECT_EQ(b.sram.resident_pages(), 0u);
  // ... and the blob a fresh, identically preloaded instance saves.
  SramTb c(latency);
  for (std::size_t w = 0; w < kWords; ++w)
    if (preloaded.words[w] != 0) c.sram.preload(w, {preloaded.words[w]});
  Simulator sim_c(c, {});
  sim_c.reset();
  EXPECT_EQ(sim_a.save_snapshot(), sim_c.save_snapshot());
}

TEST(SramImage, PagedImageMatchesFlatReference) {
  const unsigned base = env_or("HWPAT_SRAM_BASE", 1);
  const unsigned count = env_or("HWPAT_SRAM_SEEDS", 12);
  for (unsigned seed = base; seed < base + count; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " (replay: HWPAT_SRAM_BASE=" + std::to_string(seed) +
                 " HWPAT_SRAM_SEEDS=1 ./test_sram_image)");
    run_seed(seed);
    if (HasFatalFailure()) return;
  }
}

TEST(SramImage, AbsentPagesReadZeroAndZeroWritesAllocateNothing) {
  SramTb tb(1);
  tb.sram.preload(kPage - 1, {0, 0});  // zeros across a page boundary
  EXPECT_EQ(tb.sram.resident_pages(), 0u);
  Simulator sim(tb, {});
  sim.reset();
  EXPECT_EQ(tb.access(sim, false, kWords - 1, 0), 0u);
  tb.access(sim, true, 0, 0);
  EXPECT_EQ(tb.sram.resident_pages(), 0u);
  tb.access(sim, true, kPage, 9);
  EXPECT_EQ(tb.sram.resident_pages(), 1u);
  tb.access(sim, true, kPage, 0);  // a present page stays present
  EXPECT_EQ(tb.sram.resident_pages(), 1u);
  EXPECT_EQ(tb.sram.word(kPage), 0u);
}

}  // namespace
}  // namespace hwpat
