#include "rtl/vcd.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>

#include "common/error.hpp"

namespace hwpat::rtl {

namespace {

/// kByteBits[b] spells byte b MSB first ("00000101" for 5).
constexpr auto kByteBits = [] {
  std::array<std::array<char, 8>, 256> t{};
  for (int b = 0; b < 256; ++b)
    for (int j = 0; j < 8; ++j) t[b][j] = ((b >> (7 - j)) & 1) ? '1' : '0';
  return t;
}();

/// Writes the low `width` (<= 64) bits of `v` MSB first at `p` and
/// returns the end.
char* put_bits(char* p, Word v, int width) {
  int bytes = width / 8;
  if (const int lead = width % 8; lead != 0) {
    std::memcpy(p, kByteBits[(v >> (8 * bytes)) & 0xff].data() + 8 - lead,
                static_cast<std::size_t>(lead));
    p += lead;
  }
  while (bytes-- > 0) {
    std::memcpy(p, kByteBits[(v >> (8 * bytes)) & 0xff].data(), 8);
    p += 8;
  }
  return p;
}

}  // namespace

VcdWriter::VcdWriter(const std::string& path, Module& top,
                     std::uint64_t tick_ps)
    : out_(path) {
  if (!out_) throw Error("cannot open VCD file: " + path);
  HWPAT_ASSERT(tick_ps > 0);
  // IEEE 1364 only allows 1, 10 or 100 of a unit in $timescale, so the
  // header gets the largest legal quantum dividing the tick and every
  // timestamp is scaled by the remainder (time_mult_): tick_ps = 40'000
  // becomes `$timescale 10ns` with timestamps multiplied by 4.  The
  // default 1000 yields the classic `$timescale 1ns` with mult 1.
  struct Unit {
    std::uint64_t ps;
    const char* name;
  };
  static constexpr Unit kUnits[] = {{1'000'000'000'000, "s"},
                                    {1'000'000'000, "ms"},
                                    {1'000'000, "us"},
                                    {1'000, "ns"},
                                    {1, "ps"}};
  for (const Unit& u : kUnits) {
    bool found = false;
    for (const std::uint64_t mant : {std::uint64_t{100}, std::uint64_t{10},
                                     std::uint64_t{1}}) {
      // No overflow: mant * u.ps <= 100e12, well inside uint64.
      const std::uint64_t quantum = mant * u.ps;
      if (tick_ps % quantum == 0) {
        out_ << "$timescale " << mant << u.name << " $end\n";
        time_mult_ = tick_ps / quantum;
        found = true;
        break;
      }
    }
    if (found) break;  // 1ps divides everything: always terminates
  }
  declare_scope(top);
  out_ << "$enddefinitions $end\n";
}

VcdWriter::~VcdWriter() { flush(); }

void VcdWriter::flush() {
  out_.write(buf_.data(), static_cast<std::streamsize>(len_));
  len_ = 0;
}

void VcdWriter::declare_scope(Module& m) {
  out_ << "$scope module " << m.name() << " $end\n";
  for (SignalBase* s : m.signals()) {
    if (s->width() <= 0) continue;
    if (s->width() > kMaxBusBits)
      throw Error("cannot dump " + s->full_name() + " to a VCD: " +
                  std::to_string(s->width()) + " bits, at most " +
                  std::to_string(kMaxBusBits) + " supported");
    Entry e{.sig = s, .width = s->width(), .id_len = 0, .id = {}};
    // Printable-ASCII base-94 identifiers, as the VCD format allows.
    for (std::size_t n = entries_.size();; n /= 94) {
      HWPAT_ASSERT(e.id_len < kMaxIdChars);
      e.id[e.id_len++] = static_cast<char>('!' + n % 94);
      if (n < 94) break;
    }
    out_ << "$var wire " << e.width << " ";
    out_.write(e.id, e.id_len);
    out_ << " " << s->name() << " $end\n";
    if (s->id_ >= 0) {
      if (entry_by_signal_id_.size() <= static_cast<std::size_t>(s->id_))
        entry_by_signal_id_.resize(static_cast<std::size_t>(s->id_) + 1, -1);
      entry_by_signal_id_[static_cast<std::size_t>(s->id_)] =
          static_cast<int>(entries_.size());
    }
    entries_.push_back(e);
  }
  for (Module* c : m.children()) declare_scope(*c);
  out_ << "$upscope $end\n";
}

void VcdWriter::emit(Entry& e, std::uint64_t tick, bool* stamped) {
  const Word v = e.sig->as_word_fast();
  if (e.ever && v == e.last) return;
  e.last = v;
  e.ever = true;
  // buf_ holds kFlushBytes plus one longest record, and len_ stays
  // below kFlushBytes between records, so no record can overrun it.
  char* p = buf_.data() + len_;
  if (!*stamped) {
    *p++ = '#';
    p = std::to_chars(p, p + 20, tick * time_mult_).ptr;
    *p++ = '\n';
    *stamped = true;
  }
  if (e.width == 1) {
    *p++ = v != 0 ? '1' : '0';
  } else {
    *p++ = 'b';
    p = put_bits(p, v, e.width);
    *p++ = ' ';
  }
  std::memcpy(p, e.id, kMaxIdChars);
  p += e.id_len;
  *p++ = '\n';
  len_ = static_cast<std::size_t>(p - buf_.data());
  if (len_ >= kFlushBytes) flush();
}

void VcdWriter::sample(std::uint64_t tick) {
  bool stamped = false;
  for (Entry& e : entries_) emit(e, tick, &stamped);
}

void VcdWriter::sample_changed(std::uint64_t tick,
                               const std::int32_t* changed,
                               std::size_t n) {
  // Emit in declaration order so the output is byte-identical to the
  // full-scan path (the differential kernel test relies on this).
  scratch_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t sid = changed[i];
    if (sid < 0 ||
        static_cast<std::size_t>(sid) >= entry_by_signal_id_.size())
      continue;
    const int idx = entry_by_signal_id_[static_cast<std::size_t>(sid)];
    if (idx >= 0) scratch_.push_back(idx);
  }
  std::sort(scratch_.begin(), scratch_.end());
  bool stamped = false;
  for (const int idx : scratch_)
    emit(entries_[static_cast<std::size_t>(idx)], tick, &stamped);
}

}  // namespace hwpat::rtl
