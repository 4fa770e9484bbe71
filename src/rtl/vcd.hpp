// Minimal VCD (value change dump) writer for waveform inspection.
//
// The simulator calls sample() once per clock-edge event; only signals
// whose value changed since the last sample are written.  Testbench
// signals (width 0) are skipped.  VCD time is the simulator's tick
// counter, so multi-clock traces place every domain's edges at their
// true relative offsets; the `$timescale` header translates one tick
// into physical time (Simulator::Options::tick_ps, default 1 ns — pick
// the greatest common divisor of the modelled clock periods).
//
// Two sampling paths produce byte-identical output:
//  * sample() scans every declared signal (reference path; also used
//    for the first sample after open/reset, which must dump everything);
//  * sample_changed() visits only the signals the event-driven kernel
//    observed changing since the last sample, found in O(1) through
//    their dense Simulator-assigned ids.
//
// Value changes are formatted into one reusable char buffer: each entry
// keeps its width and identifier characters inline, a bus value is
// spelled through a 256-entry byte -> "01010101" table (the leading
// width % 8 bits, then whole bytes), and timestamps go through
// std::to_chars.  The buffer reaches the file in one write() whenever
// it passes kFlushBytes, and for the last time when the writer is
// destroyed.  A VCD file is therefore complete only once its writer is
// gone: for Simulator::open_vcd(), when the simulator is destroyed or
// open_vcd() is called again.  The header and `$var` declarations are
// written once, directly to the stream.
//
// Values are read through SignalBase::as_word_fast(), which statically
// dispatches the dominant Word/bool signal types instead of paying a
// virtual as_word() call per sampled signal.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "rtl/module.hpp"

namespace hwpat::rtl {

class VcdWriter {
 public:
  /// Opens `path` and writes the header for the design under `top`.
  /// `tick_ps` is the physical duration of one simulator tick in
  /// picoseconds (must be positive).  The `$timescale` gets the largest
  /// spec-legal quantum (1, 10 or 100 of a unit — IEEE 1364) dividing
  /// it, and timestamps are scaled by the remainder, so traces stay
  /// time-correct for any tick; the default 1000 emits the classic
  /// `$timescale 1ns` with unscaled timestamps.  Throws Error when a
  /// hardware signal is wider than 64 bits.
  VcdWriter(const std::string& path, Module& top,
            std::uint64_t tick_ps = 1000);
  /// Writes out the buffered value changes.
  ~VcdWriter();

  VcdWriter(const VcdWriter&) = delete;
  VcdWriter& operator=(const VcdWriter&) = delete;

  /// Records the state at time `tick` (one VCD time unit per tick),
  /// scanning every declared signal.
  void sample(std::uint64_t tick);

  /// Like sample(), but only inspects the `n` dense signal ids in
  /// `changed` (each entry at most once).  Ids not declared in the
  /// header (testbench signals) are ignored.
  void sample_changed(std::uint64_t tick, const std::int32_t* changed,
                      std::size_t n);

  /// Buffered bytes that trigger a write() to the file.
  static constexpr std::size_t kFlushBytes = 64 * 1024;

 private:
  /// Base-94 identifier length bound: 94^5 exceeds the int entry index.
  static constexpr int kMaxIdChars = 5;
  /// Longest record: a timestamp line ("#", 20 digits, newline), then
  /// "b", the value bits, " ", the id (copied whole) and a newline.
  static constexpr std::size_t kMaxRecordBytes =
      22 + 1 + kMaxBusBits + 1 + kMaxIdChars + 1;

  struct Entry {
    SignalBase* sig;
    Word last = ~Word{0};
    int width;  ///< declared width (>= 1)
    std::uint8_t id_len;
    bool ever = false;
    char id[kMaxIdChars];
  };

  void declare_scope(Module& m);
  void emit(Entry& e, std::uint64_t tick, bool* stamped);
  void flush();

  std::ofstream out_;
  std::uint64_t time_mult_ = 1;  ///< timestamp units per tick (header)
  std::vector<Entry> entries_;
  std::vector<int> entry_by_signal_id_;  ///< dense signal id -> entry, -1 none
  std::vector<int> scratch_;             ///< reused by sample_changed()
  std::vector<char> buf_ = std::vector<char>(kFlushBytes + kMaxRecordBytes);
  std::size_t len_ = 0;  ///< bytes of buf_ in use
};

}  // namespace hwpat::rtl
