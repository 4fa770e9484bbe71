// Parameterized sweep grids over the reference designs.
//
// This is the glue between the design families and the batch service
// (rtl/sweep.hpp): each grid struct names the typed axes a design
// family exposes, and the *_sweep() factories expand their cartesian
// product (row-major, last axis fastest — job order is part of the
// contract) into ready-to-run rtl::SweepJob lists — one job per
// variant, each with a pure build factory, a
// finished() predicate, and a label like "saa2vga_w32_h24_d512_fifo"
// or "triclk_5x2x3_l2".
//
// Every axis (non-empty, no repeated value) and every variant's
// container spec (meta::validate) is checked eagerly, with a SpecError
// naming the axis or field, while the job list is built, so a
// malformed grid fails before any simulator is elaborated — the same
// fail-at-elaboration discipline the rest of the metamodel follows.
#pragma once

#include <string>
#include <vector>

#include "designs/design.hpp"
#include "rtl/sweep.hpp"

namespace hwpat::designs {

/// Axes over the single-clock saa2vga pattern design (Table 3 rows
/// 1-2).  Heights follow widths at the 4:3 frame ratio.
struct Saa2VgaSweepGrid {
  std::vector<int> widths = {32, 64};
  std::vector<int> depths = {256, 512};        ///< buffer_depth
  std::vector<DeviceKind> devices = {DeviceKind::FifoCore,
                                     DeviceKind::Sram};
  int frames = 1;
  unsigned pattern_seed = 1;
};

/// Axes over the tri-clock saa2vga design: clock-period ratios
/// ("<cam>x<mem>x<pix>" in scheduler ticks) × lane counts.
struct TriClkSweepGrid {
  std::vector<std::string> ratios = {"5x2x3", "3x1x2"};
  std::vector<int> lanes = {1, 2};
  int width = 32;
  int height = 24;
  int frames = 1;
  unsigned pattern_seed = 1;
};

/// Expands the grid (widths × depths × devices) into one SweepJob per
/// variant.  Throws SpecError on invalid dimensions/depths, an empty
/// axis or a repeated axis value.
[[nodiscard]] std::vector<rtl::SweepJob> saa2vga_sweep(
    const Saa2VgaSweepGrid& grid);

/// Expands ratios × lanes into tri-clock SweepJobs.  Throws SpecError
/// on a malformed ratio string ("<cam>x<mem>x<pix>", all positive), a
/// non-positive lane count, an empty axis or a repeated axis value.
[[nodiscard]] std::vector<rtl::SweepJob> saa2vga_triclk_sweep(
    const TriClkSweepGrid& grid);

/// The finish predicate every variant job uses: downcasts to
/// VideoDesign and polls finished().
[[nodiscard]] bool video_design_finished(const rtl::Module& top);

}  // namespace hwpat::designs
