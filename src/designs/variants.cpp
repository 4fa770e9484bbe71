#include "designs/variants.hpp"

#include "common/error.hpp"
#include "meta/spec.hpp"

namespace hwpat::designs {

namespace {

int parse_int(const std::string& s, const char* axis) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(s, &used);
    if (used != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw SpecError(std::string("sweep grid: axis '") + axis +
                    "' value '" + s + "' is not an integer");
  }
}

std::string device_token(DeviceKind d) {
  switch (d) {
    case DeviceKind::FifoCore: return "fifo";
    case DeviceKind::Sram: return "sram";
    default:
      throw SpecError("sweep grid: axis 'device' cannot map device kind " +
                      std::to_string(static_cast<int>(d)) +
                      " (stream buffers take FifoCore or Sram)");
  }
}

std::string value_token(int v) { return std::to_string(v); }
std::string value_token(const std::string& v) { return v; }
std::string value_token(DeviceKind d) { return device_token(d); }

/// The eager grid check every *_sweep() factory runs before building a
/// job: an axis must have values and must not repeat one.  Messages
/// name the axis.
template <typename T>
void check_axis(const std::vector<T>& values, const char* axis) {
  if (values.empty())
    throw SpecError(std::string("sweep grid: axis '") + axis +
                    "' has no values");
  for (std::size_t i = 0; i < values.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (values[i] == values[j])
        throw SpecError(std::string("sweep grid: axis '") + axis +
                        "' repeats value '" + value_token(values[i]) + "'");
}

/// Mirrors saa2vga_pattern.cpp's read-side buffer spec so the grid can
/// run the metamodel validator before elaborating anything.
void validate_buffer(const Saa2VgaConfig& cfg) {
  meta::ContainerSpec s;
  s.name = "rbuffer";
  s.kind = core::ContainerKind::ReadBuffer;
  s.device = cfg.device;
  s.elem_bits = 8;
  s.depth = cfg.buffer_depth;
  s.used_methods = {meta::Method::Pop, meta::Method::Empty};
  meta::validate(s);
  // A depth smaller than a frame is legal (the stream just
  // backpressures), but the frame itself must have area.
  if (cfg.width <= 0 || cfg.height <= 0)
    throw SpecError("sweep grid: frame " + std::to_string(cfg.width) + "x" +
                    std::to_string(cfg.height) + " is not positive");
}

}  // namespace

bool video_design_finished(const rtl::Module& top) {
  return static_cast<const VideoDesign&>(top).finished();
}

// Both factories expand their axes row-major, last axis fastest: job
// order (and so result order) is part of the contract.

std::vector<rtl::SweepJob> saa2vga_sweep(const Saa2VgaSweepGrid& grid) {
  check_axis(grid.widths, "width");
  check_axis(grid.depths, "depth");
  check_axis(grid.devices, "device");
  std::vector<rtl::SweepJob> jobs;
  for (const int width : grid.widths) {
    for (const int depth : grid.depths) {
      for (const DeviceKind device : grid.devices) {
        Saa2VgaConfig cfg;
        cfg.width = width;
        cfg.height = width * 3 / 4;
        cfg.buffer_depth = depth;
        cfg.device = device;
        cfg.frames = grid.frames;
        cfg.pattern_seed = grid.pattern_seed;
        validate_buffer(cfg);

        rtl::SweepJob job;
        job.name = "saa2vga_w" + std::to_string(cfg.width) + "_h" +
                   std::to_string(cfg.height) + "_d" +
                   std::to_string(cfg.buffer_depth) + "_" +
                   device_token(device);
        job.build = [cfg] { return make_saa2vga_pattern(cfg); };
        job.done = video_design_finished;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

std::vector<rtl::SweepJob> saa2vga_triclk_sweep(const TriClkSweepGrid& grid) {
  check_axis(grid.ratios, "ratio");
  check_axis(grid.lanes, "lanes");
  for (const int lanes : grid.lanes)
    if (lanes <= 0)
      throw SpecError("sweep grid: axis 'lanes' value '" +
                      std::to_string(lanes) + "' must be positive");
  std::vector<rtl::SweepJob> jobs;
  for (const std::string& ratio : grid.ratios) {
    const std::size_t x1 = ratio.find('x');
    const std::size_t x2 =
        x1 == std::string::npos ? std::string::npos : ratio.find('x', x1 + 1);
    if (x2 == std::string::npos)
      throw SpecError("sweep grid: axis 'ratio' value '" + ratio +
                      "' is not <cam>x<mem>x<pix>");
    Saa2VgaTriClkConfig cfg;
    cfg.cam_period = parse_int(ratio.substr(0, x1), "ratio");
    cfg.mem_period = parse_int(ratio.substr(x1 + 1, x2 - x1 - 1), "ratio");
    cfg.pix_period = parse_int(ratio.substr(x2 + 1), "ratio");
    if (cfg.cam_period <= 0 || cfg.mem_period <= 0 || cfg.pix_period <= 0)
      throw SpecError("sweep grid: axis 'ratio' value '" + ratio +
                      "' has a non-positive period");
    cfg.width = grid.width;
    cfg.height = grid.height;
    cfg.frames = grid.frames;
    cfg.pattern_seed = grid.pattern_seed;
    for (const int lanes : grid.lanes) {
      cfg.lanes = lanes;
      rtl::SweepJob job;
      job.name = "triclk_" + ratio + "_l" + std::to_string(lanes);
      job.build = [cfg] { return make_saa2vga_triclk(cfg); };
      job.done = video_design_finished;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

}  // namespace hwpat::designs
