// codegen_library: the VHDL library generated from the metamodels —
// every legal container binding, three iterators and two algorithm
// FSMs — taken through generate -> validate -> emit -> parse -> re-emit,
// pass after pass.  The seed picks element widths and depths.  This
// workload never touches the simulator.
#include <optional>
#include <random>
#include <string>
#include <variant>

#include "common.hpp"
#include "hdl/emit.hpp"
#include "hdl/ir.hpp"
#include "hdl/parse.hpp"
#include "meta/codegen.hpp"

namespace perfbench {
namespace {

using namespace hwpat;

using UnitSpec =
    std::variant<meta::ContainerSpec, meta::IteratorSpec, meta::AlgorithmSpec>;

/// The library for one seed, every spec validated (the set-up a user
/// pays before generating).
std::vector<UnitSpec> catalogue(unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&rng](std::initializer_list<int> v) {
    std::uniform_int_distribution<std::size_t> d(0, v.size() - 1);
    return *(v.begin() + d(rng));
  };
  const auto widths = {8, 12, 16, 24, 32};
  const auto depths = {64, 128, 256, 512, 1024};

  std::vector<UnitSpec> units;
  for (const auto kind :
       {core::ContainerKind::Stack, core::ContainerKind::Queue,
        core::ContainerKind::ReadBuffer, core::ContainerKind::WriteBuffer,
        core::ContainerKind::Vector, core::ContainerKind::AssocArray}) {
    for (const auto dev : core::legal_devices(kind)) {
      meta::ContainerSpec s;
      s.name = core::to_string(kind);
      s.kind = kind;
      s.device = dev;
      s.elem_bits = pick(widths);
      s.depth = pick(depths);
      meta::validate(s);
      units.emplace_back(s);
    }
  }

  meta::ContainerSpec rb;
  rb.name = "rbuffer";
  rb.kind = core::ContainerKind::ReadBuffer;
  rb.device = devices::DeviceKind::FifoCore;
  rb.elem_bits = pick(widths);
  rb.depth = pick(depths);
  meta::IteratorSpec full{.name = "it",
                          .traversal = core::Traversal::Forward,
                          .role = core::IterRole::Input,
                          .used_ops = {},
                          .container = rb};
  meta::IteratorSpec pruned = full;
  pruned.name = "it_readonly";
  pruned.used_ops = core::OpSet{core::Op::Read};
  meta::IteratorSpec packed = full;
  packed.name = "it_packed";
  packed.container.elem_bits = pick({16, 24, 32});
  packed.container.bus_bits = 8;
  for (const meta::IteratorSpec& it : {full, pruned, packed}) {
    meta::validate(it);
    units.emplace_back(it);
  }

  meta::AlgorithmSpec copy;
  copy.elem_bits = pick(widths);
  units.emplace_back(copy);
  meta::AlgorithmSpec invert;
  invert.name = "invert";
  invert.elem_bits = pick(widths);
  invert.op_vhdl = "not $x";
  invert.count = std::uniform_int_distribution<std::uint64_t>(1, 1000)(rng);
  units.emplace_back(invert);
  return units;
}

hdl::DesignUnit generate(const UnitSpec& spec) {
  struct Gen {
    hdl::DesignUnit operator()(const meta::ContainerSpec& s) const {
      return meta::generate_container(s);
    }
    hdl::DesignUnit operator()(const meta::IteratorSpec& s) const {
      return meta::generate_iterator(s);
    }
    hdl::DesignUnit operator()(const meta::AlgorithmSpec& s) const {
      return meta::generate_algorithm(s);
    }
  };
  return std::visit(Gen{}, spec);
}

struct LibraryPass {
  std::vector<double> unit_ns;  ///< whole round trip, per unit
  double pass_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 1469598103934665603ull;
};

/// One pass over the library.  Each unit is one operation:
/// generate -> validate -> emit -> parse -> re-emit, and the re-emitted
/// text must equal the first emit byte for byte.
LibraryPass run_library(const std::vector<UnitSpec>& lib, SpanLog& log,
                        Result& r) {
  LibraryPass out;
  const std::uint32_t sid = log.new_session();
  SpanLog::Span pass = log.begin("codegen.pass", -1, sid);
  for (const UnitSpec& spec : lib) {
    r.attempt();
    SpanLog::Span unit = log.begin("codegen.unit", pass.index(), sid);
    try {
      SpanLog::Span sp = log.begin("meta.generate", unit.index(), sid);
      const hdl::DesignUnit du = generate(spec);
      sp.end();
      sp = log.begin("hdl.validate", unit.index(), sid);
      hdl::validate_unit(du);
      sp.end();
      sp = log.begin("hdl.emit", unit.index(), sid);
      const std::string text = hdl::emit_unit(du);
      sp.end();
      sp = log.begin("hdl.parse", unit.index(), sid);
      const hdl::DesignUnit back = hdl::parse_unit(text);
      sp.end();
      sp = log.begin("hdl.emit", unit.index(), sid);
      const std::string again = hdl::emit_unit(back);
      sp.end();
      out.unit_ns.push_back(static_cast<double>(unit.end()));
      r.check(text == again, "emit -> parse -> re-emit drifted for " +
                                 du.entity.name);
      out.bytes += text.size();
      out.digest = fnv1a(text.data(), text.size(), out.digest);
    } catch (const std::exception& e) {
      unit.end();
      r.fail(std::string("codegen unit failed: ") + e.what());
    }
  }
  out.pass_ns = static_cast<double>(pass.end());
  return out;
}

}  // namespace

void run_codegen(const Params& p, Result& r, SpanLog& log) {
  // Every pass starts with the set-up: build and validate the specs.
  std::vector<double> setup;
  std::vector<UnitSpec> lib;
  auto set_up = [&] {
    SpanLog::Span s = log.begin("codegen.setup");
    lib = catalogue(p.seed);
    setup.push_back(static_cast<double>(s.end()));
  };

  const Deadline end(p.seconds);
  std::optional<std::uint64_t> ref;
  Counts counts;
  auto repeat_check = [&](const LibraryPass& pass) {
    if (!ref)
      ref = pass.digest;
    else
      r.check(pass.digest == *ref,
              "generated VHDL differs between library passes");
  };

  if (!p.trace) {
    std::vector<double> unit_ns, pass_ns;
    reserve_samples(unit_ns, p.seconds, 200'000);
    reserve_samples(pass_ns, p.seconds, 10'000);
    reserve_samples(setup, p.seconds, 10'000);
    do {
      set_up();
      const LibraryPass pass = run_library(lib, log, r);
      unit_ns.insert(unit_ns.end(), pass.unit_ns.begin(), pass.unit_ns.end());
      pass_ns.push_back(pass.pass_ns);
      repeat_check(pass);
    } while (!end.passed());
    counts.text_digest = *ref;
    r.set_counts(counts);
    const double busy_s = sum(unit_ns) / 1e9;
    // Medians: a unit-time percentile above the median falls between
    // unit kinds whose sizes the seed changes.
    r.metric("setup_s", median(setup) / 1e9);
    r.metric("op_ms", median(unit_ns) / 1e6);
    r.metric("session_ms", median(pass_ns) / 1e6);
    char line[512];
    std::snprintf(line, sizeof line,
                  "codegen_library: vhdl_units_per_s=%.6g unit_ms_p50=%.6g "
                  "unit_ms_p90=%.6g (n=%zu units) library_ms=%.6g "
                  "library_ms_p90=%.6g (n=%zu passes of %zu units) "
                  "setup_s=%.6g (n=%zu)",
                  busy_s > 0 ? static_cast<double>(unit_ns.size()) / busy_s
                             : 0,
                  quantile(unit_ns, 0.5) / 1e6, quantile(unit_ns, 0.9) / 1e6,
                  unit_ns.size(), median(pass_ns) / 1e6,
                  quantile(pass_ns, 0.9) / 1e6, pass_ns.size(), lib.size(),
                  median(setup) / 1e9, setup.size());
    r.note(line);
    return;
  }

  // Traced run: untraced and traced library passes alternate.
  SpanLog off(false);
  std::vector<double> untraced_ns, traced_ns;
  std::uint64_t bytes = 0, units = 0;
  do {
    set_up();
    const LibraryPass u = run_library(lib, off, r);
    untraced_ns.push_back(u.pass_ns);
    repeat_check(u);
    const LibraryPass t = run_library(lib, log, r);
    traced_ns.push_back(t.pass_ns);
    r.check(t.digest == u.digest,
            "traced library pass generated different VHDL");
    bytes += t.bytes;
    units += t.unit_ns.size();
  } while (!end.passed());
  counts.text_digest = *ref;
  r.set_counts(counts);
  r.metric("meta.generate_us", mean(log.durations("meta.generate")) / 1e3);
  r.metric("hdl.validate_us", mean(log.durations("hdl.validate")) / 1e3);
  r.metric("hdl.emit_us", mean(log.durations("hdl.emit")) / 1e3);
  r.metric("hdl.parse_us", mean(log.durations("hdl.parse")) / 1e3);
  r.metric("hdl.bytes_per_unit",
           units > 0 ? static_cast<double>(bytes) / static_cast<double>(units)
                     : 0);
  report_trace_health(r, log, untraced_ns, traced_ns);
}

}  // namespace perfbench
