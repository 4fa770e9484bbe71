// Regenerates Figures 4 and 5 of the paper: the VHDL entities the
// metaprogramming backend produces for the read-buffer container over a
// FIFO device (Fig. 4) and over an external SRAM (Fig. 5), plus the
// concrete iterators for both bindings.  The generated files are also
// written under gen_vhdl/ for inspection.
//
// With --append-bench FILE the program additionally times the code
// generator — the structured statement/expression IR path
// (generate + validate + emit) — and appends an `emit/structured_ir`
// row with units_per_sec into FILE, an existing google-benchmark JSON
// report (BENCH_sim.json), so the perf trajectory tracks codegen
// throughput alongside the kernel numbers.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hdl/emit.hpp"
#include "meta/codegen.hpp"

namespace {

using namespace hwpat;

void emit(const hdl::DesignUnit& u, const std::string& header) {
  std::printf("---- %s ----\n%s\n", header.c_str(),
              meta::to_vhdl(u).c_str());
  std::filesystem::create_directories("gen_vhdl");
  std::ofstream out("gen_vhdl/" + u.entity.name + ".vhd");
  out << meta::to_vhdl(u);
}

/// Times fn() for `iters` runs of `units_per_iter` units each and
/// returns units per second.
template <typename Fn>
double units_per_sec(Fn&& fn, int iters, int units_per_iter,
                     std::size_t& bytes_sink) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  for (int i = 0; i < iters; ++i) bytes_sink += fn();
  const std::chrono::duration<double> dt = clock::now() - t0;
  return dt.count() > 0.0
             ? static_cast<double>(iters) * units_per_iter / dt.count()
             : 0.0;
}

std::string bench_row(const std::string& name, int iterations,
                      double ups) {
  const double ns_per_unit = ups > 0.0 ? 1e9 / ups : 0.0;
  std::ostringstream os;
  os << "    {\n"
     << "      \"name\": \"" << name << "\",\n"
     << "      \"run_name\": \"" << name << "\",\n"
     << "      \"run_type\": \"iteration\",\n"
     << "      \"iterations\": " << iterations << ",\n"
     << "      \"real_time\": " << ns_per_unit << ",\n"
     << "      \"cpu_time\": " << ns_per_unit << ",\n"
     << "      \"time_unit\": \"ns\",\n"
     << "      \"units_per_sec\": " << ups << "\n"
     << "    }";
  return os.str();
}

/// Appends the emit/ rows into an existing google-benchmark JSON
/// report, in front of the `]` closing its "benchmarks" array.
int append_bench(const std::string& path,
                 const std::vector<meta::ContainerSpec>& specs) {
  const int kIters = 400;
  const int kUnits = static_cast<int>(specs.size());
  std::size_t sink = 0;

  // Structured path: metamodel -> IR -> validate -> text, every time.
  const double structured = units_per_sec(
      [&] {
        std::size_t n = 0;
        for (const auto& s : specs)
          n += meta::to_vhdl(meta::generate_container(s)).size();
        return n;
      },
      kIters, kUnits, sink);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s (run the JSON benches "
                         "first)\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string doc = buf.str();
  const std::size_t close = doc.rfind("\n  ]");
  if (close == std::string::npos) {
    std::fprintf(stderr,
                 "error: %s does not look like a google-benchmark JSON "
                 "report\n", path.c_str());
    return 1;
  }
  doc.insert(close,
             ",\n" + bench_row("emit/structured_ir", kIters, structured));
  std::ofstream(path, std::ios::binary) << doc;
  std::printf("appended emit row to %s (%zu bytes emitted during "
              "timing):\n", path.c_str(), sink);
  std::printf("  emit/structured_ir  %10.0f units/sec\n", structured);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace = hwpat::benchutil::take_trace_flag_or_exit(argc, argv);
  // Pure code generation — nothing simulates; --trace still yields a
  // loadable file.
  if (!trace.empty() && hwpat::benchutil::write_empty_trace(trace) != 0)
    return 1;
  meta::ContainerSpec fifo;
  fifo.name = "rbuffer";
  fifo.kind = core::ContainerKind::ReadBuffer;
  fifo.device = devices::DeviceKind::FifoCore;
  fifo.elem_bits = 8;
  fifo.depth = 512;

  meta::ContainerSpec sram = fifo;
  sram.device = devices::DeviceKind::Sram;
  sram.addr_bits = 16;

  // `--append-bench FILE`: time the generator instead of dumping the
  // figures, and record the rows into an existing benchmark report.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--append-bench") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --append-bench requires a file path\n",
                     argv[0]);
        return 2;
      }
      meta::ContainerSpec async = fifo;
      async.kind = core::ContainerKind::Queue;
      async.name = "queue";
      async.device = devices::DeviceKind::AsyncFifoCore;
      async.depth = 256;
      return append_bench(argv[i + 1], {fifo, sram, async});
    }
  }

  emit(meta::generate_container(fifo),
       "Figure 4: read buffer over a FIFO device");
  emit(meta::generate_container(sram),
       "Figure 5: read buffer over an SRAM device (implementation-"
       "interface delta)");

  // The concrete iterators for both bindings — the wrappers that
  // "dissolve at synthesis".
  meta::IteratorSpec it_fifo{.name = "it",
                             .traversal = core::Traversal::Forward,
                             .role = core::IterRole::Input,
                             .used_ops = {},
                             .container = fifo};
  meta::IteratorSpec it_sram = it_fifo;
  it_sram.container = sram;
  emit(meta::generate_iterator(it_fifo),
       "rbuffer_fifo iterator (pure wrapper)");
  emit(meta::generate_iterator(it_sram),
       "rbuffer_sram iterator (pure wrapper)");

  // The §3.3 width-adapted variant: 24-bit pixels over an 8-bit bus.
  meta::IteratorSpec it_rgb = it_sram;
  it_rgb.container.elem_bits = 24;
  it_rgb.container.bus_bits = 8;
  emit(meta::generate_iterator(it_rgb),
       "width-adapting iterator: 24-bit pixel over 8-bit bus (3 "
       "accesses/element)");

  std::printf("generated files written to gen_vhdl/\n");
  return 0;
}
