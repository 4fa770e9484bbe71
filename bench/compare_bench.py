#!/usr/bin/env python3
"""Markdown comparison table for two BENCH_sim.json files.

Usage:
    bench/compare_bench.py COMMITTED.json CURRENT.json [--markdown]

Compares the kernel headline rows — flagship (saa2vga_pattern 48x32)
and tri-clock farm (saa2vga_triclk_farm3) steps/sec for both kernels,
the flagship with a VCD open, plus the elaborate/teardown rows with
their arena counters — between the committed perf trajectory and a
fresh run, and prints a table suitable for a GitHub step summary.  A
row the committed file does not have yet is marked "new".

Informational only: wall-clock numbers from shared CI runners are
noisy, so this never fails the build — the deterministic perf gate is
bench_stats_gate.  Exit code is 0 unless a file is unreadable.
"""

import json
import sys

# (benchmark name, metric key or None for per-iteration real_time)
ROWS = [
    ("saa2vga_pattern/event/48/32", "steps_per_sec"),
    ("saa2vga_pattern/full_sweep/48/32", "steps_per_sec"),
    ("saa2vga_triclk_farm3/event", "steps_per_sec"),
    ("saa2vga_triclk_farm3/full_sweep", "steps_per_sec"),
    ("vcd/saa2vga_pattern_48x32", "steps_per_sec"),
    ("elaborate/saa2vga_pattern_48x32", None),
    ("teardown/saa2vga_pattern_48x32", None),
    ("elaborate/saa2vga_triclk_farm3", None),
    ("teardown/saa2vga_triclk_farm3", None),
    ("elaborate/saa2vga_pattern_48x32", "arena_bytes_used"),
    ("elaborate/saa2vga_triclk_farm3", "arena_bytes_used"),
    ("emit/structured_ir", "units_per_sec"),
]


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def metric(benches, name, key):
    b = benches.get(name)
    if b is None:
        return None
    if key is None:
        # Per-iteration wall time, normalised to nanoseconds.
        unit = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            b.get("time_unit", "ns"), 1.0)
        v = b.get("real_time")
        return None if v is None else v * unit
    return b.get(key)


def fmt(value, key):
    if value is None:
        return "n/a"
    if key == "steps_per_sec":
        return f"{value / 1e6:.3f} M/s"
    if key is None:
        if value >= 1e6:
            return f"{value / 1e6:.2f} ms"
        return f"{value / 1e3:.2f} us"
    if "bytes" in (key or ""):
        return f"{value / 1024:.1f} KiB"
    if key == "units_per_sec":
        return f"{value / 1e3:.1f} k/s"
    return f"{value:.0f}"


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    committed = load(argv[1])
    current = load(argv[2])

    print("### Kernel bench vs committed BENCH_sim.json")
    print()
    print("| row | metric | committed | current | delta |")
    print("|---|---|---:|---:|---:|")
    for name, key in ROWS:
        old = metric(committed, name, key)
        new = metric(current, name, key)
        if old is None and new is None:
            continue
        if old is None:
            delta = "new"
        elif old == 0 or new is None:
            delta = "n/a"
        else:
            delta = f"{(new - old) / old * 100.0:+.1f}%"
        label = key if key is not None else "time/iter"
        print(f"| `{name}` | {label} | {fmt(old, key)} | {fmt(new, key)} "
              f"| {delta} |")
    print()
    print("_Wall-clock rows are informational (shared-runner noise); the"
          " deterministic perf gate is `bench_stats_gate`._")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
