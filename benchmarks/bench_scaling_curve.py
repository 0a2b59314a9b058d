#!/usr/bin/env python
"""The large-n scalability curve: s of wall clock per simulated second vs n.

Runs the ``scaling`` scenario (``repro.experiments.scaling``) over a
size sweep and prints (and optionally records) the curve, including the
tracemalloc
peak over construction + warm-up per point — the KiB/node column is the
per-node state budget (it must *fall* as n grows: fixed overheads
amortise, and no per-node container may grow with n).  Run it after any
change to per-node state.  This is the benchmark behind the "Scaling with n" section of
``docs/PERFORMANCE.md`` and the ``scaling`` section of
``benchmarks/BENCH_substrate.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_scaling_curve.py                 # 100/300/1000
    PYTHONPATH=src python benchmarks/bench_scaling_curve.py --include-2000  # opt-in n=2000
    PYTHONPATH=src python benchmarks/bench_scaling_curve.py --include-10000 # opt-in n=10000
    PYTHONPATH=src python benchmarks/bench_scaling_curve.py --smoke         # CI sweep to n=2000
    PYTHONPATH=src python benchmarks/bench_scaling_curve.py --record        # write the JSON

``--smoke`` runs a short sweep through n=2000 (fractions of a timed
simulated second per point) that asserts the sweep machinery — and the
per-node memory trend at a four-digit size — end to end without
benchmark-grade load; CI runs it on every push.  Setting
``REPRO_BENCH_FULL=1`` in the environment is equivalent to passing
``--include-10000`` (CI's opt-in full-curve job uses it).  ``--record``
rewrites the ``scaling`` section of ``BENCH_substrate.json`` from the
measured sweep; do that on an idle machine only (and prefer
``--jobs 1``, the default, so the points do not contend for cores).

Every run also writes the rendered table to
``benchmarks/results/scaling_curve.txt`` so CI can upload it as an
artifact.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys

BENCH_FILE = pathlib.Path(__file__).resolve().parent / "BENCH_substrate.json"
RESULTS_FILE = pathlib.Path(__file__).resolve().parent / "results" / "scaling_curve.txt"

SMOKE_SIZES = (40, 200, 2000)
FULL_SIZES = (100, 300, 1000)


def render_table(result) -> str:
    lines = ["     n  s/sim-s   events/s  peak MiB  KiB/node"]
    for point in result.points:
        lines.append(
            f"{point.n:6d}  {point.s_per_sim_second:7.3f}"
            f"  {point.events_per_wall_second:9,.0f}"
            f"  {point.peak_mem_mib:8.1f}"
            f"  {point.peak_mem_kib_per_node:8.1f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=None, help="override the size sweep")
    parser.add_argument("--smoke", action="store_true", help="short CI sweep through n=2000")
    parser.add_argument("--include-2000", action="store_true", help="opt-in n=2000 point (slow)")
    parser.add_argument(
        "--include-10000",
        action="store_true",
        help="opt-in n=10000 point (slow; REPRO_BENCH_FULL=1 implies it)",
    )
    parser.add_argument("--duration", type=float, default=None, help="timed simulated seconds per size")
    parser.add_argument("--warmup", type=float, default=None, help="warm-up simulated seconds per size")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (keep 1 for baselines)")
    parser.add_argument("--record", action="store_true", help="write the curve into BENCH_substrate.json")
    args = parser.parse_args(argv)

    from repro import run_scenario

    if args.smoke:
        sizes = list(args.sizes or SMOKE_SIZES)
        duration = args.duration if args.duration is not None else 0.5
        warmup = args.warmup if args.warmup is not None else 0.25
    else:
        sizes = list(args.sizes or FULL_SIZES)
        duration = args.duration if args.duration is not None else 3.0
        warmup = args.warmup if args.warmup is not None else 2.0
    if args.include_2000 and 2000 not in sizes:
        sizes.append(2000)
    if (args.include_10000 or os.environ.get("REPRO_BENCH_FULL") == "1") and 10000 not in sizes:
        sizes.append(10000)

    result = run_scenario(
        "scaling", sizes=sizes, duration=duration, warmup=warmup, seed=args.seed, jobs=args.jobs
    ).artifact
    table = render_table(result)
    print(table)
    RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_FILE.write_text(table + "\n")

    for point in result.points:
        sps = point.s_per_sim_second
        if not (math.isfinite(sps) and sps > 0):
            print(f"FAIL: nonsense timing for n={point.n}: {sps}", file=sys.stderr)
            return 1
        if point.events <= 0:
            print(f"FAIL: no events fired for n={point.n}", file=sys.stderr)
            return 1
    # Per-node state is bounded by design (one timeout's worth of
    # verification state plus the h-period history), so the per-node
    # peak footprint must not grow with n (jobs>1 workers inherit
    # tracing in some pools and report 0.0 — only enforce on traced
    # points).
    traced = [p for p in result.points if p.peak_mem_mib > 0.0]
    if len(traced) >= 2:
        first, last = traced[0], traced[-1]
        if last.n > first.n and last.peak_mem_kib_per_node > first.peak_mem_kib_per_node:
            print(
                f"FAIL: peak memory per node grew with n "
                f"({first.n}: {first.peak_mem_kib_per_node:.1f} KiB/node -> "
                f"{last.n}: {last.peak_mem_kib_per_node:.1f} KiB/node)",
                file=sys.stderr,
            )
            return 1

    if args.record:
        from repro.scenarios import RunResult

        envelope = RunResult.load(BENCH_FILE)
        data = dict(envelope.metrics)
        data["scaling"] = {
            "note": (
                "Large-n scalability curve (benchmarks/bench_scaling_curve.py, "
                "jobs=1 on an idle machine): wall-clock seconds per simulated "
                "second of a warm PlanetLab-style deployment (fanout 5, 10 "
                "managers, seed below), per system size, plus the tracemalloc "
                "peak over construction + warm-up. The per-node cost is what "
                "the flattened hot paths keep roughly constant, and the "
                "per-node peak memory must keep falling with n (per-node "
                "state is bounded; fixed overheads amortise); refresh "
                "together with the 'current' kernels."
            ),
            **result.as_dict(),
        }
        envelope.with_metrics(data).dump(BENCH_FILE)
        print(f"recorded scaling curve in {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
