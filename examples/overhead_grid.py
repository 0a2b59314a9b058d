#!/usr/bin/env python3
"""Scenario: measure LiFTinG's bandwidth overhead grid on all cores.

Table 5 of the paper reports the verification + reputation traffic as a
percentage of the data traffic for every combination of stream rate
{674, 1082, 2036} kbps and cross-checking probability p_dcc ∈
{0, 0.5, 1}.  Each grid cell is an *independent* deployment, so the
``table5`` scenario fans the nine clusters out over a process pool and
this example shows that the parallel run reproduces the serial result
bit for bit.

Run with::

    python examples/overhead_grid.py [--jobs N]

``--jobs 0`` (the default here) uses every core.  Equivalent CLI:
``repro run table5 --n 80 --duration 8 --jobs 0``.
"""

import argparse
import pickle

from repro import run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", "-j", type=int, default=0,
        help="worker processes for the grid cells (0 = all cores)",
    )
    parser.add_argument("--nodes", "-n", type=int, default=80, help="system size")
    parser.add_argument("--duration", type=float, default=8.0, help="simulated seconds")
    parser.add_argument(
        "--check", action="store_true",
        help="also run serially and verify the cells are byte-identical",
    )
    args = parser.parse_args()

    print(f"measuring the 3x3 overhead grid (n={args.nodes}, jobs={args.jobs})...")
    result = run_scenario(
        "table5", n=args.nodes, duration=args.duration, jobs=args.jobs
    )

    print("\nrate(kbps)  p_dcc  measured   paper")
    for rate, p_dcc, measured, paper in result.artifact.rows():
        print(f"{rate:9.0f}   {p_dcc:4.1f}   {measured:6.2f}%   {paper:5.2f}%")
    print(f"\nwall clock: {result.wall_seconds:.1f}s")

    if args.check:
        print("re-running serially to verify bit-identical results...")
        serial = run_scenario(
            "table5", n=args.nodes, duration=args.duration, jobs=1
        )
        identical = pickle.dumps(serial.artifact) == pickle.dumps(result.artifact)
        print(f"serial wall clock: {serial.wall_seconds:.1f}s "
              f"(speedup {serial.wall_seconds / result.wall_seconds:.2f}x); "
              f"byte-identical: {identical}")


if __name__ == "__main__":
    main()
