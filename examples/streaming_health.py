#!/usr/bin/env python3
"""Scenario: how freeriders degrade a live stream, and how LiFTinG saves it.

Reproduces the story of the paper's Figure 1 on a laptop-sized
deployment: a 674 kbps stream is broadcast to a system with finite
upload headroom.  Three runs:

1. everyone honest (baseline);
2. 25 % heavy freeriders, no LiFTinG — dissemination collapses;
3. 25 % *wise* freeriders under LiFTinG with expulsion — they dare not
   deviate past δ ≈ 0.035 (Figure 12's 50 %-detection point), so the
   stream stays healthy.

Run with::

    python examples/streaming_health.py [--jobs N]

The three deployments are independent; ``--jobs 3`` runs them on three
worker processes with bit-identical curves (``--jobs 0`` = all cores).
Equivalent CLI: ``repro run fig1 --n 100 --duration 25 --jobs 3``.
"""

import argparse

from repro import run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the three deployments (0 = all cores)",
    )
    args = parser.parse_args()

    print("running three deployments (this takes a minute or two)...")
    metrics = run_scenario("fig1", n=100, duration=25.0, seed=7, jobs=args.jobs).metrics
    rows = list(zip(
        metrics["lags_s"],
        metrics["baseline"],
        metrics["freeriders_no_lifting"],
        metrics["freeriders_with_lifting"],
    ))

    print("\nfraction of nodes viewing a clear stream, by stream lag:")
    print("  lag(s)   baseline   freeriders   freeriders+LiFTinG")
    for lag, base, collapsed, protected in rows:
        if lag <= 12 or lag % 5 == 0:
            bar = "*" * int(20 * protected)
            print(f"  {lag:5.0f}    {base:7.2f}    {collapsed:9.2f}    {protected:10.2f}  {bar}")

    lag, base, collapsed, protected = next(row for row in rows if row[0] == 5.0)
    print(
        f"\nat a {lag:.0f} s playout delay: baseline {base:.0%} of nodes are clear, "
        f"freeriders alone drop that to {collapsed:.0%}, "
        f"and LiFTinG restores it to {protected:.0%}."
    )
    print(f"nodes expelled by LiFTinG during the run: {metrics['expelled_with_lifting']}")


if __name__ == "__main__":
    main()
