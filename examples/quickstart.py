#!/usr/bin/env python3
"""Quickstart: detect freeriders in a gossip streaming deployment.

One call — the ``detect`` scenario calibrates the wrongful-blame
compensation on an honest deployment (the designer step of §6.2),
deploys 100 nodes with 10 % freeriders that skimp on every phase
(§7.1's configuration), runs 30 simulated seconds, and reports the
detection at the calibrated threshold and the bandwidth overhead.

Run with::

    python examples/quickstart.py

Every scenario is declarative data against one engine: ``repro list``
shows them all, ``repro describe detect`` the parameters used here,
and ``repro run detect --json -`` the same run as a structured
``RunResult`` envelope (see docs/SCENARIOS.md).
"""

from repro import run_scenario


def main() -> None:
    print("running the 'detect' scenario (calibration + deployment)...")
    result = run_scenario("detect", n=100, seed=1, duration=30.0)

    # The run's metrics: a JSON-safe mapping (what `repro run detect
    # --json -` serialises, and what benchmark baselines are stored as).
    metrics = result.metrics
    print(f"\n  compensation b~ = {metrics['compensation']:.2f} blame/period")
    print(f"  threshold eta (false positives <= 1%) = {metrics['eta']:.2f}")
    print(f"  detection {metrics['detection']:.0%}, "
          f"false positives {metrics['false_positives']:.0%}")
    print(f"  bandwidth overhead {metrics['overhead_percent']:.2f}%")

    # The same payload the way `repro run detect` prints it.
    print(f"\n{result.render()}")


if __name__ == "__main__":
    main()
