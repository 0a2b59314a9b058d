#!/usr/bin/env python3
"""What CPython's cyclic collector costs a simulated second.

Builds one all-honest deployment with the perf ledger's steady
parameters, advances it one simulated second per ``Simulator.run`` call
and prints, per second: the CPU seconds of the call, the automatic
collections that *started inside it* per generation with the CPU
seconds they took, and the collections between calls (where the young
collection owed at the end of a paused run lands).  A final explicit
``gc.collect()`` reports how many unreachable objects the whole run
left behind.

``Simulator.run`` holds the collector off while events fire because a
run allocates nothing cyclic (docs/PERFORMANCE.md, "The run loop and
the cyclic collector"); this is the instrument behind that section's
table, and ``--smoke`` is the CI form of its two conditions: no
collection starts inside the loop, and nothing is found afterwards.
Run it with another checkout's ``src`` on ``PYTHONPATH`` to read that
commit instead.  Standard library only (``gc.callbacks``,
``time.process_time``).

    PYTHONPATH=src python scripts/collector_cost.py            # n=300, 30 s
    PYTHONPATH=src python scripts/collector_cost.py --smoke    # n=24, 3 s, gated
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time
from dataclasses import replace
from typing import Dict, List, Tuple

#: the ledger's steady workload (benchmarks/ledger/spec.py STEADY_*),
#: restated: this script imports nothing from the frozen benchmark.
FANOUT, MANAGERS, P_DCC = 5, 10, 1.0
GENERATIONS = (0, 1, 2)


def empty_tally() -> Dict[Tuple[bool, int], List[float]]:
    """``(started inside a run?, generation) -> [collections, CPU-s]``."""
    return {(where, gen): [0, 0.0] for where in (True, False) for gen in GENERATIONS}


class CollectorMeter:
    """A ``gc.callbacks`` hook: count and clock every collection, split
    by whether it started while ``inside`` was set."""

    def __init__(self) -> None:
        self.inside = False
        self.reclaimed = 0
        self._started_at = 0.0
        self._started_inside = False
        self._tally = empty_tally()

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started_inside = self.inside
            self._started_at = time.process_time()
            return
        cell = self._tally[self._started_inside, info["generation"]]
        cell[0] += 1
        cell[1] += time.process_time() - self._started_at
        self.reclaimed += info["collected"]

    def take(self) -> Dict[Tuple[bool, int], List[float]]:
        """The tally since the last call; a fresh one starts."""
        tally, self._tally = self._tally, empty_tally()
        return tally


def build(n: int, seed: int):
    from repro import ClusterConfig, SimCluster, planetlab_params

    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=n, fanout=FANOUT, source_fanout=FANOUT)
    lifting = replace(lifting, managers=MANAGERS, p_dcc=P_DCC)
    return SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, seed=seed))


def measure(n: int, until: int, seed: int) -> Tuple[List[dict], int, int]:
    """Rows per simulated second, objects the automatic collections
    reclaimed, and the unreachable count of one collection at the end."""
    cluster = build(n, seed)
    cluster.start()
    gc.collect()
    meter = CollectorMeter()
    gc.callbacks.append(meter)
    rows = []
    try:
        for second in range(1, until + 1):
            events = cluster.sim.events_processed
            meter.inside = True
            started = time.process_time()
            cluster.sim.run(until=float(second))
            cpu_s = time.process_time() - started
            meter.inside = False
            rows.append({
                "second": second,
                "cpu_s": cpu_s,
                "events": cluster.sim.events_processed - events,
                "tally": meter.take(),
            })
    finally:
        gc.callbacks.remove(meter)
    return rows, meter.reclaimed, gc.collect()


def render(rows: List[dict]) -> List[str]:
    """A Markdown table: it reads in a terminal and renders in a CI summary."""
    head = ["sim-s", "events", "CPU-s"]
    head += [f"gen{gen} in run (n / CPU-s)" for gen in GENERATIONS]
    head += ["between runs (n / CPU-s)", "collector share"]
    lines = ["| " + " | ".join(head) + " |", "|" + " ---: |" * len(head)]
    for row in rows:
        tally = row["tally"]
        inside_s = sum(tally[True, gen][1] for gen in GENERATIONS)
        outside = [sum(tally[False, gen][k] for gen in GENERATIONS) for k in (0, 1)]
        cells = [str(row["second"]), str(row["events"]), f"{row['cpu_s']:.3f}"]
        cells += [f"{tally[True, gen][0]} / {tally[True, gen][1]:.3f}" for gen in GENERATIONS]
        cells += [f"{outside[0]} / {outside[1]:.3f}"]
        cells += [f"{inside_s / row['cpu_s']:.0%}" if row["cpu_s"] else "-"]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=300, help="deployment size (default 300)")
    parser.add_argument("--until", type=int, default=30, help="simulated seconds (default 30)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true",
        help="n=24 for 3 s, and fail if a collection starts inside the run "
        "loop or the final collection finds anything",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.n, args.until = 24, 3
    rows, reclaimed, unreachable = measure(args.n, args.until, args.seed)
    started, spent = (
        [sum(row["tally"][True, gen][k] for row in rows) for gen in GENERATIONS] for k in (0, 1)
    )
    total_cpu = sum(row["cpu_s"] for row in rows)
    print(f"### Collector cost: n={args.n}, seed={args.seed}, {args.until} simulated seconds\n")
    print("\n".join(render(rows)))
    print(
        f"\ncollections started inside `Simulator.run`: "
        f"{' + '.join(str(n) for n in started)} (gen 0 + 1 + 2), "
        f"{' + '.join(f'{s:.2f}' for s in spent)} = "
        f"{sum(spent):.2f} of {total_cpu:.2f} CPU-s; "
        f"objects every automatic collection reclaimed: {reclaimed}; "
        f"unreachable objects found by one `gc.collect()` after the run: {unreachable}; "
        f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MiB"
    )
    if args.smoke and (sum(started) or unreachable):
        print("FAIL: the run loop must start no collection and leave no cycle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
