#!/usr/bin/env python
"""Load-generator baseline: where is this machine's knee?

Runs the ``loadgen`` scenario (open-loop stepped-rate sweep against a
live loopback deployment, see ``docs/LOADGEN.md``) and prints its
metrics the way ``repro run loadgen`` does.  Two extra modes:

* ``--smoke`` — a tiny timeout-friendly sweep for CI: asserts that the
  report parses (schema tag, knee payload, per-stage percentiles all
  present and JSON-safe) and that the invariant monitor saw zero
  violations while the node was under load.  It makes **no** claim
  about where the knee is — shared runners are too noisy for that.
* ``--record`` — a longer ladder on an idle machine; writes the
  detected knee and the per-stage p50/p99 at the knee into
  ``benchmarks/BENCH_loadgen.json`` as the comparison baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_loadgen.py           # default sweep
    PYTHONPATH=src python benchmarks/bench_loadgen.py --smoke   # CI gate
    PYTHONPATH=src python benchmarks/bench_loadgen.py --record  # refresh baseline

Every run also writes the rendered metrics to
``benchmarks/results/loadgen_report.txt`` for CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BENCH_FILE = pathlib.Path(__file__).resolve().parent / "BENCH_loadgen.json"
RESULTS_FILE = pathlib.Path(__file__).resolve().parent / "results" / "loadgen_report.txt"

#: CI smoke: two gentle rungs, far below any plausible knee.
SMOKE = dict(n=6, rate=300.0, step=300.0, steps=2, step_duration=0.5)

#: Baseline ladder: climbs until a loopback deployment saturates.
RECORD = dict(n=8, rate=4000.0, step=4000.0, steps=5, step_duration=1.0)


def check_report(result) -> None:
    """The smoke contract: the report parses and the run stayed clean."""
    metrics = result.metrics
    load = metrics["load"]
    assert load["schema"] == "repro.loadgen_report/1", load.get("schema")
    assert load["resilience"]["schema"] == "repro.resilience_snapshot/1"
    knee = load["knee"]
    assert isinstance(knee["saturated"], bool)
    assert len(knee["offered"]) == len(knee["goodput"]) == len(knee["ratios"])
    for stage in ("ingress", "queue", "dispatch", "sojourn"):
        p99 = metrics["stage_p99"][stage]
        assert p99 == p99 and p99 >= 0.0, (stage, p99)  # present, not NaN
    assert metrics["frames_offered"] > 0
    assert metrics["invariant_violations"] == 0, metrics["invariant_violations"]
    json.dumps(load)  # the whole payload must be JSON-safe


def record_baseline(result) -> None:
    metrics = result.metrics
    load = metrics["load"]
    payload = {
        "_comment": (
            "Loadgen knee baseline; refresh on an idle machine with "
            "`make bench-loadgen`. See docs/LOADGEN.md."
        ),
        "params": result.params,
        "knee": load["knee"],
        "overall_stage_p50": metrics["stage_p50"],
        "overall_stage_p99": metrics["stage_p99"],
        "ingress_high_water": metrics["ingress_high_water"],
        "ingress_dropped": metrics["ingress_dropped"],
        "provenance": result.provenance,
    }
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"recorded loadgen baseline in {BENCH_FILE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="tiny CI sweep; parse + invariant gate only")
    parser.add_argument("--record", action="store_true", help="long ladder; write BENCH_loadgen.json")
    parser.add_argument("--n", type=int, default=None, help="override deployment size")
    parser.add_argument("--steps", type=int, default=None, help="override ladder length")
    args = parser.parse_args(argv)

    from repro.scenarios import run_scenario

    overrides = dict(SMOKE if args.smoke else RECORD)
    if args.n is not None:
        overrides["n"] = args.n
    if args.steps is not None:
        overrides["steps"] = args.steps

    result = run_scenario("loadgen", **overrides)
    rendered = result.render()
    print(rendered)
    RESULTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_FILE.write_text(rendered + "\n", encoding="utf-8")

    check_report(result)
    if args.record:
        record_baseline(result)
    print("loadgen report ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
