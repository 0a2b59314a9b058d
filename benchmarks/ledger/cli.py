"""Command line of the ledger: one run, the whole suite, or a repeat check.

* ``--workload W --seed S --seconds T --trace 0|1`` — **one run** of one
  workload in this process (the form ``BENCHMARK.json``'s command is
  called in).  The last line of stdout is the result object.
* no ``--trace`` value — **the suite**: every workload (or ``--workload
  W``) in its own fresh subprocess, one after another, first with
  tracing off, then one traced pass each for the per-layer numbers.
* ``--verify-repeat`` — the untraced suite twice, back to back; fails
  when an end-to-end metric moves by more than its own bound, or when a
  simulated workload's call count is not identical.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger import measure, profiling, spec

RESULTS_DIR = os.path.join(measure.ROOT, "benchmarks", "results", "ledger")
RECORD_SCHEMA = "repro.ledger_run/1"
_MODULE_OF = {
    "sim300_steady": "steady", "sim1000_steady": "steady",
    "paper_scenarios": "paper", "live_loopback": "live",
}
_E2E_UNITS = {name: unit for name, unit, _better, _bound in spec.END_TO_END}
_BOUNDS = {name: bound for name, _unit, _better, bound in spec.END_TO_END}


def _module(workload: str):
    return importlib.import_module(f"benchmarks.ledger.{_MODULE_OF[workload]}")


def _default_seconds() -> float:
    with open(os.path.join(measure.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


def _host_stamp(load_at_start) -> Dict[str, object]:
    import numpy

    stamp: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(load_at_start),
    }
    try:
        from repro.util.provenance import collect_provenance

        stamp["provenance"] = collect_provenance()
    except ImportError:
        stamp["provenance"] = None
    return stamp


def _write_record(path: Optional[str], stem: str, payload: Dict[str, object]) -> str:
    if path is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        path = os.path.join(RESULTS_DIR, f"{stamp}-{stem}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=repr)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def single_run(args, t0: float) -> int:
    load_at_start = os.getloadavg()
    trace = bool(args.trace)
    out = _module(args.workload).run(args.workload, args.seed, args.seconds, trace, args.smoke, t0)
    units = {k: u for k, (u, _b) in spec.PER_LAYER.items()} if trace else _E2E_UNITS
    if set(out["metrics"]) != set(units):
        raise RuntimeError(f"metric names drifted from spec: {set(out['metrics']) ^ set(units)}")
    failures = out["failures"]
    result = {
        "correct": not failures,
        "attempted": int(out["attempted"]),
        "failed": int(out.get("failed", len(failures))),
        "metrics": {name: {"value": float(out["metrics"][name]), "unit": units[name]} for name in units},
    }
    if trace:
        import repro

        gone = profiling.missing_layers(os.path.dirname(repro.__file__))
        if gone:
            print(f"warning: declared layers with no file left (read 0): {gone}", file=sys.stderr)
    detail = out["record"]
    path = _write_record(args.record, f"{args.workload}-seed{args.seed}-trace{int(trace)}", {
        "schema": RECORD_SCHEMA, "workload": args.workload, "why": spec.WORKLOADS[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": trace, "smoke": args.smoke,
        "host": _host_stamp(load_at_start), "constants": spec.frozen_constants(),
        "result": result, "detail": detail,
    })
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={int(trace)}"
          f"{' smoke' if args.smoke else ''}  result_digest={detail.get('result_digest')}")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:16.6f} {entry['unit']}")
    print(f"error_rate {result['failed']}/{result['attempted']}  record: {os.path.relpath(path, measure.ROOT)}")
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def _child(workload: str, args, trace: int) -> Tuple[dict, dict]:
    """One workload in a fresh subprocess; its result line and its record."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    part = os.path.join(RESULTS_DIR, f".part-{os.getpid()}-{workload}-{trace}.json")
    cmd = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--record", part,
    ] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=measure.ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"ledger: {workload} (trace {trace}) exited {done.returncode}")
    for line in done.stdout.splitlines():
        if line.startswith("FAILED"):
            print(f"  {workload}: {line}")
    try:
        with open(part, encoding="utf-8") as handle:
            record = json.load(handle)
    finally:
        if os.path.exists(part):
            os.unlink(part)
    return json.loads(done.stdout.splitlines()[-1]), record


def _pass(workloads: List[str], args, trace: int) -> Dict[str, Tuple[dict, dict]]:
    out = {}
    for workload in workloads:
        started = time.perf_counter()
        out[workload] = _child(workload, args, trace)
        result = out[workload][0]
        print(f"  {workload:16s} trace={trace} {time.perf_counter() - started:6.1f} s  "
              f"error_rate {result['failed']}/{result['attempted']}  "
              f"digest {str(out[workload][1]['detail'].get('result_digest'))[:12]}")
    return out


def _table(title: str, passed: Dict[str, Tuple[dict, dict]]) -> None:
    workloads = list(passed)
    names = list(next(iter(passed.values()))[0]["metrics"])
    print(f"\n{title}")
    print(f"{'metric':44s} {'unit':16s}" + "".join(f"{w:>18s}" for w in workloads))
    for name in names:
        cells = [passed[w][0]["metrics"][name] for w in workloads]
        print(f"{name:44s} {cells[0]['unit']:16s}" + "".join(f"{c['value']:18.6g}" for c in cells))
    print(f"{'error_rate':44s} {'failed/attempted':16s}" + "".join(
        f"{passed[w][0]['failed']:>9d}/{passed[w][0]['attempted']:<8d}" for w in workloads))


def suite(args) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    print(f"ledger: seed={args.seed} seconds={args.seconds:g}{' smoke' if args.smoke else ''}; "
          "each workload in its own process, one at a time (live_loopback: loopback, no real link)")
    untraced = _pass(workloads, args, 0)
    _table("end-to-end (tracing off)", untraced)
    traced = _pass(workloads, args, 1)
    _table("per-layer (traced pass; 0 = layer not run by that workload)", traced)
    path = _write_record(args.record, f"suite-seed{args.seed}", {
        "schema": RECORD_SCHEMA, "suite": True, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "interactions": [list(row) for row in spec.INTERACTIONS],
        "untraced": {w: r[1] for w, r in untraced.items()},
        "traced": {w: r[1] for w, r in traced.items()},
    })
    print(f"\nrecord: {os.path.relpath(path, measure.ROOT)}")
    correct = all(r[0]["correct"] for r in list(untraced.values()) + list(traced.values()))
    return 0 if correct else 1


def verify_repeat(args) -> int:
    """The untraced suite twice; every end-to-end metric must agree within
    its bound, and the call count of a simulated workload exactly."""
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    sets = []
    for index in (1, 2):
        print(f"set {index}:")
        sets.append(_pass(workloads, args, 0))
    bad = 0
    print(f"\n{'workload':16s} {'metric':24s} {'set 1':>16s} {'set 2':>16s} {'ratio':>8s} {'bound':>6s}")
    for workload in workloads:
        first, second = (s[workload][0]["metrics"] for s in sets)
        for name, bound in _BOUNDS.items():
            a, b = first[name]["value"], second[name]["value"]
            # the live loop's wake-ups follow the wall clock; simulated clocks repeat exactly
            exact = name == "py_calls_per_stream_s" and workload != "live_loopback"
            ok = a == b if exact else abs(b / a - 1.0) <= bound
            bad += not ok
            print(f"{workload:16s} {name:24s} {a:16.6f} {b:16.6f} {b / a:8.4f} "
                  f"{'exact' if exact else format(bound, '6.2f'):>6s}{'' if ok else '  DISAGREE'}")
    correct = all(r[0]["correct"] for s in sets for r in s.values())
    return 0 if bad == 0 and correct else 1


def main(t0: float) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="the only source of randomness")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=None, default=None,
                        help="with a value: one run, tracing off (0) or on (1)")
    parser.add_argument("--smoke", action="store_true", help="same code path at toy sizes")
    parser.add_argument("--verify-repeat", action="store_true")
    parser.add_argument("--record", default=None, help="write the run record to this file")
    parser.add_argument("--setup-probe", choices=("paper_scenarios", "live_loopback"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        _module(args.setup_probe).set_up()
        print(time.process_time() - t0)
        return 0
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else _default_seconds()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace 0|1 runs one workload: name it with --workload")
        return single_run(args, t0)
    return verify_repeat(args) if args.verify_repeat else suite(args)
