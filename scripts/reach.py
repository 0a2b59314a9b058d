#!/usr/bin/env python3
"""Who enters each definition under ``src/repro``?  (``make reach``)

Two entry sets run under a call-event tracer and every ``def`` in
``src/repro`` is put in one of three bins:

* **product** — entered by entry set (i), what the system is *for*:
  every registered scenario at smoke size through
  ``benchmarks/bench_scenarios.py`` and through ``repro run`` (so
  renderers and the CLI count), ``repro list`` / ``describe`` /
  ``audit-verify`` (a clean chain, then a tampered one with
  ``--recover``), the examples, the ledger smoke, every ``make
  live-smoke`` step;
* **tests only** — entered by entry set (ii), tier-1, and not by (i): a
  definition whose only caller is a test;
* **nothing** — entered by neither.

docs/REACHABILITY.md holds the rule applied to the bins and the last
table.  Every entry point runs in its own interpreter; the tracer gets
there through a ``sitecustomize`` directory on ``PYTHONPATH`` (the
ledger starts fresh interpreters of its own) and each process dumps what
it saw at ``atexit`` and from a wrapped ``os._exit`` (process-pool
workers and the ledger's fork-replay children leave that way).  The
only gate is every entry point exiting 0.  Standard library only.

    python scripts/reach.py                 # both sets, ~10 min
    python scripts/reach.py --product-only  # set (i), ~5 min
    python scripts/reach.py -v              # also list the two bins
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "repro") + os.sep
Seen = Set[Tuple[str, int]]
#: modules with fewer non-product lines than this share one table row.
FOLD_BELOW = 25


def install(out_dir: str) -> None:
    """The traced side: remember the code object of every frame entered;
    when the process ends write out ``(file, co_firstlineno)`` of those
    under ``src/repro``."""
    import atexit
    import threading

    seen = set()

    def on_call(frame, _event, _arg):
        seen.add(frame.f_code)
        return None  # no per-line tracing inside the frame

    def dump() -> None:
        sys.settrace(None)  # what follows would otherwise add to the set it walks
        rows = {(os.path.abspath(code.co_filename), code.co_firstlineno) for code in seen}
        path = os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(
                f"{line}\t{name}\n" for name, line in rows if name.startswith(PACKAGE)
            )

    real_exit = os._exit

    def exit_after_dump(code: int) -> None:
        dump()
        real_exit(code)

    os._exit = exit_after_dump
    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)


def entry_points(scratch: pathlib.Path) -> list:
    """Entry set (i): interpreter argument lists, and one untraced
    callable run in between (it tampers with the audit chain)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.scenarios import list_scenarios

    def flag(value) -> str:
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    cli = ["-m", "repro.cli"]
    log = scratch / "audit.jsonl"
    runs = [["benchmarks/bench_scenarios.py", "--smoke"]]
    for spec in list_scenarios():
        sets = [f"--set={key}={flag(value)}" for key, value in spec.smoke.items()]
        runs.append(cli + ["run", spec.name] + sets)
    runs += [
        cli + ["list"],
        cli + ["describe", "fig1"],
        # live-smoke's chaos step, its audit chain kept: verified clean,
        # then broken so that --recover has something to roll back.
        cli + ["run", "chaos", "--set=n=12", "--set=duration=6.0", f"--set=audit_log={log}"],
        cli + ["audit-verify", str(log)],
        lambda: tamper(log),
        cli + ["audit-verify", str(log), "--recover"],
        cli + ["run", "churn", "--set=n=24", "--set=duration=14.0", "--set=rates=0.3"],
        cli + ["run", "coalition", "--set=n=24", "--set=duration=12.0", "--set=sizes=3"],
        ["benchmarks/bench_loadgen.py", "--smoke"],
        ["-m", "benchmarks.ledger", "--smoke"],
    ]
    runs += [[str(path.relative_to(ROOT))] for path in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def tamper(log: pathlib.Path) -> None:
    """Break the HMAC of the chain's last record."""
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].replace('"kind":"', '"kind":"x', 1)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_traced(runs: list, scratch: pathlib.Path, name: str) -> Tuple[Seen, List[str]]:
    """Run each argument list under the tracer (callables are just
    called); the union of what they entered and the entries that did
    not exit 0."""
    out_dir = scratch / name
    out_dir.mkdir()
    hook_dir = scratch / f"{name}-site"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'scripts')!r})\n"
        f"import reach\nreach.install({str(out_dir)!r})\n",
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(ROOT / "src"), str(ROOT)])
    failed = []
    for args in runs:
        if callable(args):
            args()
            continue
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable] + args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=1800
        )
        print(f"  [{done.returncode}] {time.perf_counter() - started:6.1f}s  {' '.join(args)}",
              file=sys.stderr)
        if done.returncode != 0:
            failed.append(" ".join(args))
    seen: Seen = set()
    for path in out_dir.iterdir():
        for row in path.read_text(encoding="utf-8").splitlines():
            line, _, filename = row.partition("\t")
            seen.add((filename, int(line)))
    return seen, failed


def definitions() -> Dict[Tuple[str, int], Tuple[str, str, int]]:
    """``(file, first line incl. decorators) -> (module, qualified name, lines)``."""
    found = {}

    def walk(node, scope: str, filename: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = f"{scope}{child.name}"
                found[(filename, first)] = (module, name, child.end_lineno - first + 1)
                walk(child, f"{name}.", filename, module)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{scope}{child.name}.", filename, module)
            else:
                walk(child, scope, filename, module)

    for path in sorted(pathlib.Path(PACKAGE).rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), "", str(path), module)
    return found


def row_text(label: str, cells: List[int]) -> str:
    """One table row from ``[defs, lines]`` of the three bins, flat."""
    return (f"| {label} | {cells[0] + cells[2] + cells[4]} | {cells[0]} "
            f"| {cells[2]} ({cells[3]}) | {cells[4]} ({cells[5]}) |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--product-only", action="store_true", help="skip entry set (ii), tier-1")
    parser.add_argument("-v", "--verbose", action="store_true", help="list the two bins by name")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = pathlib.Path(tmp)
        product, failed = run_traced(entry_points(scratch), scratch, "product")
        tests: Seen = set()
        if not args.product_only:
            tests, failed_tests = run_traced(
                [["-m", "pytest", "-q", "-p", "no:cacheprovider"]], scratch, "tests"
            )
            failed += failed_tests

    # With set (ii) not run its bin stays empty: "nothing" then reads
    # "not entered by the product".
    bins = ("product", "tests only", "nothing")
    rows: Dict[str, List[int]] = {}
    named: Dict[str, List[str]] = {name: [] for name in bins[1:]}
    for key, (module, name, lines) in sorted(definitions().items()):
        which = 0 if key in product else 1 if key in tests else 2
        for label in (module, "**src/repro**"):
            cells = rows.setdefault(label, [0] * 6)
            cells[2 * which] += 1
            cells[2 * which + 1] += lines
        if which:
            named[bins[which]].append(f"{module}.{name}  ({lines} lines)")

    def outside(cells: List[int]) -> int:
        return cells[3] + cells[5]  # lines no product entry point enters

    print("| module | defs | product | tests only (lines) | nothing (lines) |")
    print("|---|---:|---:|---:|---:|")
    # Largest such body first (the total row leads); the small ones share a row.
    rest, folded = [0] * 6, 0
    for label, cells in sorted(rows.items(), key=lambda row: -outside(row[1])):
        if outside(cells) >= FOLD_BELOW:
            print(row_text(label, cells))
        elif outside(cells):
            folded += 1
            rest = [a + b for a, b in zip(rest, cells)]
    if folded:
        print(row_text(f"{folded} modules under {FOLD_BELOW} such lines each", rest))
    if args.verbose:
        for name in bins[1:]:
            print(f"\n{name}:")
            print("\n".join(f"  {line}" for line in named[name]))
    for entry in failed:
        print(f"FAIL: did not exit 0: {entry}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
