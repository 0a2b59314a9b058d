#!/usr/bin/env python3
"""Who enters each definition under ``src/repro``, who runs each line,
and who sets each option?  (``make reach``)

Two entry sets run under a tracer and three tables come out:

* **definitions** — every ``def`` in ``src/repro`` is *product* (entered
  by entry set (i), what the system is *for*: every registered scenario
  at smoke size through ``benchmarks/bench_scenarios.py`` and through
  ``repro run``, so the renderer and the CLI count, ``repro list`` /
  ``describe`` / ``audit-verify`` on a clean chain then a tampered one
  with ``--recover``, the examples, the ledger smoke, every ``make
  live-smoke`` step), *tests only* (entered by entry set (ii), tier-1,
  and not by (i): a definition whose only caller is a test) or
  *nothing* (entered by neither);
* **lines** — the same three bins for every line that carries bytecode,
  and, of the lines nothing runs, how many sit inside a function the
  product enters: the dead branches a def-level table cannot see;
* **options** — every defaulted parameter of a constructor under
  ``src/repro`` (dataclass fields included), and whether the product,
  only tests, or nothing ever gave it a second *valid* value: one that
  differs from the default and that the constructor did not raise on.

docs/REACHABILITY.md holds the rule applied to the tables and the last
reading.  Every entry point runs in its own interpreter; the tracer gets
there through a ``sitecustomize`` directory on ``PYTHONPATH`` (the
ledger starts fresh interpreters of its own) and each process dumps what
it saw at ``atexit`` and from a wrapped ``os._exit`` (process-pool
workers and the ledger's fork-replay children leave that way).  The
only gate is every entry point exiting 0.  Standard library only.

    python scripts/reach.py                 # both sets, all three tables, ~17 min
    python scripts/reach.py --product-only  # set (i), definitions only, ~5 min
    python scripts/reach.py -v              # also name what the tables count

``--product-only`` traces call events alone, which is what keeps CI's
form fast; the line and option tables need both sets and ride the full
run's tracer.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import tempfile
import time
import types
from typing import Dict, List, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "repro") + os.sep
#: modules with fewer non-product lines than this share one table row.
FOLD_BELOW = 25
#: distinct values remembered per option (the table needs "a second one").
VALUES_KEPT = 4


def constructor_options(cls: type) -> List[Tuple[str, object, object]]:
    """``(name, default, value)`` of every defaulted ``__init__``
    parameter of ``cls``: what the signature holds when the caller
    passes nothing (a sentinel for a dataclass ``default_factory``) and
    the value that stands for (the factory's product)."""
    fields = getattr(cls, "__dataclass_fields__", {})
    out = []
    for name, param in list(inspect.signature(cls.__init__).parameters.items())[1:]:
        if param.default is inspect.Parameter.empty:
            continue
        factory = getattr(fields.get(name), "default_factory", None)
        out.append((name, param.default, factory() if callable(factory) else param.default))
    return out


def option_key(cls: type, name: str) -> str:
    return f"{cls.__module__.partition('.')[2]}.{cls.__qualname__}.{name}"


def install(out_dir: str, lines: bool) -> None:
    """The traced side.  Always: remember the code object of every frame
    entered.  With ``lines``: also every line event of a frame under
    ``src/repro``, and for every ``__init__`` of a class under
    ``repro`` the defaulted parameters it was called with a different
    value for, filed as valid or invalid when the constructor returns or
    raises.  When the process ends, write the lot out as JSON."""
    import atexit
    import threading

    entered = set()
    executed: Dict[types.CodeType, set] = {}
    tracers: Dict[types.CodeType, object] = {}
    constructors: Dict[types.CodeType, Optional[list]] = {}
    moved: Dict[str, Dict[str, list]] = {}

    def line_tracer(code):
        """The local trace function of every frame running ``code``
        (None outside ``src/repro``), built once per code object."""
        try:
            return tracers[code]
        except KeyError:
            pass
        tracer = None
        if code.co_filename.startswith(PACKAGE):
            add = executed.setdefault(code, set()).add

            def tracer(frame, event, _arg):
                if event == "line":
                    add(frame.f_lineno)
                return tracer

        tracers[code] = tracer
        return tracer

    def options_of(code, instance) -> Optional[list]:
        """``[(key, name, default, value)]`` when ``code`` is the
        ``__init__`` of a class under ``repro`` in ``instance``'s MRO,
        else None."""
        try:
            return constructors[code]
        except KeyError:
            pass
        found = None
        for cls in type(instance).__mro__:
            init = cls.__dict__.get("__init__")
            if getattr(init, "__code__", None) is code:
                if cls.__module__.startswith("repro."):
                    found = [
                        (option_key(cls, option[0]),) + option
                        for option in constructor_options(cls)
                    ]
                break
        constructors[code] = found or None
        return constructors[code]

    def watch(changed: list, inner):
        """Local trace function of one constructor call: ``inner``'s
        line accounting, plus the verdict on ``changed`` at the exit —
        a frame left by an exception reports it as its last event."""
        raised = False

        def tracer(frame, event, arg):
            nonlocal raised
            if event == "exception":
                raised = True
            elif event == "return":
                which = "invalid" if raised else "valid"
                for key, text in changed:
                    seen = moved.setdefault(key, {"valid": [], "invalid": []})[which]
                    if text not in seen and len(seen) < VALUES_KEPT:
                        seen.append(text)
            else:
                raised = False
                if inner is not None:
                    inner(frame, event, arg)
            return tracer

        return tracer

    def on_call(frame, _event, _arg):
        code = frame.f_code
        entered.add(code)
        if not lines:
            return None  # no per-line tracing inside the frame
        tracer = line_tracer(code)
        if code.co_name != "__init__":
            return tracer
        values = frame.f_locals
        instance = values.get(code.co_varnames[0]) if code.co_argcount else None
        options = options_of(code, instance) if instance is not None else None
        if not options:
            return tracer
        changed = []
        for key, name, default, stands_for in options:
            value = values.get(name, default)
            try:
                same = value is default or bool(value == stands_for)
            except Exception:  # an array, a mock: not the default
                same = False
            if not same:
                changed.append((key, repr(value)[:60]))
        return watch(changed, tracer) if changed else tracer

    def dump() -> None:
        sys.settrace(None)  # what follows would otherwise add to the sets it walks
        by_file: Dict[str, set] = {}
        for code, numbers in executed.items():
            by_file.setdefault(os.path.abspath(code.co_filename), set()).update(numbers)
        payload = {
            "defs": sorted(
                {(os.path.abspath(code.co_filename), code.co_firstlineno) for code in entered
                 if code.co_filename.startswith(PACKAGE)}
            ),
            "lines": {name: sorted(numbers) for name, numbers in by_file.items()},
            "options": moved,
        }
        path = os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

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
    from repro.scenarios import list_scenarios

    def flag(value) -> str:
        return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)

    cli = ["-m", "repro.cli"]
    log = scratch / "audit.jsonl"
    runs = [["benchmarks/bench_scenarios.py"]]
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
        ["-m", "benchmarks.ledger", "--smoke"],
    ]
    runs += [[str(path.relative_to(ROOT))] for path in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def tamper(log: pathlib.Path) -> None:
    """Break the HMAC of the chain's last record."""
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].replace('"kind":"', '"kind":"x', 1)
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Seen:
    """What one entry set did: the union of its processes' dumps."""

    def __init__(self) -> None:
        self.defs: Set[Tuple[str, int]] = set()
        self.lines: Dict[str, Set[int]] = {}
        #: option key -> {"valid": [...], "invalid": [...]} value texts.
        self.options: Dict[str, Dict[str, list]] = {}

    def add(self, payload: dict) -> None:
        self.defs.update((name, line) for name, line in payload["defs"])
        for name, numbers in payload["lines"].items():
            self.lines.setdefault(name, set()).update(numbers)
        for key, values in payload["options"].items():
            mine = self.options.setdefault(key, {"valid": [], "invalid": []})
            for which, texts in values.items():
                mine[which] += [text for text in texts if text not in mine[which]]


def run_traced(runs: list, scratch: pathlib.Path, name: str, lines: bool) -> Tuple[Seen, List[str]]:
    """Run each argument list under the tracer (callables are just
    called); what they did together and the entries that did not exit 0."""
    out_dir = scratch / name
    out_dir.mkdir()
    hook_dir = scratch / f"{name}-site"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'scripts')!r})\n"
        f"import reach\nreach.install({str(out_dir)!r}, {lines!r})\n",
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
            [sys.executable] + args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=3600
        )
        print(f"  [{done.returncode}] {time.perf_counter() - started:6.1f}s  {' '.join(args)}",
              file=sys.stderr)
        if done.returncode != 0:
            failed.append(" ".join(args))
    seen = Seen()
    for path in out_dir.iterdir():
        seen.add(json.loads(path.read_text(encoding="utf-8")))
    return seen, failed


def sources() -> List[Tuple[str, str]]:
    """``(file, dotted module under repro)`` of every source file."""
    return [
        (str(path), ".".join(path.relative_to(PACKAGE).with_suffix("").parts))
        for path in sorted(pathlib.Path(PACKAGE).rglob("*.py"))
    ]


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

    for filename, module in sources():
        walk(ast.parse(pathlib.Path(filename).read_text(encoding="utf-8")), "", filename, module)
    return found


def executable_lines(filename: str) -> Set[int]:
    """Every line of ``filename`` that carries bytecode, in any of its
    code objects — the lines a line event can name."""
    source = pathlib.Path(filename).read_text(encoding="utf-8")
    stack = [compile(source, filename, "exec")]
    numbers: Set[int] = set()
    while stack:
        code = stack.pop()
        numbers.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return numbers


def all_options() -> Dict[str, List[str]]:
    """``class key -> option keys`` of every class under ``repro`` whose
    own ``__init__`` takes a defaulted parameter.  A dataclass that is
    not frozen is a record — its defaults are the state it starts in,
    filled in after construction — and is left out."""
    import repro

    found: Dict[str, List[str]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != info.name:
                continue
            if "__init__" not in cls.__dict__:
                continue
            if dataclasses.is_dataclass(cls) and not cls.__dataclass_params__.frozen:
                continue
            keys = [option_key(cls, option[0]) for option in constructor_options(cls)]
            if keys:
                found[option_key(cls, "")[:-1]] = keys
    return found


def ranges(numbers: List[int]) -> str:
    """``[3, 4, 5, 9] -> "3-5, 9"``."""
    spans, start, last = [], None, None
    for number in numbers + [None]:
        if start is not None and number != last + 1:
            spans.append(str(start) if start == last else f"{start}-{last}")
            start = None
        if start is None:
            start = number
        last = number
    return ", ".join(spans)


def row_text(label: str, cells: List[int]) -> str:
    """One table row from ``[count, lines]`` of the three bins, flat."""
    return (f"| {label} | {cells[0] + cells[2] + cells[4]} | {cells[0]} "
            f"| {cells[2]} ({cells[3]}) | {cells[4]} ({cells[5]}) |")


def print_definitions(defs: dict, product: Seen, tests: Seen, verbose: bool) -> None:
    # With set (ii) not run its bin stays empty: "nothing" then reads
    # "not entered by the product".
    bins = ("product", "tests only", "nothing")
    rows: Dict[str, List[int]] = {}
    named: Dict[str, List[str]] = {name: [] for name in bins[1:]}
    for key, (module, name, lines) in sorted(defs.items()):
        which = 0 if key in product.defs else 1 if key in tests.defs else 2
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
    if verbose:
        for name in bins[1:]:
            print(f"\n{name}:")
            print("\n".join(f"  {line}" for line in named[name]))


def print_lines(defs: dict, product: Seen, tests: Seen, verbose: bool) -> None:
    """The line table.  A line nothing runs is *inside the product* when
    the innermost ``def`` around it is one the product enters (module
    and class bodies: when the product imports the file)."""
    spans: Dict[str, List[Tuple[int, int, str]]] = {}
    for (filename, first), (_module, name, lines) in defs.items():
        spans.setdefault(filename, []).append((first, first + lines - 1, name))
    total = [0, 0, 0, 0, 0]  # executable, product, tests only, nothing, of which inside
    rows, named = [], []
    for filename, module in sources():
        ran_product = product.lines.get(filename, set())
        ran_tests = tests.lines.get(filename, set())
        defs = sorted(spans.get(filename, []))
        starts = [first for first, _, _ in defs]
        cells = [0, 0, 0, 0, 0]
        inside: Dict[str, List[int]] = {}
        for line in sorted(executable_lines(filename)):
            cells[0] += 1
            if line in ran_product:
                cells[1] += 1
            elif line in ran_tests:
                cells[2] += 1
            else:
                cells[3] += 1
                # innermost enclosing def: the last one starting at or before the line
                owner = None
                for first, last, name in reversed(defs[: bisect.bisect_right(starts, line)]):
                    if last >= line:
                        owner = (first, name)
                        break
                if owner is None:
                    entered, name = bool(ran_product), "(module)"
                else:
                    entered, name = (filename, owner[0]) in product.defs, owner[1]
                if entered:
                    cells[4] += 1
                    inside.setdefault(name, []).append(line)
        total = [a + b for a, b in zip(total, cells)]
        rows.append((module, cells))
        named += [f"{module}.{name}: {ranges(numbers)}" for name, numbers in inside.items()]
    print("\n| module | executable lines | product | tests only | nothing | of which inside the product |")
    print("|---|---:|---:|---:|---:|---:|")
    print("| **src/repro** | " + " | ".join(map(str, total)) + " |")
    for module, cells in sorted(rows, key=lambda row: -row[1][4]):
        if cells[4] >= 4:
            print(f"| {module} | " + " | ".join(map(str, cells)) + " |")
    if verbose:
        print("\nlines nothing runs, inside functions the product enters:")
        print("\n".join(f"  {line}" for line in named))


def print_options(product: Seen, tests: Seen, verbose: bool) -> None:
    """The option table: per class, how many constructor options the
    product never moves and how many nothing moves."""
    print("\n| class | options | product moves | only tests move | nothing moves |")
    print("|---|---:|---:|---:|---:|")
    total = [0, 0, 0, 0]
    rows, named = [], {"only tests move": [], "nothing moves": []}
    for cls, keys in sorted(all_options().items()):
        cells = [len(keys), 0, 0, 0]
        for key in keys:
            by_tests = tests.options.get(key, {"valid": [], "invalid": []})
            if product.options.get(key, {}).get("valid"):
                cells[1] += 1
            elif by_tests["valid"]:
                cells[2] += 1
                named["only tests move"].append(f"{key} = {', '.join(by_tests['valid'])}")
            else:
                cells[3] += 1
                rejected = by_tests["invalid"] + product.options.get(key, {}).get("invalid", [])
                named["nothing moves"].append(
                    key + (f"  (rejected: {', '.join(rejected)})" if rejected else "")
                )
        total = [a + b for a, b in zip(total, cells)]
        rows.append((cls, cells))
    print(f"| **{len(rows)} classes** | " + " | ".join(map(str, total)) + " |")
    for cls, cells in rows:
        if cells[2] or cells[3]:
            print(f"| {cls} | " + " | ".join(map(str, cells)) + " |")
    if verbose:
        for name, entries in named.items():
            print(f"\n{name}:")
            print("\n".join(f"  {line}" for line in entries))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--product-only", action="store_true",
                        help="skip entry set (ii), tier-1, and the line / option tables")
    parser.add_argument("-v", "--verbose", action="store_true", help="name what the tables count")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    full = not args.product_only

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = pathlib.Path(tmp)
        product, failed = run_traced(entry_points(scratch), scratch, "product", full)
        tests = Seen()
        if full:
            tests, failed_tests = run_traced(
                [["-m", "pytest", "-q", "-p", "no:cacheprovider"]], scratch, "tests", full
            )
            failed += failed_tests

    defs = definitions()
    print_definitions(defs, product, tests, args.verbose)
    if full:
        print_lines(defs, product, tests, args.verbose)
        print_options(product, tests, args.verbose)
    for entry in failed:
        print(f"FAIL: did not exit 0: {entry}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
