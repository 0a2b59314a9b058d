#!/usr/bin/env python
"""Registry-driven scenario sweep: run everything, validate the schema.

Runs **every registered scenario** (``repro.scenarios.list_scenarios``)
at its declared smoke size, validates that the resulting
``RunResult`` envelope round-trips losslessly through its JSON schema
(``to_json`` → ``from_json`` → identical envelope and identical
serialisation) and renders it the way ``repro run`` does
(``RunResult.render``), failing on a metric that is a sequence of
mappings but would not print as a table (a row holds a mapping, or the
rows' keys differ); a whole-
registry sweep ends with one two-cell ``repro run analyze --sweep``, the
product sweep's only entry point outside the tests, and fails unless
every registered adversary policy armed a node in some scenario it ran
(an attack no run arms is dead code).  This is the
drift gate for the Unified Scenario API: a scenario whose parameters
stop resolving, whose reducer breaks or whose metrics stop being
JSON-safe (or render to nothing) fails here before it fails a user.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py
    PYTHONPATH=src python benchmarks/bench_scenarios.py --only fig1
    PYTHONPATH=src python benchmarks/bench_scenarios.py --skip-tag live
    PYTHONPATH=src python benchmarks/bench_scenarios.py --json-dir out/

The socket-backed scenario (tag ``live``: ``loadgen``) is part of the
sweep like any other registration; CI runs it in a dedicated
timeout-bounded job (``--only loadgen``) so a hung event loop cannot
stall the simulator benchmarks, which skip it via ``--skip-tag live``.
``detect`` runs here on its default plane, the simulator; its socket
arm (``plane=live``) is a step of ``make live-smoke`` and a tier-1
round-trip test.

Smoke sizing is the only mode: the paper's claims are checked at their
own sizes by ``benchmarks/scorecard.py``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from collections.abc import Mapping


def _untabled(metrics: Mapping):
    """The metrics that are sequences of mappings ``RunResult.render``
    would not print as a table.  Only a scenario's own metrics are
    checked: a report it carries whole (``loadgen``'s ``load``) keeps the
    schema of its producer."""
    from repro.scenarios.spec import _is_table

    for key, value in metrics.items():
        if (
            isinstance(value, tuple) and value
            and all(isinstance(row, Mapping) for row in value)
            and not _is_table(value)
        ):
            yield key


def _record_armed_policies(armed: set) -> None:
    """Add to ``armed`` the name of every adversary policy a deployment
    built for at least one node, on either plane."""
    from repro.deployment import Deployment

    init = Deployment.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.adversary_policy is not None and self.freerider_ids:
            armed.add(self.adversary_policy.name)

    Deployment.__init__ = recording_init


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", action="append", default=None, metavar="NAME",
        help="run only these scenarios (repeatable)",
    )
    parser.add_argument(
        "--skip-tag", action="append", default=[], metavar="TAG",
        help="skip scenarios carrying TAG (e.g. 'live' where sockets are "
        "unavailable; repeatable)",
    )
    parser.add_argument(
        "--json-dir", default=None, metavar="DIR",
        help="also dump every RunResult envelope as DIR/<scenario>.json",
    )
    args = parser.parse_args(argv)

    from repro.adversary import available
    from repro.scenarios import RunResult, list_scenarios, run_scenario

    armed: set = set()
    _record_armed_policies(armed)
    specs = list_scenarios()
    if args.only:
        wanted = set(args.only)
        unknown = wanted - {spec.name for spec in specs}
        if unknown:
            print(f"FAIL: unknown scenario(s): {sorted(unknown)}", file=sys.stderr)
            return 2
        specs = [spec for spec in specs if spec.name in wanted]

    json_dir = pathlib.Path(args.json_dir) if args.json_dir else None
    if json_dir:
        json_dir.mkdir(parents=True, exist_ok=True)

    failures = []
    skipped = []
    print(f"{'scenario':12s} {'wall':>7s}  {'metrics':>7s}  round-trip")
    for spec in specs:
        if any(tag in spec.tags for tag in args.skip_tag):
            skipped.append(spec.name)
            continue
        try:
            result = run_scenario(spec.name, **spec.smoke)
            if not result.render().strip():
                failures.append(f"{spec.name}: rendered no text")
            for key in _untabled(result.metrics):
                failures.append(f"{spec.name}: {key} does not render as a table")
        except Exception as exc:  # noqa: BLE001 - report, keep sweeping
            failures.append(f"{spec.name}: run failed: {exc!r}")
            print(f"{spec.name:12s} {'-':>7s}  {'-':>7s}  RUN FAILED")
            continue
        text = result.to_json()
        reparsed = RunResult.from_json(text)
        lossless = reparsed == result and reparsed.to_json() == text
        if not lossless:
            failures.append(f"{spec.name}: JSON round-trip is lossy")
        if json_dir:
            result.dump(json_dir / f"{spec.name}.json")
        print(
            f"{spec.name:12s} {result.wall_seconds:6.2f}s  "
            f"{len(result.metrics):7d}  {'ok' if lossless else 'LOSSY'}"
        )
    if skipped:
        print(f"skipped (by tag): {', '.join(skipped)}")
    if not args.only:
        import contextlib
        import io

        from repro.cli import main as repro_cli

        cells = io.StringIO()
        with contextlib.redirect_stdout(cells):
            code = repro_cli(["run", "analyze", "--sweep", "fanout=7,12"])
        ok = code == 0 and cells.getvalue().count("=== analyze [fanout=") == 2
        if not ok:
            failures.append(f"analyze --sweep fanout=7,12: exit {code}, cells not rendered")
        print(f"{'--sweep':12s} analyze fanout=7,12: 2 cells  {'ok' if ok else 'FAILED'}")
        unarmed = sorted(set(available()) - armed)
        if unarmed:
            failures.append(f"adversary policies no scenario armed: {unarmed}")
        print(f"{'adversaries':12s} armed: {', '.join(sorted(armed))}")

    if failures:
        print("\nSCENARIO REGISTRY FAILURES:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\n{len(specs) - len(skipped)} scenarios ran and rendered; all envelopes round-trip")
    return 0


if __name__ == "__main__":
    sys.exit(main())
