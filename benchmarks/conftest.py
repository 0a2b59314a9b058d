"""Plumbing of the pytest-benchmark files (``bench_substrate_performance.py``,
``bench_parallel_experiments.py``).

A bench records a human-readable report next to its timings; reports are
collected here and printed in the terminal summary (so they survive
pytest's output capturing) and written to ``benchmarks/results/``.
``REPRO_BENCH_FULL=1`` selects their larger configurations.  The paper's
claims are not checked here: ``benchmarks/scorecard.py`` does that.
"""

from __future__ import annotations

import os
import pathlib
from typing import List

_REPORTS: List[str] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def full_scale() -> bool:
    """Whether to run the larger configurations."""
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def record_report(name: str, text: str) -> None:
    """Register a report for the terminal summary and write it to disk."""
    block = f"\n===== {name} =====\n{text.rstrip()}\n"
    _REPORTS.append(block)
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(block)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "benchmark reports")
    for block in _REPORTS:
        terminalreporter.write(block)
