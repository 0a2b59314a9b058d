"""Parallel experiment orchestration: wall-clock scaling and equivalence.

Not a paper artefact — this guards the process-pool fan-out layer
(:mod:`repro.runtime.parallel`) that every ``run_*`` experiment uses via
its ``jobs=`` parameter.  Two properties are measured:

* **Equivalence** — fanning a job list out must reproduce the serial
  results byte for byte (the determinism contract; also pinned by
  ``tests/experiments/test_parallel_equivalence.py``).
* **Scaling** — on a multi-core machine, Table 5's six-cell grid with
  ``jobs=4`` must beat ``jobs=1`` by ≥ 2.5x (the ISSUE 2 acceptance
  target; asserted only when ≥ 4 cores are available, reported
  informationally otherwise).

``scripts/check_bench_regression.py`` re-times the serial grid (and,
on ≥ 4-core machines, the speedup) against the baselines recorded in
``benchmarks/BENCH_substrate.json``.
"""

import os
import pathlib
import pickle
import time

import pytest

from benchmarks.conftest import full_scale, record_report
from repro import run_scenario

#: the ISSUE 2 acceptance grid: 2 rates x 3 p_dcc = 6 independent cells.
#: Mirrored (deliberately, with the same values) by GRID_KWARGS in
#: scripts/check_bench_regression.py, which must stay dependency-light.
SIX_CELL_GRID = dict(
    seed=31,
    rates_kbps=(674.0, 1082.0),
    p_dcc_values=(0.0, 0.5, 1.0),
)
SPEEDUP_JOBS = 4
#: single source of truth for the acceptance bar: the recorded target in
#: BENCH_substrate.json (also read by scripts/check_bench_regression.py).
_BENCH_FILE = pathlib.Path(__file__).parent / "BENCH_substrate.json"


def _speedup_target() -> float:
    from repro.scenarios import RunResult

    parallel = RunResult.load(_BENCH_FILE).metrics.get("parallel", {})
    return float(parallel.get("table5_speedup_4jobs_target", 2.5))


SPEEDUP_TARGET = _speedup_target()
#: floor asserted on any >=4-vCPU machine: catches "fan-out silently
#: serialised" without flaking on shared runners where 4 logical CPUs
#: may be 2 physical cores.  The full target is asserted only with
#: REPRO_BENCH_STRICT=1 (an idle machine with 4 real cores).
SPEEDUP_FLOOR = 1.5


def _grid_kwargs():
    scale = dict(n=100, duration=8.0) if full_scale() else dict(n=50, duration=3.0)
    return {**SIX_CELL_GRID, **scale}


@pytest.fixture(scope="module")
def parallel_measurements():
    kwargs = _grid_kwargs()
    start = time.perf_counter()
    serial = run_scenario("table5", jobs=1, **kwargs).artifact
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    fanned = run_scenario("table5", jobs=SPEEDUP_JOBS, **kwargs).artifact
    parallel_s = time.perf_counter() - start

    identical = pickle.dumps(serial) == pickle.dumps(fanned)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cores = os.cpu_count() or 1
    lines = [
        f"table5 six-cell grid (n={kwargs['n']}, {kwargs['duration']:.0f}s sim), "
        f"{cores} cores available",
        "",
        f"  jobs=1:             {serial_s:7.2f}s wall clock",
        f"  jobs={SPEEDUP_JOBS}:             {parallel_s:7.2f}s wall clock",
        f"  speedup:            {speedup:7.2f}x "
        f"(target >={SPEEDUP_TARGET}x on a 4-core machine)",
        f"  byte-identical:     {identical}",
    ]
    record_report("parallel_experiments", "\n".join(lines))
    return dict(
        serial=serial,
        fanned=fanned,
        serial_s=serial_s,
        parallel_s=parallel_s,
        speedup=speedup,
        identical=identical,
        cores=cores,
    )


def test_parallel_grid_byte_identical(parallel_measurements, benchmark):
    benchmark(lambda: pickle.dumps(parallel_measurements["serial"]))
    assert parallel_measurements["identical"]


def test_parallel_grid_speedup(parallel_measurements):
    if parallel_measurements["cores"] < SPEEDUP_JOBS:
        pytest.skip(
            f"speedup target needs >= {SPEEDUP_JOBS} cores "
            f"(have {parallel_measurements['cores']}); measured "
            f"{parallel_measurements['speedup']:.2f}x informationally"
        )
    strict = os.environ.get("REPRO_BENCH_STRICT", "") == "1"
    threshold = SPEEDUP_TARGET if strict else SPEEDUP_FLOOR
    assert parallel_measurements["speedup"] >= threshold, (
        f"{parallel_measurements['speedup']:.2f}x < {threshold}x "
        f"({'strict target' if strict else 'shared-runner floor'}; "
        f"target {SPEEDUP_TARGET}x on an idle 4-core machine)"
    )
