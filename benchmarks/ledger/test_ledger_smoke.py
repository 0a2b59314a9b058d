"""The ledger at toy sizes: same code path, every declared name, no failures."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    """One ``--smoke`` suite run (all workloads, untraced then traced)."""
    path = tmp_path_factory.mktemp("ledger") / "suite.json"
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "__main__.py"), "--smoke", "--record", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_has_exactly_the_contract_keys(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/ledger"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(e) == {"name", "unit", "better", "bound"} for e in declared["end_to_end"])
    assert all(set(e) == {"name", "unit", "better"} for e in declared["per_layer"])
    assert "setup_s" in {e["name"] for e in declared["end_to_end"]}


def test_smoke_emits_exactly_the_declared_names(declared, smoke_record):
    workloads = [w["name"] for w in declared["workloads"]]
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        runs = smoke_record["traced" if traced else "untraced"]
        assert list(runs) == workloads
        units = {entry["name"]: entry["unit"] for entry in declared[key]}
        for workload, run in runs.items():
            metrics = run["result"]["metrics"]
            assert {n: m["unit"] for n, m in metrics.items()} == units, workload
            assert all(isinstance(m["value"], float) for m in metrics.values()), workload


def test_smoke_error_rate_is_zero(smoke_record):
    for runs in (smoke_record["untraced"], smoke_record["traced"]):
        for workload, run in runs.items():
            result = run["result"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, workload


def test_smoke_replay_children_agree_on_event_counts(smoke_record):
    for workload in ("sim300_steady", "sim1000_steady"):
        detail = smoke_record["untraced"][workload]["detail"]
        reps = [detail["counted"]] + detail["reps"]
        assert len(reps) >= 2
        assert reps[0]["events"] > 0
        assert len({rep["events"] for rep in reps}) == 1
        assert len({rep["digest"] for rep in reps}) == 1


def test_end_to_end_metrics_are_never_zero(smoke_record):
    for workload, run in smoke_record["untraced"].items():
        assert all(m["value"] > 0.0 for m in run["result"]["metrics"].values()), workload


def test_refuses_to_run_without_the_program(tmp_path, declared):
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        declared["command"] + ["--workload", "sim300_steady", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
