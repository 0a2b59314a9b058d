"""Parameter sweeps: ``run_sweep`` product semantics and the ``--sweep`` flag."""

import argparse
import json

import pytest

from repro import cli
from repro.runtime.parallel import Task
from repro.scenarios import Param, ParamError, ScenarioSpec, get, run_sweep
from repro.scenarios.registry import register, unregister


def _cell(a, b):
    return {"a": a, "b": b, "product": a * b}


SWEEPABLE = "sweepable-test-scenario"


@pytest.fixture
def sweepable():
    spec = ScenarioSpec(
        name=SWEEPABLE,
        description="test-only sweep target",
        params=(
            Param("a", int, 1, "first factor"),
            Param("b", int, 10, "second factor"),
            Param("seed", int, 0, "unused"),
        ),
        build_jobs=lambda params: [
            Task(fn=_cell, args=(params["a"], params["b"]))
        ],
    )
    register(spec)
    yield spec
    unregister(SWEEPABLE)


class TestRunSweep:
    def test_product_order_first_axis_slowest(self, sweepable):
        results = run_sweep(SWEEPABLE, {"a": [1, 2], "b": [10, 20]})
        cells = [(r.params["a"], r.params["b"]) for r in results]
        assert cells == [(1, 10), (1, 20), (2, 10), (2, 20)]
        assert [r.metrics["product"] for r in results] == [10, 20, 20, 40]

    def test_each_cell_is_a_full_envelope(self, sweepable):
        results = run_sweep(SWEEPABLE, {"a": [3]})
        (result,) = results
        assert result.scenario == SWEEPABLE
        assert result.provenance
        assert result.params["b"] == 10  # defaults fill the unswept axes

    def test_string_cells_go_through_coercion(self, sweepable):
        results = run_sweep(SWEEPABLE, {"a": ["4", "5"]})
        assert [r.params["a"] for r in results] == [4, 5]

    def test_overrides_pin_the_unswept_axes(self, sweepable):
        results = run_sweep(SWEEPABLE, {"a": [1, 2]}, b=7)
        assert all(r.params["b"] == 7 for r in results)

    def test_swept_and_pinned_conflict(self, sweepable):
        with pytest.raises(ParamError, match="both swept and pinned"):
            run_sweep(SWEEPABLE, {"a": [1, 2]}, a=3)

    def test_unknown_axis_name(self, sweepable):
        with pytest.raises(ParamError):
            run_sweep(SWEEPABLE, {"bogus": [1]})

    def test_empty_axes_rejected(self, sweepable):
        with pytest.raises(ParamError, match="at least one axis"):
            run_sweep(SWEEPABLE, {})
        with pytest.raises(ParamError, match="no values"):
            run_sweep(SWEEPABLE, {"a": []})


class TestCliSweep:
    def test_sweep_renders_per_cell_headers(self, capsys):
        code = cli.main(["run", "analyze", "--sweep", "fanout=8,12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== analyze [fanout=8] ===" in out
        assert "=== analyze [fanout=12] ===" in out

    def test_sweep_json_stdout_is_an_array_of_envelopes(self, capsys):
        code = cli.main(
            ["run", "analyze", "--sweep", "fanout=8,12",
             "--sweep", "loss=0.04,0.07", "--json", "-"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert all(p["schema"] == "repro.run_result/1" for p in payload)
        assert [(p["params"]["fanout"], p["params"]["loss"]) for p in payload] == [
            (8, 0.04), (8, 0.07), (12, 0.04), (12, 0.07)
        ]

    def test_sweep_json_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code = cli.main(
            ["run", "analyze", "--sweep", "fanout=8,12", "--json", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload) == 2

    def test_swept_and_pinned_param_exit_2(self, capsys):
        code = cli.main(["run", "analyze", "--sweep", "fanout=8,12", "--fanout", "9"])
        assert code == 2
        assert "both swept and pinned" in capsys.readouterr().err

    def test_malformed_sweep_flag_exit_2(self, capsys):
        assert cli.main(["run", "analyze", "--sweep", "fanout"]) == 2
        assert "expects PARAM=A,B,C" in capsys.readouterr().err
        assert cli.main(["run", "analyze", "--sweep", "fanout="]) == 2
        assert "lists no values" in capsys.readouterr().err
        code = cli.main(
            ["run", "analyze", "--sweep", "fanout=8", "--sweep", "fanout=9"]
        )
        assert code == 2
        assert "twice" in capsys.readouterr().err

    def test_unknown_sweep_param_exit_2(self, capsys):
        assert cli.main(["run", "analyze", "--sweep", "bogus=1,2"]) == 2

    def test_colon_separates_inner_values_of_sequence_params_only(self):
        # A scalar str cell keeps its ':'; a sequence cell's ':' is the
        # comma the coercer splits on.  Parsed only, nothing runs.
        args = argparse.Namespace(
            sweep_pairs=["audit_log=runs/a:b.jsonl,c.jsonl", "deltas=0.1:0.2:0.3,0.4:0.4:0.4"]
        )
        assert cli._collect_sweep_axes(get("chaos"), args) == {
            "audit_log": ["runs/a:b.jsonl", "c.jsonl"],
            "deltas": ["0.1,0.2,0.3", "0.4,0.4,0.4"],
        }
