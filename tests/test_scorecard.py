"""The scorecard runner (``benchmarks/scorecard.py``): one row per claim,
a verdict each, and exit status 1 unless every claim holds."""

import pytest

from benchmarks import scorecard
from repro.scenarios.parallel import Task
from repro.scenarios import Param, ScenarioSpec
from repro.scenarios.registry import register, unregister

TOY = "scorecard-test-scenario"


def _measure(value):
    return {"value": value}


@pytest.fixture
def toy():
    register(ScenarioSpec(
        name=TOY,
        description="test-only scorecard target",
        params=(Param("value", float, 1.0, "what the run measures"),),
        build_jobs=lambda params: [Task(fn=_measure, args=(params["value"],))],
    ))
    yield
    unregister(TOY)


HOLDS = scorecard.Claim("value", "2", lambda m: m["value"], scorecard.near(2.0, 0.1))
MISSES = scorecard.Claim("value", "< 1", lambda m: m["value"], scorecard.below(1.0))
RAISES = scorecard.Claim("absent", "-", lambda m: m["absent"], scorecard.above(0.0))


def test_each_row_gets_its_verdict_and_any_miss_exits_1(toy, capsys):
    table = ((TOY, {"value": 2.0}, (HOLDS, MISSES, RAISES)),)
    rows = scorecard.score(table)
    assert [row.verdict for row in rows] == ["pass", "FAIL", "error"]
    assert rows[2].measured == "KeyError: 'absent'"
    assert scorecard.main(table) == 1
    out = capsys.readouterr().out
    assert out.count(f"| `{TOY}` ") == 3
    assert "1 of 3 claims hold." in out


def test_only_holding_rows_exit_0(toy, capsys):
    assert scorecard.main(((TOY, {"value": 2.0}, (HOLDS,)),)) == 0
    assert "| `scorecard-test-scenario` value: 2 ± 0.1 | 2 | 2 | pass |" in capsys.readouterr().out
