"""The registry sweep (``benchmarks/bench_scenarios.py``) fails unless
every registered adversary policy armed a node in some scenario it ran."""

import pytest

import repro.scenarios
from benchmarks import bench_scenarios
from repro import adversary
from repro.deployment import Deployment
from repro.scenarios import RunResult, ScenarioSpec


@pytest.fixture
def armed(monkeypatch):
    """The set the sweep's recorder fills; ``Deployment`` is restored after."""
    monkeypatch.setattr(Deployment, "__init__", Deployment.__init__)
    names = set()
    bench_scenarios._record_armed_policies(names)
    return names


def test_a_deployment_records_the_policy_it_arms(armed, small_cluster_factory):
    small_cluster_factory(freerider_fraction=0.25, adversary=adversary.spec("coalition"))
    small_cluster_factory()
    assert armed == {"coalition"}


def test_a_policy_with_no_adversarial_node_is_not_armed(armed, small_cluster_factory):
    small_cluster_factory(freerider_fraction=0.0, adversary=adversary.spec("freerider"))
    assert armed == set()


def test_whole_sweep_fails_on_an_unarmed_policy(monkeypatch, capsys):
    monkeypatch.setattr(Deployment, "__init__", Deployment.__init__)
    toy = ScenarioSpec(
        name="bench-test-honest",
        description="test-only scenario that arms nobody",
        params=(),
        build_jobs=lambda params: [],
    )
    monkeypatch.setattr(repro.scenarios, "list_scenarios", lambda: [toy])
    monkeypatch.setattr(repro.scenarios, "run_scenario", _run_toy)
    assert bench_scenarios.main([]) == 1
    assert "adversary policies no scenario armed: ['coalition', 'freerider', " \
        "'sybil_blame']" in capsys.readouterr().err


def _run_toy(name, **params):
    return RunResult(scenario=name, params={}, metrics={"value": 1})


def test_a_sequence_of_mappings_that_prints_as_no_table_fails(monkeypatch, capsys):
    monkeypatch.setattr(Deployment, "__init__", Deployment.__init__)
    toy = ScenarioSpec(
        name="bench-test-rows",
        description="test-only scenario with three sequences of mappings",
        params=(),
        build_jobs=lambda params: [],
    )
    metrics = {
        "nested": ({"cell": 1, "policy": {"name": "x"}}, {"cell": 2, "policy": {"name": "x"}}),
        "ragged": ({"cell": 1}, {"cell": 2, "victims": 3}),
        "table": ({"cell": 1, "ids": [4, 5]}, {"cell": 2, "ids": []}),
    }
    monkeypatch.setattr(repro.scenarios, "list_scenarios", lambda: [toy])
    monkeypatch.setattr(
        repro.scenarios, "run_scenario",
        lambda name, **params: RunResult(scenario=name, params={}, metrics=metrics),
    )
    assert bench_scenarios.main(["--only", "bench-test-rows"]) == 1
    err = capsys.readouterr().err
    assert "bench-test-rows: nested does not render as a table" in err
    assert "bench-test-rows: ragged does not render as a table" in err
    assert "table does not" not in err
