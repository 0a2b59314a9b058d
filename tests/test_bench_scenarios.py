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
