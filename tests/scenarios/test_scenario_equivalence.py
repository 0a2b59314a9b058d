"""Registry acceptance: every scenario runs, round-trips, and matches
its legacy entry point value for value.

Three pins, parametrised over the registry:

* every registered scenario runs at its declared smoke size and its
  ``RunResult`` envelope round-trips losslessly through JSON;
* every *paper* scenario's artifact is identical — structurally, every
  value exact (``assert_results_identical`` in ``tests/conftest.py``) —
  to the legacy ``run_*`` entry point called with the same parameters;
* the ``jobs`` fan-out stays bit-identical through the registry path.
"""

import pytest

from repro.scenarios import RunResult, get, list_scenarios, run_scenario

ALL_SCENARIOS = [spec.name for spec in list_scenarios()]


@pytest.fixture(scope="module")
def smoke_results():
    """Lazily run scenarios at smoke size, once per module."""
    cache = {}

    def run(name: str) -> RunResult:
        if name not in cache:
            spec = get(name)
            cache[name] = run_scenario(name, **spec.smoke)
        return cache[name]

    return run


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_smoke_run_and_lossless_round_trip(smoke_results, name):
    result = smoke_results(name)
    assert result.scenario == name
    assert result.params == get(name).smoke_params()
    assert result.seed == result.params.get("seed")
    text = result.to_json()
    reparsed = RunResult.from_json(text)
    assert reparsed == result
    assert reparsed.to_json() == text
    # The envelope is self-describing: metrics must be non-trivial.
    assert result.metrics


def _legacy_calls():
    """name -> callable reproducing the smoke run via the legacy API."""
    from repro.experiments.calibration import calibrate
    from repro.experiments.fig1 import run_fig1
    from repro.experiments.fig10 import run_fig10
    from repro.experiments.fig11 import run_fig11
    from repro.experiments.fig12 import run_fig12
    from repro.experiments.fig13 import run_fig13
    from repro.experiments.fig14 import run_fig14
    from repro.experiments.table3 import run_table3
    from repro.experiments.table5 import run_table5

    def legacy_calibration():
        from dataclasses import replace

        from repro.config import planetlab_params

        gossip, lifting = planetlab_params()
        smoke = get("calibration").smoke_params()
        return calibrate(
            gossip,
            replace(lifting, p_dcc=smoke["p_dcc"]),
            seed=smoke["seed"],
            duration=smoke["duration"],
            n=smoke["n"],
            loss_rate=smoke["loss"],
            degraded_fraction=smoke["degraded_fraction"],
            degraded_loss=smoke["degraded_loss"],
            degraded_upload=smoke["degraded_upload"] or None,
        )

    return {
        "fig1": lambda smoke: run_fig1(
            n=smoke["n"],
            duration=smoke["duration"],
            seed=smoke["seed"],
            freerider_fraction=smoke["freerider_fraction"],
            stream_rate_kbps=smoke["stream_rate_kbps"],
            lags=smoke["lags"],
            coverage=smoke["coverage"],
            jobs=smoke["jobs"],
        ),
        "fig10": lambda smoke: run_fig10(n=smoke["n"], seed=smoke["seed"]),
        "fig11": lambda smoke: run_fig11(
            n=smoke["n"],
            freeriders=smoke["freeriders"],
            rounds=smoke["rounds"],
            delta=smoke["delta"],
            seed=smoke["seed"],
            shards=smoke["shards"],
        ),
        "fig12": lambda smoke: run_fig12(
            deltas=smoke["deltas"],
            rounds=smoke["rounds"],
            samples_per_point=smoke["samples_per_point"],
            seed=smoke["seed"],
        ),
        "fig13": lambda smoke: run_fig13(n=smoke["n"], seed=smoke["seed"]),
        "fig14": lambda smoke: run_fig14(
            n=smoke["n"],
            seed=smoke["seed"],
            times=smoke["times"],
            p_dcc_values=smoke["p_dcc_values"],
            calibration_duration=smoke["calibration_duration"],
        ),
        "table3": lambda smoke: run_table3(
            n=smoke["n"],
            duration=smoke["duration"],
            seed=smoke["seed"],
            p_dcc=smoke["p_dcc"],
            fanout_sweep=smoke["fanout_sweep"],
        ),
        "table5": lambda smoke: run_table5(
            n=smoke["n"],
            duration=smoke["duration"],
            seed=smoke["seed"],
            rates_kbps=smoke["rates_kbps"],
            p_dcc_values=smoke["p_dcc_values"],
        ),
        "calibration": lambda smoke: legacy_calibration(),
    }


PAPER_SCENARIOS = sorted(_legacy_calls())


@pytest.mark.parametrize("name", PAPER_SCENARIOS)
def test_registry_byte_identical_to_legacy_runner(smoke_results, name, assert_results_identical):
    """Acceptance: fixed-seed output of the registry path is
    value-identical to the legacy ``run_*`` entry point."""
    smoke = get(name).smoke_params()
    legacy = _legacy_calls()[name](smoke)
    via_registry = smoke_results(name).artifact
    assert_results_identical(legacy, via_registry)


def test_scaling_registry_matches_legacy_structure(smoke_results):
    """Scaling measures wall clock (non-deterministic), so the A/B pins
    the deterministic structure: sizes and engine event counts."""
    from repro.experiments.scaling import run_scaling

    smoke = get("scaling").smoke_params()
    legacy = run_scaling(
        sizes=smoke["sizes"],
        duration=smoke["duration"],
        warmup=smoke["warmup"],
        seed=smoke["seed"],
    )
    via_registry = smoke_results("scaling").artifact
    assert [p.n for p in legacy.points] == [p.n for p in via_registry.points]
    assert [p.events for p in legacy.points] == [p.events for p in via_registry.points]


def test_fig1_jobs_fanout_bit_identical(assert_results_identical):
    """``run_scenario("fig1", jobs=2)`` == legacy ``run_fig1(jobs=2)``."""
    from repro.experiments.fig1 import run_fig1

    kwargs = dict(n=24, duration=4.0, lags=(0.0, 2.0, 4.0))
    legacy = run_fig1(jobs=2, **kwargs)
    via_registry = run_scenario("fig1", jobs=2, **kwargs).artifact
    serial = run_scenario("fig1", jobs=1, **kwargs).artifact
    assert_results_identical(legacy, via_registry)
    assert_results_identical(serial, via_registry)
