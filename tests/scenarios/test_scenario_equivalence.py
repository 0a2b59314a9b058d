"""Registry acceptance: every scenario runs, round-trips and renders.

Pins, parametrised over the registry:

* every registered scenario runs at its declared smoke size, its
  ``RunResult`` envelope round-trips losslessly through JSON, and its
  renderer (what ``repro run`` prints) returns text;
* the one scenario with an entry point of its own — ``calibrate()``,
  over parameter *objects* — yields an artifact identical to it,
  structurally, every value exact (``assert_results_identical`` in
  ``tests/conftest.py``);
* the ``jobs`` fan-out stays bit-identical through the registry path.
"""

import pytest

from repro.scenarios import RunResult, get, list_scenarios, run_scenario

ALL_SCENARIOS = [spec.name for spec in list_scenarios()]
#: the others (fig10-fig13) print their JSON envelope.
RENDERED = [spec.name for spec in list_scenarios() if spec.render is not None]


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


@pytest.mark.parametrize("name", RENDERED)
def test_renderer_returns_text(smoke_results, name):
    """What ``repro run <name>`` prints, from the module's cached run."""
    text = get(name).render(smoke_results(name))
    assert isinstance(text, str) and text.strip()


def test_renderer_lines_no_smoke_run_reaches(smoke_results):
    """``detect --expel``'s verdict line and ``loadgen`` past its knee:
    the outcome is set by hand, the renderer is the registered one."""
    from dataclasses import replace
    from types import SimpleNamespace

    from repro.loadgen.knee import detect_knee

    run = smoke_results("detect")
    expelling = RunResult(
        scenario="detect",
        params={**run.params, "expel": True},
        metrics=run.metrics,
        artifact=replace(run.artifact, expelled=[3, 5, 8], wrongful=[5]),
    )
    assert get("detect").render(expelling).splitlines()[-1] == "expelled: 3 (1 honest)"

    def lines_under_the_table(goodput, sojourn):
        load = {
            "knee": detect_knee([300.0, 600.0], goodput, 0.9).to_dict(),
            "overall": {"stages": {"sojourn": sojourn}},
        }
        artifact = SimpleNamespace(load=load, invariants={})
        swept = RunResult(scenario="loadgen", params={}, metrics={}, artifact=artifact)
        return get("loadgen").render(swept).splitlines()[1:3]

    assert lines_under_the_table([300.0, 400.0], {"p50": 4e-4, "p99": 1.5}) == [
        "knee: 300 frames/s (first saturated phase 1, tolerance 90%)",
        "overall sojourn p50 400µs, p99 1.50s; ingress high-water None, dropped None",
    ]
    assert lines_under_the_table([100.0, 100.0], {}) == [
        "knee: below the first rung (300.0 frames/s)",
        "overall sojourn p50 n/a, p99 n/a; ingress high-water None, dropped None",
    ]


@pytest.mark.parametrize("name", ["calibration"])
def test_registry_byte_identical_to_legacy_runner(smoke_results, name, assert_results_identical):
    """Acceptance: fixed-seed output of the registry path is
    value-identical to ``calibrate()`` called with the same parameters."""
    from dataclasses import replace

    from repro.config import planetlab_params
    from repro.experiments.calibration import calibrate

    gossip, lifting = planetlab_params()
    smoke = get(name).smoke_params()
    direct = calibrate(
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
    assert_results_identical(direct, smoke_results(name).artifact)


def test_fig1_jobs_fanout_bit_identical(assert_results_identical):
    """``run_scenario("fig1", jobs=2)`` == ``jobs=1``."""
    kwargs = dict(n=24, duration=4.0, lags=(0.0, 2.0, 4.0))
    fanned = run_scenario("fig1", jobs=2, **kwargs).artifact
    serial = run_scenario("fig1", jobs=1, **kwargs).artifact
    assert_results_identical(serial, fanned)
