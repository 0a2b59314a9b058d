"""Parallel fan-out must reproduce the serial experiments bit for bit.

Every multi-deployment scenario accepts ``jobs=``; these tests pin the
determinism contract of :mod:`repro.scenarios.parallel`: the job list —
and with it every seed and RNG stream — is fixed before fan-out, so
``jobs=2`` produces metrics identical to ``jobs=1``.

"Identical" is ``assert_results_identical`` (``tests/conftest.py``):
the same structure with every value exact.
"""

import pickle

import pytest

from repro import run_scenario
from repro.experiments.calibration import CalibrationResult, calibrate
from repro.scenarios import RunResult, get


def run(name, **params):
    """The scenario's metrics."""
    return run_scenario(name, **params).metrics


def assert_pickle_round_trip(result):
    """A :class:`RunResult` envelope survives pickling unchanged."""
    clone = pickle.loads(pickle.dumps(result))
    assert isinstance(clone, RunResult)
    assert clone == result


class TestFig1Equivalence:
    @pytest.fixture(scope="class")
    def results(self):
        kwargs = dict(n=24, duration=4.0, seed=7, lags=[0.0, 2.0, 4.0])
        return run_scenario("fig1", jobs=1, **kwargs), run_scenario("fig1", jobs=2, **kwargs)

    def test_parallel_bit_identical_to_serial(self, results, assert_results_identical):
        serial, fanned = results
        assert_results_identical(serial.metrics, fanned.metrics)

    def test_result_pickle_round_trip(self, results):
        serial, _fanned = results
        assert_pickle_round_trip(serial)


class TestTable5Equivalence:
    @pytest.fixture(scope="class")
    def results(self):
        kwargs = dict(
            n=24,
            duration=2.0,
            seed=31,
            rates_kbps=(674.0, 1082.0),
            p_dcc_values=(0.0, 1.0),
        )
        return run_scenario("table5", jobs=1, **kwargs), run_scenario("table5", jobs=2, **kwargs)

    def test_parallel_byte_identical_to_serial(self, results, assert_results_identical):
        serial, fanned = results
        assert_results_identical(serial.metrics, fanned.metrics)

    def test_cells_cover_the_grid(self, results):
        serial, _fanned = results
        assert [(c["rate_kbps"], c["p_dcc"]) for c in serial.metrics["cells"]] == [
            (674.0, 0.0),
            (674.0, 1.0),
            (1082.0, 0.0),
            (1082.0, 1.0),
        ]

    def test_result_pickle_round_trip(self, results):
        serial, _fanned = results
        assert_pickle_round_trip(serial)


class TestMonteCarloEquivalence:
    def test_fig11_parallel_bit_identical(self, assert_results_identical):
        kwargs = dict(n=800, freeriders=80, rounds=10, seed=13, shards=4)
        serial = run("fig11", jobs=1, **kwargs)
        fanned = run("fig11", jobs=2, **kwargs)
        assert_results_identical(serial, fanned)

    def test_fig11_shard_count_changes_streams_but_not_jobs(self):
        # The RNG layout depends on the (fixed) shard count only.
        base = run("fig11", n=800, freeriders=80, rounds=10, seed=13, shards=4)
        other = run("fig11", n=800, freeriders=80, rounds=10, seed=13, shards=2)
        assert base["honest_samples"] == other["honest_samples"]
        assert base["gap"] != other["gap"]

    def test_fig12_parallel_bit_identical(self, assert_results_identical):
        kwargs = dict(deltas=[0.0, 0.05, 0.1], rounds=10, samples_per_point=400, seed=17)
        serial = run("fig12", jobs=1, **kwargs)
        fanned = run("fig12", jobs=3, **kwargs)
        assert_results_identical(serial, fanned)


class TestClusterExperimentEquivalence:
    def test_table3_parallel_bit_identical(self, assert_results_identical):
        kwargs = dict(n=24, duration=2.0, seed=29, fanout_sweep=(4, 5))
        serial = run("table3", jobs=1, **kwargs)
        fanned = run("table3", jobs=2, **kwargs)
        assert_results_identical(serial, fanned)

    def test_fig14_parallel_byte_identical(self, assert_results_identical):
        kwargs = dict(
            n=24,
            seed=23,
            times=(3.0, 4.0),
            p_dcc_values=(1.0, 0.5),
            calibration_duration=3.0,
        )
        serial = run("fig14", jobs=1, **kwargs)
        fanned = run("fig14", jobs=2, **kwargs)
        assert_results_identical(serial, fanned)

    @pytest.mark.parametrize("name, axis", [
        ("churn", {"rates": (0.0, 0.3)}),
        ("coalition", {"sizes": (2, 3)}),
        ("sybil_blame", {"rates": (0.5, 1.0)}),
    ])
    def test_sweep_all_cores_bit_identical(self, name, axis, assert_results_identical):
        # ``jobs=0`` = all cores, on every sweep (docs/SCENARIOS.md).
        kwargs = dict(get(name).smoke, **axis)
        serial = run(name, jobs=1, **kwargs)
        fanned = run(name, jobs=0, **kwargs)
        assert_results_identical(serial, fanned)


class TestResultPickling:
    """Job results cross the process boundary, and so may a scenario's
    envelope: they must pickle cleanly."""

    def test_calibration_result_round_trip(self, small_gossip, small_lifting):
        result = calibrate(
            small_gossip, small_lifting, seed=3, duration=4.0, n=16, loss_rate=0.05
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert isinstance(clone, CalibrationResult)

    def test_fig11_result_round_trip(self):
        assert_pickle_round_trip(
            run_scenario("fig11", n=200, freeriders=20, rounds=5, seed=13, shards=2)
        )

    def test_fig12_result_round_trip(self):
        assert_pickle_round_trip(
            run_scenario("fig12", deltas=[0.0, 0.1], rounds=5, samples_per_point=100, seed=17)
        )

    def test_table3_result_round_trip(self):
        assert_pickle_round_trip(
            run_scenario("table3", n=24, duration=2.0, seed=29, fanout_sweep=(4, 5))
        )

    def test_fig14_result_round_trip(self):
        assert_pickle_round_trip(
            run_scenario(
                "fig14",
                n=24,
                seed=23,
                times=(3.0,),
                p_dcc_values=(1.0,),
                calibration_duration=3.0,
            )
        )
