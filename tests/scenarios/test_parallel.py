"""The parallel experiment runner: ordering, equivalence, pickling."""

import math
import pickle
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.experiments.cluster import ClusterConfig
from repro.scenarios.parallel import (
    Job,
    JobResult,
    Task,
    resolve_jobs,
    run_jobs,
    run_tasks,
)


def _square(x):
    return x * x


def _affine(x, *, scale=1, offset=0):
    return scale * x + offset


def _boom(_x):
    raise ValueError("boom")


def _extract_now(cluster):
    return cluster.sim.now


def _extract_event_count(cluster):
    return cluster.sim.events_processed


def _small_config(seed=42, **overrides):
    from repro.config import planetlab_params

    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=16, fanout=4, source_fanout=4, chunk_size=4096)
    lifting = replace(lifting, managers=4)
    return ClusterConfig(gossip=gossip, lifting=lifting, seed=seed, **overrides)


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_zero_none_negative_mean_all_cores(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_jobs(0) == cores
        assert resolve_jobs(None) == cores
        assert resolve_jobs(-3) == cores


class TestRunTasks:
    def test_results_in_submission_order(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(10)]
        assert run_tasks(tasks, jobs=1) == [i * i for i in range(10)]
        assert run_tasks(tasks, jobs=4) == [i * i for i in range(10)]

    def test_partial_binds_keywords(self):
        tasks = [
            Task(fn=partial(_affine, scale=2, offset=1), args=(3,)),
            Task(fn=partial(_affine, scale=10), args=(4,)),
        ]
        assert run_tasks(tasks, jobs=2) == [7, 40]

    def test_serial_and_parallel_identical(self):
        tasks = [Task(fn=_square, args=(i,)) for i in range(5)]
        assert run_tasks(tasks, jobs=1) == run_tasks(tasks, jobs=3)

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []

    def test_exceptions_propagate_serial_and_parallel(self):
        tasks = [Task(fn=_square, args=(1,)), Task(fn=_boom, args=(0,))]
        with pytest.raises(ValueError, match="boom"):
            run_tasks(tasks, jobs=1)
        with pytest.raises(ValueError, match="boom"):
            run_tasks(tasks, jobs=2)


class TestJob:
    def test_extractor_mapping_normalised(self):
        job = Job(
            config=_small_config(),
            until=1.0,
            extractors={"now": _extract_now},
        )
        assert job.extractors == (("now", _extract_now),)

    def test_times_merges_checkpoints_and_until(self):
        job = Job(
            config=_small_config(),
            until=3.0,
            extractors=(("now", _extract_now),),
            checkpoints=(1.0, 2.0, 3.0),
        )
        assert job.times == (1.0, 2.0, 3.0)

    def test_job_pickles_with_partial_extractors(self):
        job = Job(
            config=_small_config(),
            until=2.0,
            extractors=(("f", partial(_affine, scale=2)),),
            key=("grid", 0),
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.key == job.key
        assert clone.until == job.until
        assert clone.config == job.config


class TestRunJobs:
    def test_worker_side_extraction_at_checkpoints(self):
        job = Job(
            config=_small_config(),
            until=2.0,
            extractors=(("now", _extract_now), ("events", _extract_event_count)),
            checkpoints=(1.0,),
            key="k",
        )
        [result] = run_jobs([job])
        assert isinstance(result, JobResult)
        assert result.key == "k"
        assert result.times == (1.0, 2.0)
        assert result.at("now", 1.0) == pytest.approx(1.0)
        assert result.get("now") == pytest.approx(2.0)
        assert result.at("events", 1.0) <= result.get("events")

    def test_parallel_results_bit_identical_to_serial(self, assert_results_identical):
        job_list = [
            Job(
                config=_small_config(seed=seed),
                until=2.0,
                extractors=(("events", _extract_event_count),),
                key=seed,
            )
            for seed in (1, 2, 3)
        ]
        serial = run_jobs(job_list, jobs=1)
        fanned = run_jobs(job_list, jobs=3)
        assert_results_identical(serial, fanned)

    def test_job_result_pickle_round_trip(self):
        result = JobResult(
            key=("cell", 674.0, 0.5),
            times=(10.0,),
            series={"overhead": {10.0: 1.25}, "nan": {10.0: math.inf}},
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.get("overhead") == 1.25
