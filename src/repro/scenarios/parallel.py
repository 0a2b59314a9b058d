"""Parallel experiment orchestration: fan independent deployments out
to a process pool with bit-identical results.

Every paper experiment drives one or more *independent* deployments:
Figure 1 runs three clusters, Table 5 sweeps a ``stream_rate × p_dcc``
grid, Figure 14 runs one cluster per ``p_dcc``, the Monte-Carlo figures
sweep degrees.  Each deployment is fully reproducible from its
:class:`~repro.deployment.ClusterConfig` (seeded RNG trees, no
shared state), so the runs are embarrassingly parallel.  This module is
the deployment-policy layer that exploits that — the protocol and
experiment code stay policy-free and merely declare *what* to run:

* :class:`Job` — one simulated deployment: a config, checkpoint times,
  and named extractor callables applied worker-side so that only small
  metric payloads (health curves, score snapshots, overhead reports)
  cross the process boundary instead of whole clusters.
* :class:`Task` — the generic work item (a picklable callable plus
  arguments) for non-cluster workloads such as the Monte-Carlo sweeps.
* :func:`run_jobs` / :func:`run_tasks` — execute a list of work items
  either serially (``jobs=1``) or on a ``ProcessPoolExecutor``.

Determinism contract
--------------------
Results are returned in submission order, every job carries its own
seed inside its config, and extraction happens in the worker from
exactly the state a serial run would have produced — so ``jobs=n``
yields **bit-identical** results to ``jobs=1`` for any ``n`` (pinned by
``tests/experiments/test_parallel_equivalence.py``).  Experiments must
therefore never derive per-job seeds *from the worker count*: the job
list is fixed first, then fanned out.

The pool uses the ``fork`` start method (workers inherit the imported
modules; spawning would re-import per worker).  On platforms without
``fork`` the runner silently degrades to the serial path, which is also
taken for ``jobs=1`` or single-item lists.  The effective worker count
is capped at ``os.cpu_count()`` (logged when it bites): CPU-bound
deployments cannot gain from oversubscription, only pay for it, so a
``jobs=4`` request on a 1-core container now runs serially instead of
0.5x slower — with identical results either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Job",
    "JobResult",
    "Task",
    "resolve_jobs",
    "run_jobs",
    "run_tasks",
]

#: worker-side extractor: maps a finished (or checkpointed) cluster to a
#: small picklable payload.  Must be a module-level callable or a
#: ``functools.partial`` of one, so it pickles by reference.
Extractor = Callable[[Any], Any]


@dataclass(frozen=True)
class Task:
    """A generic picklable work item: ``fn(*args)``.

    ``fn`` must be importable from the worker (a module-level function
    or a ``functools.partial`` of one, which also binds keywords).
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    #: opaque label echoed into logs/results assembly by the caller.
    key: Hashable = None


@dataclass(frozen=True)
class Job:
    """One independent simulated deployment.

    The worker builds ``SimCluster(config)``, advances it to each
    checkpoint time in ascending order, and applies every extractor at
    each checkpoint.  ``until`` is the final checkpoint; earlier
    snapshot times go in ``checkpoints``.
    """

    config: Any  # ClusterConfig (kept untyped to avoid an import cycle)
    until: float
    #: ``(name, fn)`` pairs; a mapping is accepted and normalised.
    extractors: Tuple[Tuple[str, Extractor], ...]
    checkpoints: Tuple[float, ...] = ()
    key: Hashable = None

    def __post_init__(self) -> None:
        if isinstance(self.extractors, Mapping):
            object.__setattr__(self, "extractors", tuple(self.extractors.items()))
        else:
            object.__setattr__(self, "extractors", tuple(self.extractors))
        object.__setattr__(
            self, "checkpoints", tuple(float(t) for t in self.checkpoints)
        )

    @property
    def times(self) -> Tuple[float, ...]:
        """All checkpoint times, ascending (``until`` included)."""
        return tuple(sorted(set(self.checkpoints) | {float(self.until)}))


@dataclass(frozen=True)
class JobResult:
    """Extracted payloads of one job, indexed by extractor and time."""

    key: Hashable
    times: Tuple[float, ...]
    #: ``series[name][time] -> payload``
    series: Dict[str, Dict[float, Any]]

    def at(self, name: str, time: float) -> Any:
        """The payload of extractor ``name`` at checkpoint ``time``."""
        return self.series[name][time]

    def get(self, name: str) -> Any:
        """The payload of extractor ``name`` at the final checkpoint."""
        return self.series[name][self.times[-1]]


def _execute_job(job: Job) -> JobResult:
    """Worker-side job body: build, run to each checkpoint, extract."""
    from repro.experiments.cluster import SimCluster

    cluster = SimCluster(job.config)
    times = job.times
    series: Dict[str, Dict[float, Any]] = {name: {} for name, _fn in job.extractors}
    for time in times:
        cluster.run(until=time)
        for name, extract in job.extractors:
            series[name][time] = extract(cluster)
    return JobResult(key=job.key, times=times, series=series)


def _execute_task(task: Task) -> Any:
    return task.fn(*task.args)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0``/negative → all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def _fork_context():
    """The ``fork`` multiprocessing context, or None when unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform-dependent
        return None


def run_tasks(tasks: Sequence[Task], *, jobs: int = 1) -> List[Any]:
    """Execute ``tasks`` and return their results in submission order.

    ``jobs=1`` (the default) runs everything in-process; ``jobs>1``
    fans out to a ``fork``-based process pool; ``jobs<=0`` means "all
    cores".  Exceptions raised by a task propagate to the caller (the
    earliest failing task in submission order wins).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    # Cap at the machine's core count: CPU-bound deployments gain
    # nothing from extra workers, and oversubscription (jobs=4 on one
    # core) measurably *slows the run down* — fork cost plus
    # time-slicing.  Results are identical either way (submission-order
    # determinism), so the cap is pure win.
    cores = os.cpu_count() or 1
    if jobs > cores:
        import logging

        logging.getLogger(__name__).info(
            "capping jobs=%d to %d (os.cpu_count()): more workers than "
            "cores oversubscribes CPU-bound deployments",
            jobs,
            cores,
        )
        jobs = cores
    if jobs <= 1 or len(tasks) <= 1:
        return [_execute_task(task) for task in tasks]
    context = _fork_context()
    if context is None:  # pragma: no cover - platform-dependent
        return [_execute_task(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [pool.submit(_execute_task, task) for task in tasks]
        return [future.result() for future in futures]


def run_jobs(job_list: Sequence[Job], *, jobs: int = 1) -> List[JobResult]:
    """Run deployment jobs, returning :class:`JobResult`\\ s in order."""
    tasks = [Task(fn=_execute_job, args=(job,), key=job.key) for job in job_list]
    return run_tasks(tasks, jobs=jobs)
