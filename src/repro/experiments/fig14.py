"""Figure 14 — score CDFs on the (simulated) PlanetLab deployment.

The §7 setting: 300 nodes, 674 kbps stream, f = 7, T_g = 500 ms,
M = 25 managers, ~4 % loss, 10 % freeriders that (i) contact only
f̂ = 6 partners (δ1 = 1/7), (ii) propose only 90 % of what they receive
(δ2 = 0.1), (iii) serve only 90 % of what they are requested
(δ3 = 0.1).  A tenth of the honest nodes get PlanetLab-grade poor
connections (extra loss + limited upload) — these are the paper's
false positives.

Scores (compensated assuming 4 % loss) are snapshot at 25/30/35 s for
``p_dcc = 1`` and ``p_dcc = 0.5``.  Paper landmarks at 30 s,
``p_dcc = 1``: 86 % of freeriders below η = −9.75, 12 % of honest
nodes below it; ``p_dcc = 0.5`` is slower but not twice as slow
(its 35 s ≈ the 30 s of ``p_dcc = 1``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Collection, Dict, Mapping, Sequence, Tuple

from repro import adversary
from repro.config import FreeriderDegree, planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.metrics.scores import detection_report
from repro.scenarios import Param, scenario
from repro.scenarios.parallel import Job, Task, run_jobs
from repro.util.stats import EmpiricalDistribution

#: the paper's freerider configuration (§7.1).
PLANETLAB_DEGREE = FreeriderDegree(delta1=1.0 / 7.0, delta2=0.1, delta3=0.1)


def _extract_scores(cluster) -> Dict[int, float]:
    return cluster.scores()


def _extract_roles(cluster) -> Tuple[frozenset, frozenset]:
    # Roles are fixed at construction but this extractor runs at every
    # checkpoint; returning one memoized pair lets pickle ship a single
    # copy (memo references) instead of one per checkpoint.
    roles = getattr(cluster, "_fig14_roles", None)
    if roles is None:
        roles = (frozenset(cluster.freerider_ids), frozenset(cluster.degraded_ids))
        cluster._fig14_roles = roles
    return roles


def _compute_fig14(
    *,
    n: int = 120,
    seed: int = 23,
    times: Sequence[float] = (25.0, 30.0, 35.0),
    p_dcc_values: Sequence[float] = (1.0, 0.5),
    freerider_fraction: float = 0.10,
    degree: FreeriderDegree = PLANETLAB_DEGREE,
    degraded_fraction: float = 0.10,
    degraded_loss: float = 0.12,
    degraded_upload: float = 40_000.0,
    loss_rate: float = 0.04,
    chunk_size: int = 1400,
    calibration_duration: float = 20.0,
    false_positive_target: float = 0.01,
    jobs: int = 1,
) -> dict:
    """Run the deployment for each ``p_dcc``, snapshot scores and reduce
    them to :func:`fig14_metrics`.

    Expulsion runs in observation mode so the full CDFs (including
    freeriders far below the threshold) are visible, exactly like the
    paper's plots.  The default system size is scaled down from 300 for
    tractability (pass ``n=300`` for the full setting); chunking is
    finer than the examples' default so that per-period interaction
    rates approach the analysis's steady state.

    Compensation and the calibrated threshold come from an honest-only
    calibration run in the same environment (see
    :mod:`repro.experiments.calibration`).  The per-``p_dcc`` clusters
    derive their compensation from the calibration result, so the run
    has two phases: the calibration job, then one independent job per
    ``p_dcc`` (each snapshotting its scores at every time in ``times``
    worker-side), both fanned out with ``jobs``.
    """
    from repro.experiments.calibration import calibration_job
    from repro.util.validation import require

    require(len(times) > 0, "times must name at least one snapshot instant")
    gossip_base, lifting_base = planetlab_params()
    gossip = replace(gossip_base, n=n, chunk_size=chunk_size)
    [cal_result] = run_jobs(
        [
            calibration_job(
                gossip,
                replace(
                    lifting_base, p_dcc=max(p_dcc_values), assumed_loss_rate=loss_rate
                ),
                seed=seed + 1,
                duration=calibration_duration,
                loss_rate=loss_rate,
                degraded_fraction=degraded_fraction,
                degraded_loss=degraded_loss,
                degraded_upload=degraded_upload,
            )
        ],
        jobs=jobs,
    )
    calibration = cal_result.get("calibration")

    job_list = []
    for p_dcc in p_dcc_values:
        lifting = replace(lifting_base, p_dcc=p_dcc, assumed_loss_rate=loss_rate)
        # Lower verification intensity produces proportionally fewer
        # wrongful blames; scale the measured compensation the same way
        # the closed forms scale (the confirm-round share is ∝ p_dcc).
        compensation = calibration.compensation
        if p_dcc != max(p_dcc_values):
            from repro.core.reputation import compensation_per_period

            full = compensation_per_period(
                gossip, replace(lifting, p_dcc=max(p_dcc_values))
            )
            here = compensation_per_period(gossip, lifting)
            compensation = calibration.compensation * (here / full)
        config = ClusterConfig(
            gossip=gossip,
            lifting=lifting,
            seed=seed,
            loss_rate=loss_rate,
            freerider_fraction=freerider_fraction,
            adversary=adversary.spec("freerider", degree=degree.as_tuple()),
            degraded_fraction=degraded_fraction,
            degraded_loss=degraded_loss,
            degraded_upload=degraded_upload,
            lifting_enabled=True,
            expulsion_enabled=False,
            compensation=compensation,
        )
        job_list.append(
            Job(
                config=config,
                until=max(times),
                checkpoints=tuple(sorted(times)),
                extractors=(("scores", _extract_scores), ("roles", _extract_roles)),
                key=p_dcc,
            )
        )
    by_p_dcc = {result.key: result for result in run_jobs(job_list, jobs=jobs)}

    snapshots = {
        (p_dcc, time): by_p_dcc[p_dcc].at("scores", float(time))
        for p_dcc in p_dcc_values
        for time in sorted(times)
    }
    return fig14_metrics(
        snapshots,
        *by_p_dcc[p_dcc_values[-1]].get("roles"),
        eta=lifting_base.eta,
        eta_calibrated=calibration.eta_for_false_positives(false_positive_target),
        compensation=calibration.compensation,
    )


def fig14_metrics(
    snapshots: Mapping[Tuple[float, float], Mapping[int, float]],
    freerider_ids: Collection[int],
    degraded_ids: Collection[int],
    *,
    eta: float,
    eta_calibrated: float,
    compensation: float,
) -> dict:
    """Figure 14's metrics from raw score snapshots keyed ``(p_dcc, time)``.

    ``eta_calibrated`` is the threshold derived from the calibration run
    with the paper's "false positives below 1 %" rule (§6.3.1).
    """
    per_snapshot = {}
    for (p_dcc, time), scores in sorted(snapshots.items()):
        report = detection_report(scores, freerider_ids, eta)
        calibrated = detection_report(scores, freerider_ids, eta_calibrated)
        flagged = [
            n for n, s in scores.items() if n not in freerider_ids and s <= eta_calibrated
        ]
        well_connected = [
            s for n, s in scores.items() if n not in freerider_ids and n not in degraded_ids
        ]
        per_snapshot[f"p_dcc={p_dcc:g}@{time:g}s"] = {
            "detection": report.detection,
            "false_positives": report.false_positives,
            "detection_calibrated": calibrated.detection,
            "false_positives_calibrated": calibrated.false_positives,
            # The paper attributes its false positives to poor connections:
            # the degraded share of the honest nodes at or below eta_calibrated
            # (None when there are none).
            "degraded_false_positive_share": (
                sum(n in degraded_ids for n in flagged) / len(flagged) if flagged else None
            ),
            # Well-connected honest mean minus freerider mean (§7.3: it widens).
            "mean_gap": EmpiricalDistribution(well_connected).mean
            - calibrated.freeriders.mean,
        }
    return {
        "eta": eta,
        "eta_calibrated": eta_calibrated,
        "compensation": compensation,
        "freeriders": len(freerider_ids),
        "degraded": len(degraded_ids),
        "snapshots": per_snapshot,
    }


_FIG14_PARAMS = (
    Param("n", int, 120, "system size", validate=lambda v: v >= 8, constraint=">= 8"),
    Param("seed", int, 23, "deployment seed"),
    Param("times", float, (25.0, 30.0, 35.0), sequence=True,
          help="score snapshot instants (simulated seconds)",
          validate=lambda v: len(v) >= 1, constraint="at least one instant"),
    Param("p_dcc_values", float, (1.0, 0.5), sequence=True,
          help="cross-checking probabilities (one deployment each)"),
    Param("freerider_fraction", float, 0.10, "fraction of freerider nodes",
          validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
    Param("deltas", float, PLANETLAB_DEGREE.as_tuple(), sequence=True,
          help="(δ1, δ2, δ3) of the freeriders",
          validate=lambda v: len(v) == 3, constraint="exactly 3 values"),
    Param("degraded_fraction", float, 0.10, "fraction of poorly connected nodes"),
    Param("degraded_loss", float, 0.12, "extra endpoint loss of degraded nodes"),
    Param("degraded_upload", float, 40_000.0, "upload cap of degraded nodes (bytes/s)"),
    Param("loss_rate", float, 0.04, "base datagram loss rate"),
    Param("chunk_size", int, 1400, "chunk payload bytes"),
    Param("calibration_duration", float, 20.0, "honest calibration run length (s)"),
    Param("false_positive_target", float, 0.01, "beta target for the derived eta"),
    Param("jobs", int, 1, "worker processes for the per-p_dcc deployments"),
)


def _fig14_task(params: dict) -> dict:
    """Worker/driver body: the staged calibration → deployments run."""
    kwargs = dict(params)
    kwargs["degree"] = FreeriderDegree(*kwargs.pop("deltas"))
    return _compute_fig14(**kwargs)


@scenario(
    "fig14",
    "Figure 14 — PlanetLab-style score CDF snapshots per p_dcc",
    params=_FIG14_PARAMS,
    tags=("figure", "deployment", "staged"),
    smoke={"n": 40, "times": (6.0, 8.0), "calibration_duration": 4.0},
)
def _fig14_scenario(params):
    """A single staged task: the calibration job feeds the per-``p_dcc``
    deployment jobs, so the stages cannot be expressed as one flat wave
    — the task fans its inner stages out with the ``jobs`` parameter
    itself (see docs/SCENARIOS.md, "Staged scenarios")."""
    return [Task(fn=_fig14_task, args=(dict(params),), key="fig14")]

