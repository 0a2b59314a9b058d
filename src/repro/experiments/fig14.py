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

from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

from repro import adversary
from repro.config import FreeriderDegree, GossipParams, LiftingParams, planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.metrics.scores import DetectionReport, detection_report
from repro.runtime.parallel import Job, Task, run_jobs
from repro.scenarios import Param, RunResult, scenario
from repro.util.stats import EmpiricalDistribution

#: the paper's freerider configuration (§7.1).
PLANETLAB_DEGREE = FreeriderDegree(delta1=1.0 / 7.0, delta2=0.1, delta3=0.1)


@dataclass
class Fig14Result:
    """Score snapshots indexed by (p_dcc, time)."""

    snapshots: Dict[Tuple[float, float], Dict[int, float]]
    reports: Dict[Tuple[float, float], DetectionReport]
    eta: float
    #: threshold derived from the calibration run with the paper's
    #: "false positives below 1 %" rule (§6.3.1).
    eta_calibrated: float
    compensation: float
    freerider_ids: frozenset
    degraded_ids: frozenset


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
) -> Fig14Result:
    """Run the deployment for each ``p_dcc`` and snapshot scores.

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

    snapshots: Dict[Tuple[float, float], Dict[int, float]] = {}
    reports: Dict[Tuple[float, float], DetectionReport] = {}
    freerider_ids: frozenset = frozenset()
    degraded_ids: frozenset = frozenset()
    for p_dcc in p_dcc_values:
        result = by_p_dcc[p_dcc]
        freerider_ids, degraded_ids = result.get("roles")
        for time in sorted(times):
            scores = result.at("scores", float(time))
            snapshots[(p_dcc, time)] = scores
            reports[(p_dcc, time)] = detection_report(
                scores, set(freerider_ids), lifting_base.eta
            )

    return Fig14Result(
        snapshots=snapshots,
        reports=reports,
        eta=lifting_base.eta,
        eta_calibrated=calibration.eta_for_false_positives(false_positive_target),
        compensation=calibration.compensation,
        freerider_ids=freerider_ids,
        degraded_ids=degraded_ids,
    )


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


def _fig14_task(params: dict) -> Fig14Result:
    """Worker/driver body: the staged calibration → deployments run."""
    kwargs = dict(params)
    kwargs["degree"] = FreeriderDegree(*kwargs.pop("deltas"))
    return _compute_fig14(**kwargs)


def _fig14_metrics(result: Fig14Result, params) -> dict:
    freeriders, degraded = result.freerider_ids, result.degraded_ids
    eta = result.eta_calibrated
    snapshots = {}
    for (p_dcc, time), report in sorted(result.reports.items()):
        scores = result.snapshots[(p_dcc, time)]
        calibrated = detection_report(scores, freeriders, eta)
        flagged = [n for n, s in scores.items() if n not in freeriders and s <= eta]
        well_connected = [
            s for n, s in scores.items() if n not in freeriders and n not in degraded
        ]
        snapshots[f"p_dcc={p_dcc:g}@{time:g}s"] = {
            "detection": report.detection,
            "false_positives": report.false_positives,
            "detection_calibrated": calibrated.detection,
            "false_positives_calibrated": calibrated.false_positives,
            # The paper attributes its false positives to poor connections:
            # the degraded share of the honest nodes at or below eta_calibrated
            # (None when there are none).
            "degraded_false_positive_share": (
                sum(n in degraded for n in flagged) / len(flagged) if flagged else None
            ),
            # Well-connected honest mean minus freerider mean (§7.3: it widens).
            "mean_gap": EmpiricalDistribution(well_connected).mean
            - calibrated.freeriders.mean,
        }
    return {
        "eta": result.eta,
        "eta_calibrated": result.eta_calibrated,
        "compensation": result.compensation,
        "freeriders": len(result.freerider_ids),
        "degraded": len(result.degraded_ids),
        "snapshots": snapshots,
    }


def _fig14_render(run: RunResult) -> str:
    result: Fig14Result = run.artifact
    lines = [
        f"compensation b~ = {result.compensation:.2f}; "
        f"eta = {result.eta:.2f} (calibrated {result.eta_calibrated:.2f})",
        "p_dcc  time(s)  detection  false positives",
    ]
    for (p_dcc, time), report in sorted(result.reports.items()):
        lines.append(
            f"{p_dcc:5.1f}  {time:7.0f}  {report.detection:9.0%}  "
            f"{report.false_positives:15.0%}"
        )
    return "\n".join(lines)


@scenario(
    "fig14",
    "Figure 14 — PlanetLab-style score CDF snapshots per p_dcc",
    params=_FIG14_PARAMS,
    reduce=None,  # single staged task; its result is the artifact
    summarize=_fig14_metrics,
    render=_fig14_render,
    tags=("figure", "deployment", "staged"),
    smoke={"n": 40, "times": (6.0, 8.0), "calibration_duration": 4.0},
    sim_time=lambda params: max(params["times"]),
)
def _fig14_scenario(params):
    """A single staged task: the calibration job feeds the per-``p_dcc``
    deployment jobs, so the stages cannot be expressed as one flat wave
    — the task fans its inner stages out with the ``jobs`` parameter
    itself (see docs/SCENARIOS.md, "Staged scenarios")."""
    return [Task(fn=_fig14_task, args=(dict(params),), key="fig14")]

