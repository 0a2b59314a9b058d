"""Built-in scenarios without an ``experiments/`` module of their own.

Registering them (``detect``, ``analyze``, ``loadgen``, ...) makes every
workload reachable through the same ``run_scenario`` engine, gives them
the uniform ``RunResult`` envelope, and derives their CLI flags from the
same :class:`~repro.scenarios.spec.Param` declarations as every figure.
"""

from __future__ import annotations

from typing import Dict

from repro import adversary
from repro.scenarios.parallel import Task
from repro.scenarios.registry import scenario
from repro.scenarios.spec import Param, ParamError


def _planetlab_config(params: dict, **config):
    """The deployment scenarios' shared ``ClusterConfig``: PlanetLab
    parameters at ``params["n"]`` with 1400-byte chunks, ``params["loss"]``
    both applied and assumed, plus ``config``."""
    from dataclasses import replace

    from repro.config import planetlab_params
    from repro.deployment import ClusterConfig

    gossip, lifting = planetlab_params()
    return ClusterConfig(
        gossip=replace(gossip, n=params["n"], chunk_size=1400),
        lifting=replace(lifting, assumed_loss_rate=params["loss"]),
        seed=params["seed"],
        loss_rate=params["loss"],
        **config,
    )


#: what every simulated robustness sweep (churn, coalition, sybil_blame)
#: declares first, and last.
_SWEEP_PARAMS = (
    Param("n", int, 60, "system size", validate=lambda v: v >= 12,
          constraint=">= 12"),
    Param("seed", int, 3, "experiment seed"),
    Param("duration", float, 30.0, "simulated seconds",
          validate=lambda v: v > 0, constraint="> 0"),
    Param("loss", float, 0.04, "datagram loss rate",
          validate=lambda v: 0.0 <= v < 1.0, constraint="in [0, 1)"),
)
_JOBS = Param("jobs", int, 1, "worker processes for the sweep (0 = all cores)")


def _sweep_tasks(fn, label: str, params, axis: str, cell: str):
    """One task per value of the sequence parameter ``axis``; ``fn``
    reads its value as ``params[cell]`` (module-level: a task may run in
    a worker process)."""
    return [
        Task(fn=fn, args=({**dict(params), cell: value},), key=f"{label}-{value:g}")
        for value in params[axis]
    ]


def _sweep_cluster(params: dict, fraction: float, policy, **config):
    """One sweep cell's deployment: ``fraction`` of its nodes run the
    adversary ``policy``, and expulsion is enforced."""
    from repro.experiments.cluster import SimCluster

    return SimCluster(_planetlab_config(
        params, freerider_fraction=fraction, adversary=policy,
        expulsion_enabled=True, **config,
    ))


def _sweep_outcome(cluster, duration: float, **cell) -> Dict[str, object]:
    """Run ``cluster`` to ``duration`` under the invariant sweeps; the
    outcome every robustness sweep reports: membership counters (none
    without a failure detector), invariants, ``cell`` and expulsions."""
    invariants = cluster.attach_invariants()
    cluster.run(until=duration)
    invariants.check()  # final-state sweep
    expelled, wrongful = cluster.expulsions()
    honest = len(cluster.honest_ids)
    return {
        **cluster.churn_summary(),
        "invariant_checks": invariants.summary()["checks"],
        "invariant_violations": invariants.summary()["violations"],
        **cell,
        "expelled": [int(n) for n in expelled],
        "wrongful_expulsions": [int(n) for n in wrongful],
        "wrongful_expulsion_rate": len(wrongful) / honest if honest else 0.0,
        "freeriders_expelled": len(expelled) - len(wrongful),
        "freeriders": len(cluster.freerider_ids),
    }


def _sweep_metrics(sweep, axis: str, cell: str, *per_cell: str, **reduced):
    """``axis`` lists the cells' ``cell`` values; the expulsion figures and
    each ``per_cell`` key map from them; then the worst wrongful-expulsion
    rate, the sweep's own ``reduced`` figures, violations and cells."""
    return {
        axis: [e[cell] for e in sweep],
        **{
            key: {f"{e[cell]:g}": e[key] for e in sweep}
            for key in ("wrongful_expulsion_rate", "freeriders_expelled", *per_cell)
        },
        "max_wrongful_expulsion_rate": max(
            (e["wrongful_expulsion_rate"] for e in sweep), default=0.0
        ),
        **reduced,
        "invariant_violations": sum(e["invariant_violations"] for e in sweep),
        "sweep": [dict(e) for e in sweep],
    }


# ----------------------------------------------------------------------
# detect — the quickstart as a scenario, on either plane
# ----------------------------------------------------------------------

def default_fault_schedule(n: int, duration: float):
    """The acceptance-criteria fault script, scaled to ``duration``.

    A 30 % targeted drop window on the dissemination plane
    (Serve/Propose), one symmetric half/half partition, and two node
    crashes that both restart before the end — enough to open circuit
    breakers, exercise ICMP error counting and force the compensation
    machinery, while leaving the run time to recover.
    """
    from repro.faults import FaultSchedule

    half = n // 2
    victims = (n - 1, n - 2)
    return FaultSchedule.from_dicts(
        [
            {
                "kind": "drop",
                "at": 0.15 * duration,
                "until": 0.85 * duration,
                "classes": ["Serve", "Propose"],
                "rate": 0.3,
            },
            {
                "kind": "partition",
                "at": 0.30 * duration,
                "until": 0.55 * duration,
                "group_a": list(range(half)),
                "group_b": list(range(half, n)),
            },
            {"kind": "crash", "at": 0.25 * duration, "nodes": [victims[0]]},
            {"kind": "crash", "at": 0.35 * duration, "nodes": [victims[1]]},
            {"kind": "restart", "at": 0.60 * duration, "nodes": [victims[0]]},
            {"kind": "restart", "at": 0.70 * duration, "nodes": [victims[1]]},
        ]
    )


def _live_metrics(report) -> Dict[str, object]:
    """What only a socket run counts: the transport, its breakers and
    ingress queue, the fault plane and the audit chain."""
    breaker = report.resilience["breaker"]
    ingress = report.resilience["ingress"]
    return {
        "chunks_emitted": report.chunks_emitted,
        "delivery_ratio": report.delivery_ratio,
        "datagram_errors": report.datagram_errors,
        "sends_refused": report.sends_refused,
        "breaker_opens": breaker["opens"],
        "breaker_closes": breaker["closes"],
        "breaker_half_open_probes": breaker["half_open_probes"],
        "ingress_high_water": ingress["high_water"],
        "ingress_dropped": ingress["dropped_oldest"] + ingress["rejected"],
        "faults": dict(report.faults),
        "audit_ok": bool(report.audit_ok),
        "audit_records": report.audit_records,
    }


def _compute_detect(params: dict) -> Dict[str, object]:
    """Calibrate on the simulator, deploy with freeriders on the chosen
    plane, run, report (staged task)."""
    from dataclasses import replace

    from repro.experiments.calibration import calibrate

    config = _planetlab_config(
        params,
        freerider_fraction=params["freeriders"],
        adversary=adversary.spec(
            "freerider",
            degree=(params["delta1"], params["delta2"], params["delta3"]),
        ),
        expulsion_enabled=params["expel"],
        p_audit=params["p_audit"],
    )
    config = replace(config, lifting=replace(config.lifting, p_dcc=params["p_dcc"]))
    calibration = calibrate(
        config.gossip,
        config.lifting,
        seed=params["seed"] + 1,
        duration=10.0,
        loss_rate=params["loss"],
    )
    eta = calibration.eta_for_false_positives(0.01)
    config = replace(config, compensation=calibration.compensation)
    schedule = (
        default_fault_schedule(params["n"], params["duration"]) if params["chaos"] else None
    )
    if params["plane"] == "sim":
        from repro.experiments.cluster import SimCluster

        cluster = SimCluster(config)
        if schedule is not None:
            cluster.attach_faults(schedule)
        invariants = cluster.attach_invariants()
        cluster.run(until=params["duration"])
        invariants.check()  # final-state sweep on the settled run
        plane_metrics = {"overhead_percent": cluster.overhead().overhead_percent}
    else:
        import asyncio

        from repro.runtime import RuntimeCluster, RuntimeConfig

        cluster = RuntimeCluster(
            RuntimeConfig(
                config,
                duration=params["duration"],
                fault_schedule=schedule,
                audit_log_path=params["audit_log"] or None,
            )
        )
        plane_metrics = _live_metrics(asyncio.run(cluster.run()))
        invariants = cluster.invariants
    deployment = cluster.deployment
    report = deployment.detection(eta=eta)
    expelled, wrongful = deployment.expulsions()
    swept = invariants.summary()
    return {
        "compensation": calibration.compensation,
        "eta": eta,
        "detection": report.detection,
        "false_positives": report.false_positives,
        **plane_metrics,
        "expelled": expelled,
        "wrongful_expulsions": wrongful,
        "invariant_checks": swept["checks"],
        "invariant_violations": swept["violations"],
    }


@scenario(
    "detect",
    "Calibrate, deploy with freeriders on the simulator or on sockets, "
    "and report detection (the quickstart)",
    params=(
        Param("n", int, 100, "system size",
              validate=lambda v: v >= 8, constraint=">= 8"),
        Param("seed", int, 1, "experiment seed"),
        Param("duration", float, 30.0, "seconds: simulated, or wall-clock on plane=live",
              validate=lambda v: v > 0, constraint="> 0"),
        Param("loss", float, 0.04, "datagram loss rate",
              validate=lambda v: 0.0 <= v < 1.0, constraint="in [0, 1)"),
        Param("freeriders", float, 0.10, "freerider fraction",
              validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
        Param("delta1", float, 1 / 7, "fanout-decrease degree δ1"),
        Param("delta2", float, 0.1, "partial-propose degree δ2"),
        Param("delta3", float, 0.1, "partial-serve degree δ3"),
        Param("p_dcc", float, 1.0, "cross-check probability",
              validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
        Param("expel", bool, False, "enforce expulsion"),
        Param("plane", str, "sim", "where the deployment runs: the simulator, "
              "or real loopback sockets in real time",
              validate=lambda v: v in ("sim", "live"), constraint="sim or live"),
        Param("chaos", bool, False, "run the scripted fault schedule (drops, "
              "a partition, two crash/restart cycles)"),
        Param("p_audit", float, 0.0, "per-period sporadic-audit probability",
              validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
        Param("audit_log", str, "",
              "JSONL path for the audit chain ('' = in-memory; plane=live only)"),
    ),
    tags=("demo", "deployment", "staged"),
    smoke={"n": 40, "duration": 6.0},
)
def _detect_scenario(params):
    if params["audit_log"] and params["plane"] == "sim":
        raise ParamError("audit_log is live-only: the simulator keeps no audit log")
    return [Task(fn=_compute_detect, args=(dict(params),), key="detect")]


# ----------------------------------------------------------------------
# analyze — the closed-form designer toolbox as a scenario
# ----------------------------------------------------------------------

def _compute_analyze(params: dict) -> Dict[str, object]:
    """Closed-form design constants + optional Monte-Carlo validation."""
    from repro.analysis.detection import (
        alpha_lower_bound,
        beta_upper_bound,
        minimum_periods_for_beta,
    )
    from repro.analysis.entropy_analysis import (
        achievable_max_bias,
        gamma_for_window,
        max_bias_probability,
        required_history_for_bias,
    )
    from repro.analysis.freerider_blames import expected_blame_excess
    from repro.analysis.overhead import expected_message_counts
    from repro.analysis.wrongful_blames import expected_blame_honest
    from repro.config import FreeriderDegree

    fanout = params["fanout"]
    request_size = params["request_size"]
    p_r = 1.0 - params["loss"]
    colluders = params["colluders"]
    window = params["history"] * fanout
    gamma = gamma_for_window(window)
    counts = expected_message_counts(fanout, request_size, 1.0, params["managers"])

    blame_excess = {}
    for delta in sorted({0.035, 0.05, 0.1, params["delta"]}):
        degree = FreeriderDegree.uniform(delta)
        blame_excess[f"{delta:g}"] = {
            "excess_per_period": expected_blame_excess(
                degree, fanout, request_size, p_r
            ),
            "bandwidth_gain": degree.bandwidth_gain,
        }

    metrics: Dict[str, object] = {
        "fanout": fanout,
        "request_size": request_size,
        "loss": params["loss"],
        "compensation": expected_blame_honest(fanout, request_size, p_r),
        "blame_excess_by_delta": blame_excess,
        "audit_window": window,
        "gamma": gamma,
        "collusion_ceiling": {
            "eq7": max_bias_probability(gamma, colluders, window),
            "achievable": achievable_max_bias(gamma, colluders, window),
        },
        "coalition_ceilings": {
            str(m): max_bias_probability(gamma, m, window) for m in (10, 25, 50)
        },
        "history_for_15pct_bias": required_history_for_bias(
            colluders, fanout, max_tolerated_bias=0.15
        ),
        "message_budget": {
            "data": counts.data_messages,
            "verification": counts.verification_messages,
            "max_blames": counts.max_blame_messages,
            "confirms_at_quarter_p_dcc": expected_message_counts(
                fanout, request_size, 0.25, params["managers"]
            ).confirms_sent,
        },
    }

    if params["mc_samples"] > 0:
        from repro.mc.blame_model import BlameModel, simulate_scores
        from repro.util.rng import make_generator

        eta, rounds = params["eta"], params["rounds"]
        degree = FreeriderDegree.uniform(params["delta"])
        model = BlameModel(fanout, request_size, p_r)
        rng = make_generator(params["seed"], "analyze")
        sigma = model.sample_sigma(rng, samples=params["mc_samples"])
        sigma_fr = model.sample_sigma(
            rng, samples=params["mc_samples"], degree=degree
        )
        excess = expected_blame_excess(degree, fanout, request_size, p_r)
        sample = simulate_scores(
            model,
            rng,
            n_honest=params["mc_samples"],
            n_freeriders=params["mc_samples"],
            degree=degree,
            rounds=rounds,
        )
        metrics["monte_carlo"] = {
            "eta": eta,
            "rounds": rounds,
            "delta": params["delta"],
            "sigma": sigma,
            "beta_bound": beta_upper_bound(sigma, rounds, eta),
            "alpha_bound": alpha_lower_bound(sigma_fr, rounds, eta, excess),
            "min_periods_beta_1pct": minimum_periods_for_beta(sigma, eta, 0.01),
            "alpha": sample.detection_fraction(eta),
            "beta": sample.false_positive_fraction(eta),
        }
    return metrics


@scenario(
    "analyze",
    "Closed-form design constants (+ optional Monte-Carlo cross-validation)",
    params=(
        Param("fanout", int, 12, "gossip fanout f",
              validate=lambda v: v >= 1, constraint=">= 1"),
        Param("request_size", int, 4, "per-proposal request size |R|",
              validate=lambda v: v >= 1, constraint=">= 1"),
        Param("loss", float, 0.07, "assumed message loss rate",
              validate=lambda v: 0.0 <= v < 1.0, constraint="in [0, 1)"),
        Param("colluders", int, 25, "coalition size m' for Eq. 7"),
        Param("history", int, 50, "audit history length n_h (periods)"),
        Param("managers", int, 25, "reputation managers M"),
        Param("eta", float, -9.75, "score threshold for the MC validation"),
        Param("rounds", int, 50, "grace periods r for the MC validation"),
        Param("delta", float, 0.1, "freeriding degree for the MC validation"),
        Param("seed", int, 0, "Monte-Carlo seed"),
        Param("mc_samples", int, 0,
              "Monte-Carlo samples per population (0 = closed forms only)"),
    ),
    tags=("analysis",),
    smoke={"mc_samples": 2_000},
)
def _analyze_scenario(params):
    return [Task(fn=_compute_analyze, args=(dict(params),), key="analyze")]


# ----------------------------------------------------------------------
# loadgen — open-loop load sweep against a live node (find the knee)
# ----------------------------------------------------------------------

def _compute_loadgen(params: dict) -> Dict[str, object]:
    """One stepped-rate open-loop sweep against a live deployment.

    The run duration is derived from the profile (schedule + settle +
    teardown margin), so the sweep always completes inside the run.
    """
    import asyncio

    from repro.deployment import loopback_config
    from repro.loadgen import LoadProfile
    from repro.runtime import RuntimeCluster, RuntimeConfig

    profile = LoadProfile(
        start_rate=params["rate"],
        step_rate=params["step"],
        steps=params["steps"],
        step_duration=params["step_duration"],
        seed=params["seed"],
        arrivals=params["arrivals"],
        knee_tolerance=params["tolerance"],
    )
    schedule_span = profile.steps * profile.step_duration + profile.settle
    config = RuntimeConfig(
        # Keep the background stream sparse: the measured traffic should
        # dominate, the protocol machinery still runs for real.
        loopback_config(params["n"], loss_rate=0.0, chunk_interval=0.25, seed=params["seed"]),
        duration=schedule_span + 0.5,
        load_profile=profile,
        load_target=params["target"],
    )
    cluster = RuntimeCluster(config)
    load = asyncio.run(cluster.run()).load
    knee = load.get("knee", {})
    overall = load.get("overall", {})
    stages = overall.get("stages", {})
    return {
        "knee_rate": knee.get("knee_rate"),
        "saturated": knee.get("saturated"),
        "offered_rates": knee.get("offered", []),
        "goodput_rates": knee.get("goodput", []),
        "ratios": knee.get("ratios", []),
        "frames_offered": overall.get("offered", 0),
        "frames_done": overall.get("done", 0),
        "frames_refused": overall.get("refused", 0),
        "frames_evicted": overall.get("evicted", 0),
        "ingress_high_water": load.get("ingress_high_water"),
        "ingress_dropped": load.get("ingress_dropped"),
        "stage_p50": {s: v.get("p50") for s, v in stages.items()},
        "stage_p99": {s: v.get("p99") for s, v in stages.items()},
        "invariant_violations": cluster.invariants.summary()["violations"],
        "load": dict(load),
    }


@scenario(
    "loadgen",
    "Open-loop stepped-rate load sweep against a live node: find the knee",
    params=(
        Param("n", int, 8, "live nodes", validate=lambda v: v >= 4,
              constraint=">= 4"),
        Param("seed", int, 0, "schedule + deployment seed"),
        Param("rate", float, 500.0, "offered rate of the first phase (frames/s)",
              validate=lambda v: v > 0, constraint="> 0"),
        Param("step", float, 500.0, "per-phase rate increment (frames/s)",
              validate=lambda v: v >= 0, constraint=">= 0"),
        Param("steps", int, 4, "number of rate phases",
              validate=lambda v: v >= 1, constraint=">= 1"),
        Param("step_duration", float, 1.0, "seconds per phase",
              validate=lambda v: v > 0, constraint="> 0"),
        Param("arrivals", str, "uniform",
              "interarrival process (uniform or poisson)",
              validate=lambda v: v in ("uniform", "poisson"),
              constraint="uniform | poisson"),
        Param("target", int, 0, "node id the load is aimed at",
              validate=lambda v: v >= 0, constraint=">= 0"),
        Param("tolerance", float, 0.9,
              "goodput/offered ratio below which a phase is saturated",
              validate=lambda v: 0.0 < v <= 1.0, constraint="in (0, 1]"),
    ),
    tags=("live", "performance"),
    smoke={"n": 6, "rate": 300.0, "step": 300.0, "steps": 2,
           "step_duration": 0.5},
)
def _loadgen_scenario(params):
    return [Task(fn=_compute_loadgen, args=(dict(params),), key="loadgen")]


# ----------------------------------------------------------------------
# churn — SWIM membership under scripted crash/restart churn (simulator)
# ----------------------------------------------------------------------

def _compute_churn(params: dict) -> Dict[str, object]:
    """One simulated deployment at one churn rate."""
    from repro.membership.failure_detector import FailureDetectorParams
    from repro.faults import FaultSchedule

    cluster = _sweep_cluster(
        params, params["freeriders"],
        adversary.spec("freerider", degree=(params["delta"],) * 3),
        failure_detector=FailureDetectorParams(suspicion_periods=params["suspicion"]),
    )
    # Churn hits honest nodes only: freeriders keep answering pings (the
    # cheapest traffic there is), so the detector must never shield them
    # while protecting crash-restarting contributors.
    honest = sorted(cluster.honest_ids)
    victims = honest[: int(round(params["rate"] * len(honest)))]
    if victims:
        cluster.attach_faults(FaultSchedule.churn(
            victims, params["duration"], params["downtime"],
            permanent_frac=params["permanent"],
        ))
    return _sweep_outcome(
        cluster, params["duration"], rate=params["rate"], victims=len(victims)
    )


def _churn_metrics(sweep, params) -> Dict[str, object]:
    def mean(key):
        values = [e[key] for e in sweep if e.get(key) is not None]
        return sum(values) / len(values) if values else None

    # Membership convergence: crash -> confirmed-dead and restart ->
    # readmission, averaged over the whole sweep.
    return _sweep_metrics(
        sweep, "rates", "rate",
        mean_detection_delay=mean("mean_detection_delay"),
        mean_recovery_delay=mean("mean_recovery_delay"),
    )


@scenario(
    "churn",
    "Sweep crash/restart churn rates: wrongful expulsions vs membership convergence",
    params=(
        *_SWEEP_PARAMS,
        Param("freeriders", float, 0.15, "freerider fraction",
              validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
        Param("delta", float, 0.25, "uniform freeriding degree"),
        Param("rates", float, (0.1, 0.3, 0.5), sequence=True,
              help="fractions of honest nodes that crash once"),
        Param("downtime", float, 2.0, "seconds a crashed node stays down",
              validate=lambda v: v > 0, constraint="> 0"),
        Param("permanent", float, 0.25,
              "fraction of victims that never restart (confirmed-dead path)",
              validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
        Param("suspicion", float, 8.0,
              "suspicion window (gossip periods) before confirm-dead",
              validate=lambda v: v > 0, constraint="> 0"),
        _JOBS,
    ),
    reduce=_churn_metrics,
    tags=("robustness", "membership"),
    smoke={"n": 24, "duration": 8.0, "rates": (0.3,)},
)
def _churn_scenario(params):
    return _sweep_tasks(_compute_churn, "churn", params, "rates", "rate")


# ----------------------------------------------------------------------
# coalition — laundering colluders vs. detection (simulator sweep)
# ----------------------------------------------------------------------

def _escape(cluster, outcome) -> Dict[str, object]:
    """What an adversary sweep adds per cell: the share of adversaries
    never expelled and their scores."""
    scores = cluster.scores()
    caught, armed = outcome["freeriders_expelled"], outcome["freeriders"]
    return {
        "escape_rate": 1.0 - caught / armed if armed else 0.0,
        "freerider_scores": [round(scores[n], 3) for n in sorted(cluster.freerider_ids)],
    }


def _compute_coalition(params: dict) -> Dict[str, object]:
    """One deployment against one coalition size."""
    size = params["size"]
    cluster = _sweep_cluster(params, size / params["n"], adversary.spec(
        "coalition", degree=(params["delta"],) * 3, bias=params["bias"],
        launder=params["launder"],
    ))
    outcome = _sweep_outcome(cluster, params["duration"], size=size)
    outcome.update(_escape(cluster, outcome))
    outcome["credits_laundered"] = round(
        sum(cluster.nodes[n].behavior.credits_sent for n in cluster.freerider_ids), 3
    )
    return outcome


def _coalition_metrics(sweep, params) -> Dict[str, object]:
    return _sweep_metrics(
        sweep, "sizes", "size", "escape_rate",
        max_escape_rate=max((e["escape_rate"] for e in sweep), default=0.0),
    )


@scenario(
    "coalition",
    "Sweep laundering-coalition sizes: freerider escape vs wrongful expulsion",
    params=(
        *_SWEEP_PARAMS,
        Param("sizes", int, (3, 6, 9), sequence=True,
              help="coalition sizes to sweep"),
        Param("delta", float, 0.5, "uniform freeriding degree of members"),
        Param("bias", float, 0.3, "coalition partner-selection bias p_m",
              validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
        Param("launder", float, 2.0,
              "credit (negative blame) each member grants co-members per period",
              validate=lambda v: v >= 0.0, constraint=">= 0"),
        _JOBS,
    ),
    reduce=_coalition_metrics,
    tags=("robustness", "adversary"),
    smoke={"n": 24, "duration": 12.0, "sizes": (3,)},
)
def _coalition_scenario(params):
    return _sweep_tasks(_compute_coalition, "coalition", params, "sizes", "size")


# ----------------------------------------------------------------------
# sybil_blame — coordinated blame stuffing at honest victims (simulator)
# ----------------------------------------------------------------------

def _compute_sybil(params: dict) -> Dict[str, object]:
    """One deployment against one stuffing rate."""
    rate = params["rate"]
    cluster = _sweep_cluster(params, params["sybils"] / params["n"], adversary.spec(
        "sybil_blame", rate=rate, victims=params["victims"], delta=params["delta"],
        start_period=params["start_period"],
    ))
    outcome = _sweep_outcome(cluster, params["duration"], rate=rate)
    outcome.update(_escape(cluster, outcome))
    campaign = cluster.adversary_policy.campaign
    scores = cluster.scores()
    outcome.update(
        victim_ids=[int(v) for v in campaign.victims],
        victim_scores=[round(scores[v], 3) for v in campaign.victims],
        victims_expelled=sum(map(cluster.controller.is_expelled, campaign.victims)),
        blames_stuffed=round(campaign.blames_stuffed, 3),
    )
    return outcome


def _sybil_metrics(sweep, params) -> Dict[str, object]:
    return _sweep_metrics(
        sweep, "rates", "rate", "escape_rate",
        max_escape_rate=max((e["escape_rate"] for e in sweep), default=0.0),
        victims_expelled=sum(e["victims_expelled"] for e in sweep),
        min_victim_score=min((s for e in sweep for s in e["victim_scores"]), default=None),
    )


@scenario(
    "sybil_blame",
    "Sweep Sybil blame-stuffing rates against honest victims: defamation vs detection",
    params=(
        *_SWEEP_PARAMS,
        Param("sybils", int, 4, "stuffing identities",
              validate=lambda v: v >= 1, constraint=">= 1"),
        Param("rates", float, (0.5, 1.0, 2.0), sequence=True,
              help="blame units stuffed per victim per member per period"),
        Param("victims", int, 2, "honest nodes targeted",
              validate=lambda v: v >= 1, constraint=">= 1"),
        Param("delta", float, 0.5, "uniform freeriding degree of the stuffers"),
        Param("start_period", int, 10, "first period of the campaign",
              validate=lambda v: v >= 0, constraint=">= 0"),
        _JOBS,
    ),
    reduce=_sybil_metrics,
    tags=("robustness", "adversary"),
    smoke={"n": 24, "duration": 12.0, "rates": (1.0,)},
)
def _sybil_scenario(params):
    return _sweep_tasks(_compute_sybil, "sybil", params, "rates", "rate")
