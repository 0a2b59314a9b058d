"""sim300_steady / sim1000_steady: a warm deployment's timed window, fork-replayed.

Build and warm once, then run the *same* window in forked children, one
at a time.  Every child starts from the same heap, so all of them fire
the same events (checked: a differing count fails the run).  Each child
clocks the window in equal slices of simulated time; a slice's cost is
its minimum over children and the window's cost is the sum of those, so
a noise burst has to hit the same slice in every child to be counted.
"""

from __future__ import annotations

import time
from typing import Dict, List

from benchmarks.ledger import measure, profiling, spec
from benchmarks.ledger.drives import base_metrics


def _config(n: int, seed: int):
    from dataclasses import replace

    from repro import ClusterConfig, planetlab_params

    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=n, fanout=spec.STEADY_FANOUT, source_fanout=spec.STEADY_FANOUT)
    lifting = replace(lifting, managers=spec.STEADY_MANAGERS, p_dcc=spec.STEADY_P_DCC)
    return ClusterConfig(gossip=gossip, lifting=lifting, seed=seed)


def _set_up(params: dict, seed: int, spans: measure.Spans):
    """Build + warm one deployment; CPU seconds of each part."""
    from repro import SimCluster

    c0 = time.process_time()
    with spans.span("build"):
        cluster = SimCluster(_config(params["n"], seed))
    c1 = time.process_time()
    with spans.span("warmup"):
        cluster.run(until=params["warm_until"])
    c2 = time.process_time()
    return cluster, {"build_s": c1 - c0, "warmup_s": c2 - c1, "setup_s": c2 - c0}


def _counters(cluster) -> Dict[str, int]:
    trace = cluster.trace
    return {
        "events": cluster.sim.events_processed,
        "msgs": trace.sent_count(),
        "lost": trace.lost_count(),
        "blames": trace.sent_count("Blame"),
    }


def _window(cluster, params: dict, profile: bool) -> Dict[str, object]:
    """One repetition (runs in a forked child): the timed window, then the
    output checks and the digest — both outside the clock."""
    before = _counters(cluster)
    start, end, slices = params["warm_until"], params["window_until"], params["slices"]

    def timed() -> List[float]:
        out = []
        for k in range(1, slices + 1):
            c0 = time.process_time()
            cluster.run(until=end if k == slices else start + (end - start) * k / slices)
            out.append(time.process_time() - c0)
        return out

    if profile:
        slice_cpu_s, stats = profiling.profiled(timed, cpu_clock=False)
        buckets = profiling.bucket(stats)
    else:
        slice_cpu_s, buckets = timed(), None
    after = _counters(cluster)
    # Armed only now, with a first sweep beyond any horizon: one
    # final-state check and not a single extra event inside the window.
    monitor = cluster.attach_invariants(interval=1e9)
    monitor.check()
    scores = cluster.scores()
    out: Dict[str, object] = {key: after[key] - before[key] for key in after}
    out.update(
        cpu_s=sum(slice_cpu_s),
        slice_cpu_s=slice_cpu_s,
        violations=int(monitor.summary()["violations"]),
        expelled=len(cluster.controller.expelled_nodes()),
        rss_mib=measure.peak_rss_mib(),
        profile=buckets,
        digest=measure.digest({
            "counters": after,
            "sent_by_kind": cluster.trace.sent_counts_by_kind(),
            "score_sum": repr(sum(scores.values())),
        }),
    )
    return out


def _check(reps: List[dict]) -> List[str]:
    """Output checks of the repetitions; each failing rep is one failure."""
    failures = []
    events = reps[0]["events"]
    for index, rep in enumerate(reps):
        problems = []
        if rep["events"] <= 0:
            problems.append("no events fired")
        if rep["events"] != events or rep["digest"] != reps[0]["digest"]:
            problems.append(f"replay diverged ({rep['events']} events vs {events})")
        if rep["violations"]:
            problems.append(f"{rep['violations']} invariant violations")
        if rep["expelled"]:
            problems.append(f"{rep['expelled']} honest nodes expelled")
        if problems:
            failures.append(f"rep {index}: " + "; ".join(problems))
    return failures


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, t0: float) -> Dict[str, object]:
    params = spec.STEADY_SMOKE if smoke else spec.STEADY[name]
    sim_s = params["window_until"] - params["warm_until"]
    spans = measure.Spans(name, enabled=trace)
    canary = measure.Canary()
    quiet = measure.Spans(name, enabled=False)

    # set-up samples: all but the last in throwaway children, the last
    # here — its deployment is the one every replay forks from.
    setups = [
        measure.fork_call(lambda: _set_up(params, seed, quiet)[1])
        for _ in range(0 if trace else params["setups"] - 1)
    ]
    cluster, own = _set_up(params, seed, spans)
    setups.append(own)
    rss_after_setup = measure.peak_rss_mib()
    canary.sample()
    if trace:
        with spans.span("extract.scores"):
            c0 = time.process_time()
            cluster.scores()
            scores_ms = (time.process_time() - c0) * 1e3

    def replay(profile: bool = False) -> dict:
        with spans.span("window.profiled" if profile else "window"):
            return measure.fork_call(lambda: _window(cluster, params, profile))

    # Replays until --seconds have passed: the first under cProfile (its
    # call count is exact, its clock is not used), the others timed.  The
    # traced pass wants two timed replays and no more.
    deadline = time.perf_counter() + (0.0 if trace else seconds)
    counted = replay(profile=True)
    canary.sample()
    plain = measure.repeat_until(
        deadline, 2 if trace else 0, params["max_reps"], replay, between=canary.sample
    )
    buckets = counted["profile"]
    setup = measure.summarize([s["setup_s"] for s in setups])
    record: Dict[str, object] = {
        "params": params, "sim_s": sim_s, "setups": setups, "setup_s": setup,
        "counted": counted, "reps": plain, "result_digest": counted["digest"],
    }
    if plain:
        best_slices = [min(r["slice_cpu_s"][k] for r in plain) for k in range(params["slices"])]
        record.update(
            best_slice_cpu_s=best_slices, cpu_s_per_stream_s=sum(best_slices) / sim_s,
            whole_window_cpu_s_per_stream_s=measure.summarize([r["cpu_s"] / sim_s for r in plain]),
        )
    out = {"attempted": 1 + len(plain), "failures": _check([counted] + plain), "record": record}
    if not trace:
        record["noise_ratio"] = canary.noise_ratio()
        out["metrics"] = {
            "setup_s": setup["min"],
            "py_calls_per_stream_s": buckets["total_calls"] / sim_s,
            "peak_rss_mib": max(rss_after_setup, counted["rss_mib"]),
        }
        return out

    metrics = base_metrics(seed, spans)
    metrics.update(profiling.layer_metrics(buckets, sim_s, "py_calls_per_sim_s", spec.SIM_LAYERS))
    canary.sample()
    metrics.update({
        "cpu_s_per_stream_s": record["cpu_s_per_stream_s"],
        "py_calls_per_sim_s": buckets["total_calls"] / sim_s,
        "sim.engine.events_per_sim_s": counted["events"] / sim_s,
        "sim.network.msgs_sent_per_sim_s": counted["msgs"] / sim_s,
        "sim.network.msgs_lost_share": counted["lost"] / max(1, counted["msgs"]),
        "core.reputation.blames_per_sim_s": counted["blames"] / sim_s,
        "harness.build_s": own["build_s"],
        "harness.warmup_s": own["warmup_s"],
        "core.reputation.scores_ms": scores_ms,
        "trace.overhead_ratio": counted["cpu_s"] / min(r["cpu_s"] for r in plain),
        "host.noise_ratio": canary.noise_ratio(),
    })
    record.update(spans=spans.rows, canary=canary.samples)
    out["metrics"] = metrics
    return out
