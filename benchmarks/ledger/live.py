"""live_loopback: the asyncio plane on the loopback interface (no real link).

Two stages in one process.  ``closed``: a bare ``AsyncTransport`` with a
sender and a counting sink, at most ``window`` frames outstanding — a
closed loop, so the receiver can never fall behind, the socket buffer
never overflows, no frame is lost to a host stall, the capacity reading
is not bimodal the way the open-loop knee is, and every frame costs the
same calls whatever the host's speed.  ``open`` (traced pass): the
registry's ``loadgen`` scenario at one fixed sub-knee rate through a full
deployment — an open loop, sojourn timed from the *scheduled* send, phase
0 discarded as warm-up; what it loses to host stalls is a reading
(``loadgen.loss_share``), not an error.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, List

from benchmarks.ledger import measure, profiling, spec
from benchmarks.ledger.drives import base_metrics

SENDER, SINK = 0, 1


def set_up() -> None:
    """Import the live plane and bind (then release) the closed stage's endpoints."""
    from repro.loadgen import LoadProfile  # noqa: F401  (import is the work)
    from repro.runtime import AsyncTransport, NodeRegistry
    from repro.scenarios import get

    get("loadgen")

    async def bind() -> None:
        transport = AsyncTransport(asyncio.get_running_loop(), NodeRegistry())
        await transport.open_endpoints(SENDER, lambda _src, _msg: None)
        await transport.open_endpoints(SINK, lambda _src, _msg: None)
        await transport.close()

    asyncio.run(bind())


# ----------------------------------------------------------------------
# open stage
# ----------------------------------------------------------------------
class _SampledLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """Event loops that log ``(wall, cpu)`` every ``period`` seconds.

    ``run_scenario`` creates its loop inside ``asyncio.run``; this is the
    one public seam through which the benchmark can read the process CPU
    clock *while* the open loop streams, so a host noise burst spoils a
    few samples instead of the whole stage's CPU reading.
    """

    def __init__(self, samples: List[tuple], period: float) -> None:
        super().__init__()
        self._samples = samples
        self._period = period

    def new_event_loop(self):
        loop = super().new_event_loop()

        def tick() -> None:
            self._samples.append((time.perf_counter(), time.process_time()))
            loop.call_later(self._period, tick)

        loop.call_soon(tick)
        return loop


def _utilisation(samples: List[tuple], skip_s: float, window_s: float) -> List[float]:
    """CPU seconds per wall second over consecutive ``window_s`` windows,
    ignoring the first and last ``skip_s`` (start-up, warm-up phase, drain)."""
    if len(samples) < 2:
        return []
    first, last = samples[0][0] + skip_s, samples[-1][0] - skip_s
    inside = [s for s in samples if first <= s[0] <= last]
    out, start = [], None
    for sample in inside:
        if start is None:
            start = sample
        elif sample[0] - start[0] >= window_s:
            out.append((sample[1] - start[1]) / (sample[0] - start[0]))
            start = sample
    return out


def _open_stage(params: dict, phases: int, seed: int) -> Dict[str, object]:
    from repro import run_scenario

    samples: List[tuple] = []
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_SampledLoopPolicy(samples, period=0.25))
    try:
        c0 = time.process_time()
        result = run_scenario(
            "loadgen", n=params["n"], rate=params["rate"], step=0.0, steps=phases,
            step_duration=params["phase_s"], seed=seed,
        )
        cpu_s = time.process_time() - c0
    finally:
        asyncio.set_event_loop_policy(previous)
    load = result.metrics["load"]
    measured = load["phases"][1:]  # phase 0 is warm-up

    def p(stage: str, q: str) -> List[float]:
        return [phase["stages"][stage][q] * 1e3 for phase in measured]

    means = load["overall"]["stage_means"]
    offered = [phase["offered"] for phase in load["phases"]]
    done = [phase["done"] for phase in load["phases"]]
    stream_s = phases * params["phase_s"]
    busy = _utilisation(samples, skip_s=params["phase_s"] + 0.25, window_s=params["phase_s"])
    return {
        "cpu_s": cpu_s,
        "stream_s": stream_s,
        "cpu_s_per_stream_s_by_window": busy,
        "cpu_s_per_stream_s": measure.lower_quartile(busy or [cpu_s / stream_s]),
        "offered_by_phase": offered,
        "done_by_phase": done,
        "offered": sum(offered),
        "done": sum(done),
        "loss_share": 1.0 - sum(done) / sum(offered),
        "invariant_violations": result.metrics["invariant_violations"],
        "sojourn_p50_ms_by_phase": p("sojourn", "p50"),
        "sojourn_p50_ms": statistics.median(p("sojourn", "p50")),
        "sojourn_p99_ms": measure.lower_quartile(p("sojourn", "p99")),
        "ingress_p50_ms": statistics.median(p("ingress", "p50")),
        "queue_p50_ms": statistics.median(p("queue", "p50")),
        "dispatch_p50_ms": statistics.median(p("dispatch", "p50")),
        "send_lag_mean_ms": (
            means["sojourn"] - means["ingress"] - means["queue"] - means["dispatch"]
        ) * 1e3,
        "ingress_high_water": load["ingress_high_water"],
        "ingress_dropped": load["ingress_dropped"],
        "decode_errors": load["resilience"]["decode_errors"]["total"],
        "digest": measure.digest({"offered": offered}),
    }


def _open_clean(params: dict, phases: int, seed: int) -> List[dict]:
    """Open-stage attempts, the last one first-rate or the budget spent.

    A host stall longer than the receive buffer's worth of schedule makes
    the generator's catch-up burst overflow the socket: frames are lost to
    the host, not to the program.  Such an attempt is discarded the way a
    disturbed repetition is, and every attempt stays in the run record.
    """
    attempts: List[dict] = []
    while len(attempts) < params["open_attempts"]:
        attempts.append(_open_stage(params, phases, seed))
        if attempts[-1]["done"] == attempts[-1]["offered"]:
            break
    return attempts


# ----------------------------------------------------------------------
# closed stage
# ----------------------------------------------------------------------
async def _closed_stage(
    params: dict, seed: int, *, reliable: bool, segment_frames: int, segments: int,
    time_sends: bool = False, min_segments: int = 0, budget_s: float = 0.0,
) -> Dict[str, object]:
    """Runs of ``segment_frames`` completions, ``window`` frames outstanding
    throughout: ``segments`` of them, or — given ``min_segments`` — as many
    as fit in ``budget_s`` between ``min_segments`` and ``segments``."""
    import numpy as np

    from repro.runtime import AsyncTransport, NodeRegistry
    from repro.wire import Serve

    transport = AsyncTransport(asyncio.get_running_loop(), NodeRegistry())
    chunk_ids = np.random.default_rng(seed).integers(1 << 20, 1 << 21, size=256)
    frames = [
        Serve(proposal_id=i, chunk_id=int(c), payload_size=1, origin=SENDER)
        for i, c in enumerate(chunk_ids)
    ]
    window = params["window"]
    sent = received = lost = refused = stalls = 0
    stopping = False
    marks: List[tuple] = []  # (wall, cpu) at every segment boundary
    send_spans: List[tuple] = []  # (start, end) of every timed send()
    deadline = time.perf_counter() + budget_s

    def send_one() -> None:
        nonlocal sent, refused
        message = frames[sent % len(frames)]
        if time_sends:
            start = time.perf_counter()
            accepted = transport.send(SENDER, SINK, message, reliable)
            send_spans.append((start, time.perf_counter()))
        else:
            accepted = transport.send(SENDER, SINK, message, reliable)
        sent += 1
        if not accepted:
            refused += 1

    def sink(_src, _message) -> None:
        nonlocal received, stopping
        received += 1
        if received % segment_frames == 0:
            marks.append((time.perf_counter(), time.process_time()))
            done = len(marks) - 1
            stopping = done >= segments or (
                0 < min_segments <= done and time.perf_counter() >= deadline
            )
        if not stopping:
            send_one()

    await transport.open_endpoints(SENDER, lambda _src, _msg: None)
    await transport.open_endpoints(SINK, sink)
    try:
        marks.append((time.perf_counter(), time.process_time()))
        for _ in range(window):
            send_one()
        seen, still_since = -1, time.perf_counter()
        while received + lost + refused < sent:
            await asyncio.sleep(0.02)
            now = time.perf_counter()
            if received != seen:
                seen, still_since = received, now
            elif now - still_since >= params["stall_s"]:
                # the whole window went missing: count it, refill, carry on
                lost = sent - refused - received
                stalls += 1
                still_since = now
                if stopping or stalls >= 10:
                    break
                for _ in range(window):
                    send_one()
        snapshot = transport.resilience_snapshot()
    finally:
        await transport.close()
    return {
        "reliable": reliable,
        "sent": sent,
        "completed": received,
        "failed": lost + refused,
        "segment_frames_per_s": [segment_frames / (b[0] - a[0]) for a, b in zip(marks, marks[1:])],
        "segment_cpu_us_per_frame": [
            (b[1] - a[1]) / segment_frames * 1e6 for a, b in zip(marks, marks[1:])
        ],
        "send_spans": send_spans,
        "ingress": snapshot["ingress"],
        "decode_errors": snapshot["decode_errors"]["total"],
    }


def _closed(params: dict, seed: int, **kwargs) -> Dict[str, object]:
    return asyncio.run(_closed_stage(params, seed, **kwargs))


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def _send_rows(closed: dict, spans: measure.Spans, parent: int, keep: int = 2000) -> None:
    """Fold the closed loop's per-send spans into the span log (first
    ``keep`` rows; the record carries the summary of all of them)."""
    for start, end in closed["send_spans"][:keep]:
        spans.rows.append({"name": "send", "start": start, "end": end, "parent": parent,
                           "workload": spans.workload})


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, t0: float) -> Dict[str, object]:
    params = spec.LIVE_SMOKE if smoke else spec.LIVE
    spans = measure.Spans(name, enabled=trace)
    canary = measure.Canary()
    with spans.span("setup"):
        set_up()
    setups = measure.setup_samples(name, t0, 1 if trace else params["setups"])
    canary.sample()
    udp = dict(reliable=False, segment_frames=params["segment_frames"])

    # The closed loop until --seconds have passed: first under cProfile (its
    # call count is used, its clock is not), then timed segments.  The
    # traced pass wants the fewest timed segments and no more.
    deadline = time.perf_counter() + (0.0 if trace else seconds)
    with spans.span("closed.udp.profiled"):
        counted, stats = profiling.profiled(
            lambda: _closed(params, seed, segments=params["counted_segments"], **udp), cpu_clock=False
        )
    canary.sample()
    with spans.span("closed.udp"):
        closed = _closed(
            params, seed, segments=params["max_segments"], min_segments=params["min_segments"],
            budget_s=max(0.0, deadline - time.perf_counter()), **udp,
        )
    canary.sample()
    calls_per_frame = profiling.bucket(stats)["total_calls"] / counted["completed"]
    setup = measure.summarize(setups)
    stages = [counted, closed]
    record: Dict[str, object] = {
        "params": params, "setups": setups, "setup_s": setup, "closed_profiled": counted,
        "closed": closed, "calls_per_frame": calls_per_frame,
        "frames_per_s": measure.summarize(closed["segment_frames_per_s"]),
        "link": "loopback interface, one process: no real link",
        "result_digest": measure.digest([counted["sent"], counted["completed"]]),
    }

    def outcome(metrics: dict, violations: int = 0) -> Dict[str, object]:
        """An operation is a closed-loop frame: sent but lost or refused."""
        failures = [
            f"closed: {stage['failed']} frames lost or refused, {stage['decode_errors']} undecodable"
            for stage in stages if stage["failed"] or stage["decode_errors"]
        ]
        if violations:
            failures.append(f"open: {violations} invariant violations")
        return {
            "metrics": metrics,
            "attempted": sum(stage["sent"] for stage in stages),
            "failed": sum(stage["failed"] for stage in stages),
            "failures": failures,
            "record": record,
        }

    if not trace:
        record["noise_ratio"] = canary.noise_ratio()
        return outcome({
            "setup_s": setup["min"],
            "py_calls_per_stream_s": calls_per_frame * params["rate"],
            "peak_rss_mib": measure.peak_rss_mib(),
        })

    # traced pass: the closed loop with every send() timed, and over TCP;
    # then the open loop, plain for its latencies and under cProfile (on
    # the CPU clock) for the layer shares of a whole deployment.
    with spans.span("closed.udp.timed") as parent:
        timed = _closed(params, seed, segments=params["counted_segments"], time_sends=True, **udp)
    _send_rows(timed, spans, parent)
    send_s = [end - start for start, end in timed.pop("send_spans")]
    with spans.span("closed.tcp"):
        tcp = _closed(params, seed, reliable=True, segment_frames=params["tcp_segment_frames"],
                      segments=params["tcp_segments"])
    stages += [timed, tcp]
    canary.sample()
    phases = max(params["min_phases"], int(seconds * params["open_share"] / params["phase_s"]))
    with spans.span("open"):
        record["open_attempts"] = _open_clean(params, phases, seed)
    opened = record["open_attempts"][-1]
    canary.sample()
    with spans.span("open.profiled"):
        profiled_open, stats = profiling.profiled(lambda: _open_stage(params, phases, seed), cpu_clock=True)
    canary.sample()
    buckets = profiling.bucket(stats)
    metrics = base_metrics(seed, spans)
    metrics.update(profiling.layer_metrics(
        buckets, profiled_open["offered"], "py_calls_per_frame", spec.LIVE_LAYERS
    ))
    canary.sample()
    for key in ("ingress_p50_ms", "queue_p50_ms", "dispatch_p50_ms", "sojourn_p99_ms",
                "send_lag_mean_ms", "loss_share"):
        metrics[f"loadgen.{key}"] = opened[key]
    metrics.update({
        "cpu_s_per_stream_s": opened["cpu_s_per_stream_s"],
        "sojourn_p50_ms": opened["sojourn_p50_ms"],
        "frames_per_s": statistics.median(closed["segment_frames_per_s"]),
        "loadgen.open_cpu_us_per_frame": opened["cpu_s"] / opened["offered"] * 1e6,
        "runtime.transport.ingress_high_water": opened["ingress_high_water"],
        "runtime.transport.ingress_dropped": opened["ingress_dropped"],
        "runtime.transport.decode_errors": opened["decode_errors"] + closed["decode_errors"],
        "runtime.transport.send_us": statistics.fmean(send_s) * 1e6,
        "runtime.transport.tcp_frames_per_s": statistics.median(tcp["segment_frames_per_s"]),
        "trace.overhead_ratio": profiled_open["cpu_s"] / opened["cpu_s"],
        "host.noise_ratio": canary.noise_ratio(),
    })
    record.update(
        phases=phases, open_profiled=profiled_open, profile=buckets, closed_timed=timed,
        closed_tcp=tcp, send_s=measure.summarize(send_s[:2000]), spans=spans.rows,
        canary=canary.samples,
    )
    return outcome(metrics, opened["invariant_violations"])
