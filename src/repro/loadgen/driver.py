"""The open-loop generator coroutine and its configuration.

The generator owns a pre-materialised :class:`ArrivalSchedule` and a
catch-up send loop: each wakeup it transmits every frame whose scheduled
time has passed (bounded by ``BURST_CAP`` per iteration so the event
loop — and the ingress pump — keep running during a backlog), then
sleeps until the next scheduled arrival.  Falling behind never thins the
schedule: late frames go out as a burst, and the probe's sojourn stage,
anchored at the *scheduled* time, charges the delay to them.

Measured frames are UDP ``Serve`` messages aimed at one target node:

* ``proposal_id`` carries the schedule sequence number (negative
  encoding, see :mod:`repro.loadgen.probe`), which real proposal ids
  (always >= 0) can never collide with — the verification engine treats
  each as an unknown proposal and no-ops;
* ``chunk_id`` cycles over a bounded working set at a high offset, so
  the first ``WORKING_SET`` frames take the fresh-chunk path (store
  insert + next-period propose) and every later frame takes the
  duplicate path — protocol amplification stays bounded by the working
  set instead of growing with the offered load, and the loadgen id
  space never collides with the stream source's chunk ids;
* ``origin`` is ``SOURCE_ID``, so receivers skip acks and fan-in
  history for them, exactly as they do for the real stream source.

The generator sends from its own registered endpoint (``LOADGEN_ID``)
— the serve handlers never read the sender id, and a distinct id keeps
transport accounting (refusals, breaker state) attributable.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.gossip.chunks import SOURCE_ID
from repro.loadgen.knee import KneeReport, detect_knee
from repro.loadgen.probe import StageProbe, encode_seq
from repro.loadgen.schedule import ArrivalSchedule, rate_ladder
from repro.util.validation import require
from repro.wire import Serve

__all__ = ["LOADGEN_ID", "LoadGenerator", "LoadProfile"]

#: the generator's node id on the transport (SOURCE_ID is -1).
LOADGEN_ID = -2

#: schema tag of :meth:`LoadGenerator.report`.
LOADGEN_REPORT_SCHEMA = "repro.loadgen_report/1"

#: distinct chunk ids cycled through (bounds protocol amplification).
WORKING_SET = 256
#: base of the loadgen chunk-id namespace, far above any real stream
#: chunk id a run of sane duration can reach.
CHUNK_OFFSET = 1 << 20
#: max frames sent per catch-up iteration before yielding the loop.
BURST_CAP = 256


@dataclass(frozen=True)
class LoadProfile:
    """One stepped-rate open-loop sweep."""

    #: offered rate of the first phase (frames/s) and per-phase increment.
    start_rate: float = 500.0
    step_rate: float = 500.0
    steps: int = 4
    step_duration: float = 1.0
    seed: int = 0
    #: interarrival process: "uniform" or "poisson".
    arrivals: str = "uniform"
    #: goodput/offered ratio below which a phase counts as saturated.
    knee_tolerance: float = 0.9
    #: drain window after the last phase (in-flight frames finish).
    settle: float = 0.25

    def __post_init__(self) -> None:
        require(self.settle >= 0.0, "settle must be >= 0")

    def build_schedule(self) -> ArrivalSchedule:
        return ArrivalSchedule(
            rate_ladder(self.start_rate, self.step_rate, self.steps, self.step_duration),
            seed=self.seed,
            arrivals=self.arrivals,
        )


class LoadGenerator:
    """Drives one profile's schedule at a target node over a transport."""

    def __init__(self, transport, profile: LoadProfile, target: int) -> None:
        self.transport = transport
        self.profile = profile
        self.target = target
        self.schedule = profile.build_schedule()
        self.probe = StageProbe(self.schedule)

    async def start(self) -> None:
        """Register the generator endpoint and attach the probe."""
        await self.transport.open_endpoints(LOADGEN_ID, lambda _src, _msg: None)
        self.transport.probe = self.probe

    async def run(self) -> None:
        """Execute the schedule (call :meth:`start` first)."""
        transport = self.transport
        probe = self.probe
        times = self.schedule.times
        n = self.schedule.total_count
        target = self.target

        t0 = transport.clock()
        probe.begin(t0)
        seq = 0
        while seq < n:
            now = transport.clock() - t0
            burst = 0
            while seq < n and times[seq] <= now:
                message = Serve(
                    proposal_id=encode_seq(seq),
                    chunk_id=CHUNK_OFFSET + seq % WORKING_SET,
                    payload_size=1,
                    origin=SOURCE_ID,
                )
                t_sent = transport.clock()
                accepted = transport.send(LOADGEN_ID, target, message, reliable=False)
                probe.on_sent(seq, t_sent, accepted)
                seq += 1
                burst += 1
                if burst >= BURST_CAP:
                    break
            if seq >= n:
                break
            if burst >= BURST_CAP:
                await asyncio.sleep(0)  # backlog: yield, keep catching up
                continue
            delay = times[seq] - (transport.clock() - t0)
            await asyncio.sleep(delay if delay > 0.0 else 0.0)
        await asyncio.sleep(self.profile.settle)

    def detach(self) -> None:
        """Unhook the probe from the transport's hot paths."""
        if self.transport.probe is self.probe:
            self.transport.probe = None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def knee(self) -> KneeReport:
        """Knee of the completed sweep (goodput vs offered, per phase)."""
        offered = [phase.rate for phase in self.schedule.phases]
        goodput = [
            self.probe.done[phase.index] / phase.duration
            for phase in self.schedule.phases
        ]
        return detect_knee(offered, goodput, tolerance=self.profile.knee_tolerance)

    def report(self, resilience: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The full JSON-safe sweep report.

        ``resilience`` is the transport's post-run
        ``resilience_snapshot()``; when given, its ingress counters ride
        along as the drop evidence the knee claim rests on.
        """
        payload: Dict[str, object] = {
            "schema": LOADGEN_REPORT_SCHEMA,
            "profile": asdict(self.profile),
            "schedule": self.schedule.describe(),
            "target": self.target,
            "phases": self.probe.phase_report(),
            "overall": self.probe.overall_report(),
            "knee": self.knee().to_dict(),
        }
        if resilience is not None:
            payload["resilience"] = resilience
            ingress = resilience.get("ingress", {})
            payload["ingress_high_water"] = ingress.get("high_water")
            payload["ingress_dropped"] = (
                ingress.get("dropped_oldest", 0) + ingress.get("rejected", 0)
            )
        return payload
