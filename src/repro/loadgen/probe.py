"""Stage-timestamp probe: decomposes frame latency inside the transport.

The transport calls three hooks (all guarded by a single ``probe is not
None`` check on its hot paths, so the cost when disabled is one
attribute load):

* :meth:`StageProbe.on_ingest` — a decoded frame entered the bounded
  ingress queue (or was rejected by the overflow policy);
* :meth:`StageProbe.on_evicted` — a queued frame was evicted by the
  drop-oldest overflow policy to admit a newcomer;
* :meth:`StageProbe.on_dispatched` — a same-destination run was drained
  and delivered, message by message, to its receiver.

From the driver's send-side timestamps and these hooks the probe
decomposes each measured frame's life into four stages, each recorded
into a per-phase :class:`~repro.loadgen.histogram.LatencyHistogram`:

========  =====================  ==========================================
stage     interval               what it measures
========  =====================  ==========================================
ingress   t_sent → t_ingest      socket (UDP loopback + wait for the loop)
queue     t_ingest → t_drain     decode + wait in the BoundedIngressQueue
dispatch  t_drain → t_done       protocol handler work of the frame's run
sojourn   t_sched → t_done       end-to-end from the *scheduled* arrival
========  =====================  ==========================================

``t_ingest`` is the arrival stamp of the frame's *run*: the transport
reads every datagram a readable socket holds in one go and takes one
clock reading for all of them, before decoding (docs/LOADGEN.md).
``sojourn`` is anchored at the scheduled (not actual) send time, so a
driver that falls behind charges the stall to the frames it delayed —
the standard coordinated-omission correction.  ``dispatch`` shares one
``t_drain``/``t_done`` pair across a same-destination run, so each frame
is charged the time the pump spent on its whole run.

Measured frames are ``Serve`` messages whose ``proposal_id`` encodes the
schedule sequence number as a negative integer (real proposal ids count
up from zero, so the namespaces can never collide); the receiving
protocol node treats them as unknown-proposal serves — the full decode →
queue → dispatch path runs, then the engine no-ops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.loadgen.histogram import LatencyHistogram
from repro.loadgen.schedule import ArrivalSchedule
from repro.wire import Serve

__all__ = ["STAGES", "StageProbe", "decode_seq", "encode_seq"]

#: latency stages, in frame-lifetime order.
STAGES = ("ingress", "queue", "dispatch", "sojourn")

#: measured-frame sequence numbers are carried as
#: ``proposal_id = -(seq + _PROPOSAL_OFFSET)``; real proposal ids are
#: always >= 0, so any id <= -_PROPOSAL_OFFSET is unambiguously ours.
_PROPOSAL_OFFSET = 10


def encode_seq(seq: int) -> int:
    """Fold a schedule sequence number into a loadgen proposal id."""
    return -(seq + _PROPOSAL_OFFSET)


def decode_seq(message: object) -> Optional[int]:
    """The schedule sequence number of a measured frame, else ``None``."""
    if type(message) is not Serve:
        return None
    proposal_id = message.proposal_id
    if proposal_id > -_PROPOSAL_OFFSET:
        return None
    return -proposal_id - _PROPOSAL_OFFSET


class StageProbe:
    """Per-phase, per-stage latency accounting for one schedule.

    All per-frame state is pre-allocated numpy columns indexed by the
    schedule sequence number, so the hooks are O(1) appends into fixed
    storage — no dict churn on the transport's hot path.
    """

    def __init__(self, schedule: ArrivalSchedule) -> None:
        self.schedule = schedule
        n = schedule.total_count
        phases = len(schedule.phases)
        self._phase_of = schedule.phase_of
        self._t_sent = np.full(n, np.nan, dtype=np.float64)
        self._t_sched = np.full(n, np.nan, dtype=np.float64)
        self._started = False
        #: per-phase outcome counters, index = phase
        self.sent: List[int] = [0] * phases
        self.refused: List[int] = [0] * phases
        self.ingested: List[int] = [0] * phases
        self.rejected: List[int] = [0] * phases
        self.evicted: List[int] = [0] * phases
        self.done: List[int] = [0] * phases
        self.histograms: List[Dict[str, LatencyHistogram]] = [
            {stage: LatencyHistogram() for stage in STAGES} for _ in range(phases)
        ]

    def begin(self, t0: float) -> None:
        """Anchor the schedule at transport-clock time ``t0``."""
        self._t_sched = t0 + self.schedule.times
        self._started = True

    # ------------------------------------------------------------------
    # driver-side hook
    # ------------------------------------------------------------------
    def on_sent(self, seq: int, t_sent: float, accepted: bool) -> None:
        """The driver attempted frame ``seq`` at ``t_sent``."""
        phase = self._phase_of[seq]
        if accepted:
            self._t_sent[seq] = t_sent
            self.sent[phase] += 1
        else:
            self.refused[phase] += 1

    # ------------------------------------------------------------------
    # transport-side hooks
    # ------------------------------------------------------------------
    def on_ingest(
        self, src: int, message: object, t_ingest: float, accepted: bool
    ) -> None:
        """A decoded frame hit the ingress queue (maybe rejected)."""
        seq = decode_seq(message)
        if seq is None:
            return
        phase = self._phase_of[seq]
        if not accepted:
            self.rejected[phase] += 1
            return
        self.ingested[phase] += 1
        t_sent = self._t_sent[seq]
        if t_sent == t_sent:  # not NaN
            self.histograms[phase]["ingress"].record(t_ingest - t_sent)

    def on_evicted(self, item) -> None:
        """A queued ``(t, dst, src, message)`` entry was dropped-oldest."""
        seq = decode_seq(item[3])
        if seq is None:
            return
        self.evicted[self._phase_of[seq]] += 1

    def on_dispatched(
        self, batch, lo: int, hi: int, t_drain: float, t_done: float
    ) -> None:
        """Entries ``batch[lo:hi]`` were delivered to one receiver.

        ``t_drain`` is taken just before the run's first handler call,
        ``t_done`` just after its last returns, so the dispatch stage
        charges each frame the time spent on its same-destination run.
        """
        phase_of = self._phase_of
        t_sched = self._t_sched
        histograms = self.histograms
        done = self.done
        for k in range(lo, hi):
            entry = batch[k]
            seq = decode_seq(entry[3])
            if seq is None:
                continue
            phase = phase_of[seq]
            stage = histograms[phase]
            stage["queue"].record(t_drain - entry[0])
            stage["dispatch"].record(t_done - t_drain)
            stage["sojourn"].record(t_done - t_sched[seq])
            done[phase] += 1

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def merged_stage(self, stage: str) -> LatencyHistogram:
        """One histogram holding every phase's samples for ``stage``."""
        return LatencyHistogram.merged(h[stage] for h in self.histograms)

    def phase_report(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0, 99.9)
    ) -> List[Dict[str, object]]:
        """JSON-safe per-phase outcome counters + stage percentiles."""
        out: List[Dict[str, object]] = []
        for phase in self.schedule.phases:
            i = phase.index
            out.append(
                {
                    "phase": i,
                    "offered_rate": phase.rate,
                    "offered": phase.count,
                    "sent": self.sent[i],
                    "refused": self.refused[i],
                    "ingested": self.ingested[i],
                    "rejected": self.rejected[i],
                    "evicted": self.evicted[i],
                    "done": self.done[i],
                    "goodput_rate": self.done[i] / phase.duration,
                    "stages": {
                        stage: self.histograms[i][stage].percentiles(qs)
                        for stage in STAGES
                    },
                }
            )
        return out

    def overall_report(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0, 99.9)
    ) -> Dict[str, object]:
        """Cross-phase totals + merged stage percentiles."""
        merged = {stage: self.merged_stage(stage) for stage in STAGES}
        return {
            "offered": self.schedule.total_count,
            "sent": sum(self.sent),
            "refused": sum(self.refused),
            "ingested": sum(self.ingested),
            "rejected": sum(self.rejected),
            "evicted": sum(self.evicted),
            "done": sum(self.done),
            "stages": {stage: merged[stage].percentiles(qs) for stage in STAGES},
            "stage_means": {stage: merged[stage].mean for stage in STAGES},
        }
