"""Scripted fault injection shared by the simulator and the live plane.

A :class:`FaultSchedule` is a declarative list of :class:`FaultEvent`
items — node crashes/restarts, message-class-targeted drops, (possibly
asymmetric) partitions and slow links — expressed in experiment time.
The schedule itself is inert data (JSON-friendly via
:meth:`FaultSchedule.from_dicts`); a :class:`FaultPlane` interprets it
against a clock:

* the **send hook** :meth:`FaultPlane.on_send` answers "what happens to
  this message right now" (pass / drop / extra delay) and is consulted
  by both ``Network.send_many`` (simulator) and
  ``AsyncTransport`` (live runtime);
* the **lifecycle events** (``crash`` / ``restart``) are applied by the
  owning cluster — ``SimCluster.attach_faults`` schedules them as
  simulator timers (leave/rejoin), ``RuntimeCluster`` runs a real-time
  driver task that tears endpoints down and rebinds them.

Both planes therefore run the *same* fault script (``detect`` with
``chaos=true`` on either plane), which is what makes its
graceful-degradation claims transferable between simulated and live
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.util.validation import require
from repro.wire import WIRE_MESSAGE_CLASSES

NodeId = int

_INF = math.inf

#: the event vocabulary; anything else is a schedule error.
KINDS = ("crash", "restart", "drop", "partition", "slow")

#: what ``classes`` may name: a drop matches ``type(message).__name__``.
CLASS_NAMES = frozenset(cls.__name__ for cls in WIRE_MESSAGE_CLASSES)


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    ``crash``/``restart`` are instants (``at``) applied to ``nodes``;
    ``drop``/``partition``/``slow`` are windows ``[at, until)``:

    * ``drop`` — discard matching messages with probability ``rate``;
      ``classes`` restricts by wire-message class name (empty = all; the
      only kind that takes it, and every name must be a wire class),
      ``src_nodes``/``dst_nodes`` restrict the endpoints (empty = any).
    * ``partition`` — sever ``group_a`` → ``group_b`` traffic; with
      ``symmetric`` (default) the reverse direction is severed too,
      otherwise the partition is asymmetric (a → b only), the harder
      case for accusation protocols.
    * ``slow`` — add ``extra_delay`` seconds to matching deliveries.
    """

    kind: str
    at: float
    until: float = _INF
    nodes: Tuple[NodeId, ...] = ()
    classes: Tuple[str, ...] = ()
    rate: float = 1.0
    src_nodes: Tuple[NodeId, ...] = ()
    dst_nodes: Tuple[NodeId, ...] = ()
    group_a: Tuple[NodeId, ...] = ()
    group_b: Tuple[NodeId, ...] = ()
    symmetric: bool = True
    extra_delay: float = 0.0

    def __post_init__(self) -> None:
        require(self.kind in KINDS, "unknown fault kind %r", self.kind)
        require(self.at >= 0.0, "fault time must be >= 0")
        require(self.until >= self.at, "fault window must not end before it starts")
        require(0.0 <= self.rate <= 1.0, "drop rate must be in [0, 1]")
        require(self.extra_delay >= 0.0, "extra_delay must be >= 0")
        if self.classes:
            require(self.kind == "drop", "only a drop takes classes, not a %s", self.kind)
            unknown = sorted(set(self.classes) - CLASS_NAMES)
            require(not unknown, "classes %s name no wire message class", unknown)
        if self.kind in ("crash", "restart"):
            require(len(self.nodes) > 0, "%s event needs nodes", self.kind)
        if self.kind == "partition":
            require(
                len(self.group_a) > 0 and len(self.group_b) > 0,
                "partition needs two non-empty groups",
            )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated collection of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    @classmethod
    def from_dicts(cls, raw: Iterable[Mapping]) -> "FaultSchedule":
        """Build a schedule from declarative dicts (e.g. parsed JSON).

        Sequence-valued fields accept any iterable but a string; unknown
        keys are an error (typos must not silently disarm a fault).
        """
        events: List[FaultEvent] = []
        valid = {f for f in FaultEvent.__dataclass_fields__}
        for i, entry in enumerate(raw):
            unknown = set(entry) - valid
            require(not unknown, "fault %d: unknown keys %s", i, sorted(unknown))
            kwargs = dict(entry)
            for key in ("nodes", "classes", "src_nodes", "dst_nodes", "group_a", "group_b"):
                if key in kwargs:
                    require(not isinstance(kwargs[key], str), "fault %d: %s is a string", i, key)
                    kwargs[key] = tuple(kwargs[key])
            events.append(FaultEvent(**kwargs))
        return cls(events=tuple(sorted(events, key=lambda e: e.at)))

    @classmethod
    def churn(
        cls,
        nodes: Iterable[NodeId],
        duration: float,
        downtime: float,
        *,
        start_frac: float = 0.2,
        end_frac: float = 0.8,
        permanent_frac: float = 0.0,
    ) -> "FaultSchedule":
        """Scripted crash/restart churn over ``nodes``.

        Each node crashes once, the crash instants staggered evenly
        across ``[start_frac, end_frac]`` of the run (deterministic — no
        RNG — so churn scenarios are reproducible from parameters
        alone), and restarts ``downtime`` seconds later.  The last
        ``permanent_frac`` of the victims never restart, and restarts
        that would land inside the final 5% of the run are dropped: a
        node that stays down exercises the confirmed-dead path.
        """
        require(duration > 0.0, "duration must be > 0")
        require(downtime > 0.0, "downtime must be > 0")
        require(0.0 <= start_frac < end_frac <= 1.0, "need 0 <= start_frac < end_frac <= 1")
        require(0.0 <= permanent_frac <= 1.0, "permanent_frac must be in [0, 1]")
        victims = list(nodes)
        n_permanent = int(round(permanent_frac * len(victims)))
        events: List[FaultEvent] = []
        span = (end_frac - start_frac) * duration
        cutoff = 0.95 * duration
        for i, node in enumerate(victims):
            at = duration * start_frac + span * (i / max(1, len(victims)))
            events.append(FaultEvent(kind="crash", at=at, nodes=(node,)))
            back = at + downtime
            if i < len(victims) - n_permanent and back < cutoff:
                events.append(FaultEvent(kind="restart", at=back, nodes=(node,)))
        return cls(events=tuple(sorted(events, key=lambda e: e.at)))

    def lifecycle_events(self) -> Tuple[FaultEvent, ...]:
        """The crash/restart instants, in time order."""
        return tuple(e for e in self.events if e.kind in ("crash", "restart"))

    def window_events(self) -> Tuple[FaultEvent, ...]:
        """The windowed drop/partition/slow faults."""
        return tuple(e for e in self.events if e.kind in ("drop", "partition", "slow"))


class FaultPlane:
    """Interprets a :class:`FaultSchedule` against a clock.

    The hot entry point is :meth:`on_send`: it returns ``-1.0`` when the
    message must be dropped, otherwise the extra delivery delay in
    seconds (``0.0`` = unaffected).  Probabilistic drops draw from the
    plane's own seeded generator, so a faulted run is reproducible and
    an un-faulted run's RNG streams are untouched.
    """

    DROP = -1.0

    def __init__(
        self,
        schedule: FaultSchedule,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.schedule = schedule
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._drops = []
        self._partitions = []
        self._slows = []
        for event in schedule.window_events():
            if event.kind == "drop":
                self._drops.append(event)
            elif event.kind == "partition":
                self._partitions.append(
                    (event, frozenset(event.group_a), frozenset(event.group_b))
                )
            else:
                self._slows.append(event)
        #: class-name sets are precomputed per drop event.
        self._drop_specs = [
            (
                e,
                frozenset(e.classes) or None,
                frozenset(e.src_nodes) or None,
                frozenset(e.dst_nodes) or None,
            )
            for e in self._drops
        ]
        self.crashed: set = set()
        self.drops_injected: Dict[str, int] = {"drop": 0, "partition": 0}
        self.slowed = 0

    # -- lifecycle bookkeeping (the owning cluster applies the events) --
    def mark_crashed(self, node: NodeId) -> None:
        self.crashed.add(node)

    def mark_restarted(self, node: NodeId) -> None:
        self.crashed.discard(node)

    # -- the send hook --------------------------------------------------
    def on_send(self, now: float, src: NodeId, dst: NodeId, message: object) -> float:
        """Fate of one message: ``DROP`` or extra delay (0.0 = pass)."""
        for event, ga, gb in self._partitions:
            if event.at <= now < event.until:
                if (src in ga and dst in gb) or (
                    event.symmetric and src in gb and dst in ga
                ):
                    self.drops_injected["partition"] += 1
                    return self.DROP
        if self._drop_specs:
            name = message.__class__.__name__
            for event, classes, srcs, dsts in self._drop_specs:
                if not (event.at <= now < event.until):
                    continue
                if classes is not None and name not in classes:
                    continue
                if srcs is not None and src not in srcs:
                    continue
                if dsts is not None and dst not in dsts:
                    continue
                if event.rate >= 1.0 or float(self.rng.random()) < event.rate:
                    self.drops_injected["drop"] += 1
                    return self.DROP
        extra = 0.0
        for event in self._slows:
            if event.at <= now < event.until:
                if event.src_nodes and src not in event.src_nodes:
                    continue
                if event.dst_nodes and dst not in event.dst_nodes:
                    continue
                extra += event.extra_delay
        if extra:
            self.slowed += 1
        return extra

    def counters(self) -> Dict[str, int]:
        """JSON-safe injection counts for the metrics layer."""
        return {
            "targeted_drops": self.drops_injected["drop"],
            "partition_drops": self.drops_injected["partition"],
            "slowed_messages": self.slowed,
            "crashed_now": len(self.crashed),
        }
