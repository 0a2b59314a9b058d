"""SWIM-style failure detection shared by both planes.

LiFTinG's blame machinery cannot tell a freerider from a node that
merely crashed: both go silent, both accrue blames, and an honest
restart could be expelled — the wrongful-expulsion axis of
``analysis/wrongful_blames.py``.  This module supplies the missing
signal: a churn detector in the style of SWIM (Das et al., DSN 2002)
that distinguishes *suspected* nodes (possibly down, possibly slow)
from *confirmed-dead* ones, so the reputation layer can quarantine
blames during the ambiguous window (see
:meth:`repro.core.reputation.ReputationManager.quarantine_target`).

Protocol per gossip period, per node:

1. **Probe** — ping one sampled peer; on ack-timeout, ask ``k`` sampled
   proxies to ping it on our behalf (``PingReq``); if no direct or
   relayed ack arrives, suspect the target.
2. **Suspicion** — a suspected node stays *sampleable* (messages still
   reach it) and has ``suspicion_periods`` gossip periods to refute by
   bumping its incarnation number.  Unrefuted suspicion becomes
   confirmed death.
3. **Dissemination** — state changes ride as bounded
   ``(rank, node, incarnation)`` piggybacks on every probe message and
   on the existing propose fan-out (``MembershipUpdate``), SWIM's
   infection-style broadcast at zero extra round trips.

Update precedence is lexicographic on ``(incarnation, rank)`` with
ranks alive(0) < suspect(1) < left(2) < dead(3): within one incarnation
bad news beats good news; a bumped incarnation (only the node itself
can bump — that *is* the refutation) beats everything older.

The detector is plane-agnostic: it talks to its host through the
``send`` / ``call_later`` / ``clock`` surface a
:class:`~repro.gossip.protocol.GossipNode` offers on both planes, and
all timeouts are expressed in
gossip-period units so one parameter set works at any timescale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.membership.base import (
    NodeId,
    STATUS_ALIVE,
    STATUS_DEAD,
    STATUS_LEFT,
    STATUS_SUSPECT,
)
from repro.util.validation import require
from repro.wire import MembershipUpdate, Ping, PingAck, PingReq

#: Wire-encoded status ranks; order encodes within-incarnation
#: precedence (see module docstring).
RANK_ALIVE = 0
RANK_SUSPECT = 1
RANK_LEFT = 2
RANK_DEAD = 3

#: Direct-ack wait before falling back to proxies, and relayed-ack wait
#: before raising suspicion, both in gossip periods: their sum stays
#: below 1.0 so a probe resolves within its own period.
PING_TIMEOUT = 0.35
INDIRECT_TIMEOUT = 0.5
#: How many carrier messages each update rides on before it is dropped
#: from the piggyback outbox (SWIM's λ log n retransmit).
RETRANSMIT = 10
#: Update budget per carrier message.
MAX_PIGGYBACK = 8

STATUS_OF_RANK = {
    RANK_ALIVE: STATUS_ALIVE,
    RANK_SUSPECT: STATUS_SUSPECT,
    RANK_LEFT: STATUS_LEFT,
    RANK_DEAD: STATUS_DEAD,
}


@dataclass(frozen=True)
class FailureDetectorParams:
    """Detector tuning; all timeouts are in *gossip periods* so the
    same parameters work on the simulator (T_g = 0.5 s) and the live
    loopback cluster (T_g = 0.25 s).

    proxies:
        ``k`` ping-req relays per failed direct probe.
    suspicion_periods:
        Refutation window before a suspect is confirmed dead.
    """

    proxies: int = 3
    suspicion_periods: float = 8.0

    def __post_init__(self) -> None:
        require(self.proxies >= 0, "proxies must be >= 0")
        require(self.suspicion_periods > 0.0, "suspicion_periods must be > 0")


class SwimFailureDetector:
    """One node's failure-detector component.

    Owned by a :class:`~repro.gossip.protocol.GossipNode` the way the
    verification engine is: it shares the host's transport, sampler and
    period timer, and reports local state transitions through
    ``on_change(node, status, incarnation)``.
    """

    __slots__ = (
        "host",
        "params",
        "on_change",
        "incarnation",
        "_direct_wait",
        "_relayed_wait",
        "_suspicion_window",
        "_known",
        "_pending",
        "_proxied",
        "_outbox",
        "_seq",
        "_stopped",
        "_ever_started",
        "probes_sent",
        "indirect_probes",
        "suspicions_raised",
        "refutations_sent",
        "confirms",
    )

    def __init__(
        self,
        host,
        params: FailureDetectorParams,
        on_change: Optional[Callable[[NodeId, str, int], None]] = None,
    ) -> None:
        self.host = host
        self.params = params
        self.on_change = on_change
        period = host.gossip.gossip_period
        self._direct_wait = PING_TIMEOUT * period
        self._relayed_wait = INDIRECT_TIMEOUT * period
        self._suspicion_window = params.suspicion_periods * period
        #: our own incarnation; bumped only by ourselves (refutation).
        self.incarnation = 0
        #: node -> [incarnation, rank, suspicion deadline]
        self._known: Dict[NodeId, List] = {}
        #: direct-probe seq -> target awaiting an ack
        self._pending: Dict[int, NodeId] = {}
        #: relayed-probe seq -> (origin, origin seq, issued at)
        self._proxied: Dict[int, Tuple[NodeId, int, float]] = {}
        #: node -> [remaining carries, rank, incarnation]; insertion
        #: order doubles as freshness (re-enqueue moves to the end).
        self._outbox: Dict[NodeId, List] = {}
        self._seq = 0
        self._stopped = True
        self._ever_started = False
        self.probes_sent = 0
        self.indirect_probes = 0
        self.suspicions_raised = 0
        self.refutations_sent = 0
        self.confirms = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """(Re)activate.  A restart bumps our incarnation so the alive
        announcement supersedes any suspect/dead verdict reached while
        we were down — the rejoin handshake."""
        if self._ever_started:
            self.incarnation += 1
            self._enqueue(RANK_ALIVE, self.host.node_id, self.incarnation)
        self._ever_started = True
        self._stopped = False

    def stop(self) -> None:
        """Deactivate; in-flight timer callbacks become no-ops."""
        self._stopped = True
        self._pending.clear()
        self._proxied.clear()

    def announce_leave(self) -> None:
        """Best-effort graceful-departure broadcast (no refutation will
        follow, so receivers evict immediately without suspicion)."""
        if self._stopped:
            return
        host = self.host
        peers = host.sampler.sample(host.node_id, host.gossip.fanout)
        if peers:
            update = (RANK_LEFT, host.node_id, self.incarnation)
            host.send_many(peers, MembershipUpdate(updates=(update,)))

    # ------------------------------------------------------------------
    # update table
    # ------------------------------------------------------------------
    def status_of(self, node: NodeId) -> str:
        entry = self._known.get(node)
        return STATUS_ALIVE if entry is None else STATUS_OF_RANK[entry[1]]

    def _enqueue(self, rank: int, node: NodeId, incarnation: int) -> None:
        outbox = self._outbox
        outbox.pop(node, None)
        outbox[node] = [RETRANSMIT, rank, incarnation]

    def drain_updates(self, first: Optional[NodeId] = None) -> Tuple[Tuple[int, NodeId, int], ...]:
        """Up to ``MAX_PIGGYBACK`` updates for one carrier message,
        freshest first.  When ``first`` names a node we currently
        suspect, that suspicion is always included — it is the channel
        through which the suspect learns it must refute."""
        out: List[Tuple[int, NodeId, int]] = []
        if first is not None:
            entry = self._known.get(first)
            if entry is not None and entry[1] == RANK_SUSPECT:
                out.append((RANK_SUSPECT, first, entry[0]))
        outbox = self._outbox
        if outbox:
            for node in list(reversed(outbox)):
                if len(out) >= MAX_PIGGYBACK:
                    break
                if node == first and out and out[0][1] == first:
                    continue
                slot = outbox[node]
                out.append((slot[1], node, slot[2]))
                slot[0] -= 1
                if slot[0] <= 0:
                    del outbox[node]
        return tuple(out)

    def _apply_update(self, rank: int, node: NodeId, incarnation: int) -> bool:
        """Merge one update under the precedence rules.  Returns True
        when it changed our view (and was therefore re-disseminated)."""
        host_id = self.host.node_id
        if node == host_id:
            # Word of our own death (or suspicion) is exaggerated:
            # refute by bumping the incarnation and flooding alive.
            if rank != RANK_ALIVE and incarnation >= self.incarnation:
                self.incarnation = incarnation + 1
                self.refutations_sent += 1
                self._enqueue(RANK_ALIVE, host_id, self.incarnation)
                return True
            return False
        entry = self._known.get(node)
        if entry is None:
            if rank == RANK_ALIVE and incarnation == 0:
                return False  # the default assumption; nothing new
            entry = self._known[node] = [0, RANK_ALIVE, 0.0]
        if (incarnation, rank) <= (entry[0], entry[1]):
            return False
        old_status = STATUS_OF_RANK[entry[1]]
        entry[0] = incarnation
        entry[1] = rank
        if rank == RANK_SUSPECT:
            entry[2] = self.host.clock() + self._suspicion_window
        self._enqueue(rank, node, incarnation)
        new_status = STATUS_OF_RANK[rank]
        if new_status != old_status and self.on_change is not None:
            self.on_change(node, new_status, incarnation)
        return True

    def _apply_updates(self, updates) -> None:
        for rank, node, incarnation in updates:
            self._apply_update(rank, node, incarnation)

    # ------------------------------------------------------------------
    # the probe cycle (driven by the host's period timer)
    # ------------------------------------------------------------------
    def on_period_tick(self) -> None:
        if self._stopped:
            return
        host = self.host
        now = host.clock()
        # Expired suspicions become confirmed deaths.
        for node, entry in list(self._known.items()):
            if entry[1] == RANK_SUSPECT and now >= entry[2]:
                self.confirms += 1
                self._apply_update(RANK_DEAD, node, entry[0])
        # Forget relays whose ack can no longer arrive.
        if self._proxied:
            horizon = now - 4.0 * self._suspicion_window
            stale = [seq for seq, (_, _, t) in self._proxied.items() if t < horizon]
            for seq in stale:
                del self._proxied[seq]
        targets = host.sampler.sample(host.node_id, 1)
        if not targets:
            return
        target = targets[0]
        self._seq += 1
        seq = self._seq
        self._pending[seq] = target
        self.probes_sent += 1
        host.send(
            target,
            Ping(seq=seq, incarnation=self.incarnation, updates=self.drain_updates(first=target)),
        )
        host.call_later(self._direct_wait, self._on_ping_timeout, seq)

    def _on_ping_timeout(self, seq: int) -> None:
        if self._stopped:
            return
        target = self._pending.get(seq)
        if target is None:
            return  # acked in time
        host = self.host
        proxies = [
            p
            for p in host.sampler.sample(host.node_id, self.params.proxies + 1)
            if p != target
        ][: self.params.proxies]
        if proxies:
            self.indirect_probes += 1
            host.send_many(
                proxies,
                PingReq(
                    seq=seq,
                    target=target,
                    incarnation=self.incarnation,
                    updates=self.drain_updates(),
                ),
            )
        host.call_later(self._relayed_wait, self._on_probe_failed, seq)

    def _on_probe_failed(self, seq: int) -> None:
        if self._stopped:
            return
        target = self._pending.pop(seq, None)
        if target is None:
            return  # a relayed ack landed during the indirect wait
        entry = self._known.get(target)
        incarnation = entry[0] if entry is not None else 0
        if self._apply_update(RANK_SUSPECT, target, incarnation):
            self.suspicions_raised += 1

    # ------------------------------------------------------------------
    # message handlers (wired into the host's dispatch table)
    # ------------------------------------------------------------------
    def on_ping(self, src: NodeId, message: Ping) -> None:
        if self._stopped:
            return
        self._apply_updates(message.updates)
        self._apply_update(RANK_ALIVE, src, message.incarnation)
        self.host.send(
            src,
            PingAck(
                seq=message.seq,
                target=self.host.node_id,
                incarnation=self.incarnation,
                updates=self.drain_updates(first=src),
            ),
        )

    def on_ping_req(self, src: NodeId, message: PingReq) -> None:
        if self._stopped:
            return
        self._apply_updates(message.updates)
        self._apply_update(RANK_ALIVE, src, message.incarnation)
        self._seq += 1
        relay_seq = self._seq
        self._proxied[relay_seq] = (src, message.seq, self.host.clock())
        self.host.send(
            message.target,
            Ping(
                seq=relay_seq,
                incarnation=self.incarnation,
                updates=self.drain_updates(first=message.target),
            ),
        )

    def on_ping_ack(self, src: NodeId, message: PingAck) -> None:
        if self._stopped:
            return
        self._apply_updates(message.updates)
        # An ack at incarnation i cannot clear suspicion at i (only a
        # refutation bump can) but it does refresh plain aliveness.
        self._apply_update(RANK_ALIVE, message.target, message.incarnation)
        if self._pending.pop(message.seq, None) is not None:
            return
        relay = self._proxied.pop(message.seq, None)
        if relay is not None:
            origin, origin_seq, _ = relay
            self.host.send(
                origin,
                PingAck(
                    seq=origin_seq,
                    target=message.target,
                    incarnation=message.incarnation,
                    updates=(),
                ),
            )

    def on_membership_update(self, src: NodeId, message: MembershipUpdate) -> None:
        if self._stopped:
            return
        self._apply_updates(message.updates)


class ChurnMonitor:
    """Plane-agnostic churn bookkeeping for a whole cluster.

    Fed by the cluster-level membership-event handler (see
    :func:`apply_membership_event`) and by the fault driver; turns raw
    transitions into the two convergence metrics the ``churn`` scenario
    reports: *detection delay* (crash → first confirmed-dead verdict)
    and *recovery delay* (restart → suspicion cleared / readmitted).
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.crashes = 0
        self.restarts = 0
        self.leaves = 0
        self.rejoins = 0
        self.rejoins_refused = 0
        self.suspicions = 0
        self.refutations = 0
        self.confirmed_dead = 0
        self.readmissions = 0
        self.detection_delays: List[float] = []
        self.recovery_delays: List[float] = []
        self._crash_at: Dict[NodeId, float] = {}
        self._restart_at: Dict[NodeId, float] = {}

    # --- fault-driver side ---------------------------------------------
    def on_crashed(self, node: NodeId) -> None:
        self.crashes += 1
        self._crash_at[node] = self.clock()

    def on_restarted(self, node: NodeId) -> None:
        self.restarts += 1
        self._restart_at[node] = self.clock()

    def on_left(self, node: NodeId) -> None:
        self.leaves += 1

    def on_rejoined(self, node: NodeId) -> None:
        self.rejoins += 1

    def on_rejoin_refused(self, node: NodeId) -> None:
        self.rejoins_refused += 1

    # --- detector side --------------------------------------------------
    def on_suspected(self, node: NodeId) -> None:
        self.suspicions += 1

    def on_refuted(self, node: NodeId) -> None:
        self.refutations += 1
        restarted = self._restart_at.pop(node, None)
        if restarted is not None:
            self.recovery_delays.append(self.clock() - restarted)

    def on_confirmed_dead(self, node: NodeId) -> None:
        self.confirmed_dead += 1
        crashed = self._crash_at.pop(node, None)
        if crashed is not None:
            self.detection_delays.append(self.clock() - crashed)

    def on_readmitted(self, node: NodeId) -> None:
        self.readmissions += 1
        restarted = self._restart_at.pop(node, None)
        if restarted is not None:
            self.recovery_delays.append(self.clock() - restarted)

    def summary(self) -> Dict[str, object]:
        detection = self.detection_delays
        recovery = self.recovery_delays
        return {
            "crashes": self.crashes,
            "restarts": self.restarts,
            "leaves": self.leaves,
            "rejoins": self.rejoins,
            "rejoins_refused": self.rejoins_refused,
            "suspicions": self.suspicions,
            "refutations": self.refutations,
            "confirmed_dead": self.confirmed_dead,
            "readmissions": self.readmissions,
            "mean_detection_delay": (sum(detection) / len(detection)) if detection else None,
            "max_detection_delay": max(detection) if detection else None,
            "mean_recovery_delay": (sum(recovery) / len(recovery)) if recovery else None,
            "max_recovery_delay": max(recovery) if recovery else None,
        }


def apply_membership_event(
    membership,
    monitor: Optional[ChurnMonitor],
    reporter: NodeId,
    node: NodeId,
    status: str,
    incarnation: int,
    audit_log=None,
) -> Optional[str]:
    """Fold one node-local detector transition into the cluster's shared
    membership directory (both planes route their ``on_membership_event``
    callbacks here).

    Many nodes report the same transition as the update disseminates;
    the shared directory's current state dedupes them, so the monitor
    counts *cluster-level* transitions, not per-node echoes.  Returns
    the applied transition name, or None for an echo.
    """
    if status != STATUS_ALIVE and incarnation < membership.incarnation_of(node):
        # A straggler verdict about a previous incarnation (e.g. a slow
        # detector confirming dead a node that already refuted or was
        # readmitted under a bumped incarnation) must not re-kill it.
        return None
    current = membership.status_of(node)
    applied = None
    if status == STATUS_SUSPECT:
        if membership.mark_suspect(node):
            applied = "suspect"
            if monitor is not None:
                monitor.on_suspected(node)
    elif status == STATUS_ALIVE:
        membership.note_incarnation(node, incarnation)
        if membership.clear_suspect(node):
            applied = "refute"
            if monitor is not None:
                monitor.on_refuted(node)
        elif current in (STATUS_DEAD, STATUS_LEFT):
            if membership.readmit(node, incarnation):
                applied = "readmit"
                if monitor is not None:
                    monitor.on_readmitted(node)
    elif status == STATUS_DEAD:
        if membership.mark_dead(node):
            applied = "confirm_dead"
            if monitor is not None:
                monitor.on_confirmed_dead(node)
    elif status == STATUS_LEFT:
        if membership.mark_left(node):
            applied = "leave"
            if monitor is not None:
                monitor.on_left(node)
    if applied is not None and audit_log is not None:
        audit_log.append(
            "membership",
            transition=applied,
            node=node,
            reporter=reporter,
            incarnation=incarnation,
        )
    return applied
