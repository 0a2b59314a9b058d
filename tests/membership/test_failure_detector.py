"""Deterministic unit tests for the SWIM detector state machine.

A :class:`FakeHost` replaces the transport/sampler/timer surface so each
probe round can be stepped by hand: ``tick()`` runs one period,
``advance(dt)`` fires due timers, and every outbound message lands in
``host.sent`` for inspection.
"""

import pytest

from repro.membership.base import (
    STATUS_ALIVE,
    STATUS_DEAD,
    STATUS_LEFT,
    STATUS_SUSPECT,
)
from repro.membership.failure_detector import (
    ChurnMonitor,
    FailureDetectorParams,
    MAX_PIGGYBACK,
    RANK_ALIVE,
    RANK_DEAD,
    RANK_LEFT,
    RANK_SUSPECT,
    RETRANSMIT,
    SwimFailureDetector,
    apply_membership_event,
)
from repro.membership.full import FullMembership
from repro.wire import MembershipUpdate, Ping, PingAck, PingReq


class FakeGossip:
    def __init__(self, period, fanout):
        self.gossip_period = period
        self.fanout = fanout


class FakeSampler:
    """Returns peers in a fixed order — probes are fully predictable."""

    def __init__(self, peers):
        self.peers = list(peers)

    def sample(self, caller, count):
        return [p for p in self.peers if p != caller][:count]


class FakeHost:
    def __init__(self, node_id, peers, period=1.0):
        self.node_id = node_id
        self.gossip = FakeGossip(period, fanout=3)
        self.sampler = FakeSampler(peers)
        self.sent = []
        self.now = 0.0
        self._timers = []
        self._timer_seq = 0

    def clock(self):
        return self.now

    def send(self, dst, message):
        self.sent.append((dst, message))

    def send_many(self, dsts, message):
        for dst in dsts:
            self.send(dst, message)

    def call_later(self, delay, fn, *args):
        self._timer_seq += 1
        self._timers.append((self.now + delay, self._timer_seq, fn, args))

    def advance(self, dt):
        deadline = self.now + dt
        while True:
            due = [t for t in self._timers if t[0] <= deadline]
            if not due:
                break
            due.sort()
            when, _, fn, args = due[0]
            self._timers.remove(due[0])
            self.now = when
            fn(*args)
        self.now = deadline

    def sent_of(self, cls):
        return [(dst, m) for dst, m in self.sent if isinstance(m, cls)]


@pytest.fixture
def detector():
    """Detector on node 0, peers 1..4, with a change-event recorder."""
    host = FakeHost(0, [1, 2, 3, 4])
    events = []
    det = SwimFailureDetector(
        host,
        FailureDetectorParams(proxies=2, suspicion_periods=4.0),
        on_change=lambda node, status, inc: events.append((node, status, inc)),
    )
    det.start()
    host.events = events  # the detector itself is __slots__-ed
    return det


class TestProbeCycle:
    def test_tick_pings_sampled_peer(self, detector):
        detector.on_period_tick()
        pings = detector.host.sent_of(Ping)
        assert [dst for dst, _ in pings] == [1]
        assert detector.probes_sent == 1

    def test_timeout_falls_back_to_proxies_then_suspects(self, detector):
        host = detector.host
        detector.on_period_tick()
        host.advance(0.4)  # past PING_TIMEOUT=0.35
        reqs = host.sent_of(PingReq)
        assert [dst for dst, _ in reqs] == [2, 3]  # k=2 proxies, target excluded
        assert all(m.target == 1 for _, m in reqs)
        host.advance(0.6)  # past INDIRECT_TIMEOUT=0.5
        assert detector.status_of(1) == STATUS_SUSPECT
        assert detector.suspicions_raised == 1
        assert (1, STATUS_SUSPECT, 0) in detector.host.events

    def test_direct_ack_cancels_probe(self, detector):
        host = detector.host
        detector.on_period_tick()
        seq = host.sent_of(Ping)[0][1].seq
        detector.on_ping_ack(1, PingAck(seq=seq, target=1, incarnation=0, updates=()))
        host.advance(2.0)
        assert detector.status_of(1) == STATUS_ALIVE
        assert not host.sent_of(PingReq)

    def test_relayed_ack_cancels_probe(self, detector):
        host = detector.host
        detector.on_period_tick()
        seq = host.sent_of(Ping)[0][1].seq
        host.advance(0.4)
        assert host.sent_of(PingReq)  # indirect round started
        # A proxy's relayed ack carries our original seq back.
        detector.on_ping_ack(2, PingAck(seq=seq, target=1, incarnation=0, updates=()))
        host.advance(2.0)
        assert detector.status_of(1) == STATUS_ALIVE
        assert detector.suspicions_raised == 0

    def test_unrefuted_suspicion_confirms_dead(self, detector):
        host = detector.host
        detector.on_membership_update(9, MembershipUpdate(updates=((RANK_SUSPECT, 1, 0),)))
        assert detector.status_of(1) == STATUS_SUSPECT
        host.advance(4.5)  # past suspicion window = 4 periods
        detector.on_period_tick()
        assert detector.status_of(1) == STATUS_DEAD
        assert detector.confirms == 1
        assert (1, STATUS_DEAD, 0) in detector.host.events


class TestUpdatePrecedence:
    def test_incarnation_bump_refutes_suspicion(self, detector):
        detector._apply_update(RANK_SUSPECT, 1, 0)
        assert detector.status_of(1) == STATUS_SUSPECT
        detector._apply_update(RANK_ALIVE, 1, 1)  # the refutation
        assert detector.status_of(1) == STATUS_ALIVE
        assert (1, STATUS_ALIVE, 1) in detector.host.events

    def test_alive_cannot_clear_same_incarnation_suspicion(self, detector):
        detector._apply_update(RANK_SUSPECT, 1, 0)
        assert not detector._apply_update(RANK_ALIVE, 1, 0)
        assert detector.status_of(1) == STATUS_SUSPECT

    def test_stale_updates_rejected(self, detector):
        detector._apply_update(RANK_ALIVE, 1, 2)
        assert not detector._apply_update(RANK_SUSPECT, 1, 1)
        assert detector.status_of(1) == STATUS_ALIVE

    def test_dead_beats_suspect_within_incarnation(self, detector):
        detector._apply_update(RANK_SUSPECT, 1, 0)
        assert detector._apply_update(RANK_DEAD, 1, 0)
        assert not detector._apply_update(RANK_SUSPECT, 1, 0)
        assert detector.status_of(1) == STATUS_DEAD

    def test_self_suspicion_triggers_refutation(self, detector):
        detector.on_membership_update(3, MembershipUpdate(updates=((RANK_SUSPECT, 0, 0),)))
        assert detector.incarnation == 1
        assert detector.refutations_sent == 1
        # The refutation rides the outbox as alive@1.
        assert (RANK_ALIVE, 0, 1) in detector.drain_updates()

    def test_restart_bumps_incarnation(self, detector):
        detector.stop()
        detector.start()
        assert detector.incarnation == 1
        assert (RANK_ALIVE, 0, 1) in detector.drain_updates()


class TestDissemination:
    def test_drain_respects_budget_and_freshness(self, detector):
        for node in range(10, 30):
            detector._enqueue(RANK_ALIVE, node, 1)
        out = detector.drain_updates()
        assert len(out) == MAX_PIGGYBACK
        # Freshest (last enqueued) first.
        assert out[0][1] == 29

    def test_drain_prepends_suspicion_of_target(self, detector):
        for node in range(10, 30):
            detector._enqueue(RANK_ALIVE, node, 1)
        detector._apply_update(RANK_SUSPECT, 5, 0)
        out = detector.drain_updates(first=5)
        assert out[0] == (RANK_SUSPECT, 5, 0)
        assert len(out) <= MAX_PIGGYBACK + 1
        # No duplicate of the prepended entry.
        assert sum(1 for u in out if u[1] == 5) == 1

    def test_retransmit_budget_expires_updates(self, detector):
        detector._enqueue(RANK_DEAD, 7, 0)
        for _ in range(RETRANSMIT):
            assert (RANK_DEAD, 7, 0) in detector.drain_updates()
        assert (RANK_DEAD, 7, 0) not in detector.drain_updates()

    def test_ping_is_acked_with_piggyback(self, detector):
        detector.on_ping(2, Ping(seq=41, incarnation=0, updates=()))
        acks = detector.host.sent_of(PingAck)
        assert len(acks) == 1
        dst, ack = acks[0]
        assert dst == 2 and ack.seq == 41 and ack.target == 0

    def test_ping_req_relays_and_forwards_ack(self, detector):
        host = detector.host
        detector.on_ping_req(3, PingReq(seq=17, target=1, incarnation=0, updates=()))
        relays = host.sent_of(Ping)
        assert [dst for dst, _ in relays] == [1]
        relay_seq = relays[0][1].seq
        detector.on_ping_ack(1, PingAck(seq=relay_seq, target=1, incarnation=0, updates=()))
        forwarded = [(dst, m) for dst, m in host.sent_of(PingAck) if dst == 3]
        assert len(forwarded) == 1
        assert forwarded[0][1].seq == 17  # origin's seq restored
        assert forwarded[0][1].target == 1

    def test_graceful_leave_is_announced_and_evicts_without_suspicion(self, detector):
        detector.announce_leave()
        farewell = (RANK_LEFT, 0, detector.incarnation)
        assert detector.host.sent_of(MembershipUpdate) == [
            (peer, MembershipUpdate(updates=(farewell,))) for peer in (1, 2, 3)
        ]
        # ...and at a peer: word that node 3 left evicts it at once (no
        # refutation will follow), and a later suspicion cannot undo it.
        detector.on_membership_update(3, MembershipUpdate(updates=((RANK_LEFT, 3, 0),)))
        detector.on_membership_update(2, MembershipUpdate(updates=((RANK_SUSPECT, 3, 0),)))
        assert detector.host.events == [(3, STATUS_LEFT, 0)]
        assert detector.status_of(3) == STATUS_LEFT
        assert detector.suspicions_raised == 0

    def test_stopped_detector_ignores_everything(self, detector):
        detector.stop()
        detector.on_period_tick()
        detector.on_ping(2, Ping(seq=1, incarnation=0, updates=()))
        assert not detector.host.sent


class TestApplyMembershipEvent:
    @pytest.fixture
    def cluster(self, rng):
        membership = FullMembership(rng, range(6))
        monitor = ChurnMonitor(clock=lambda: 0.0)
        return membership, monitor

    def test_echoes_dedupe(self, cluster):
        membership, monitor = cluster
        a = apply_membership_event(membership, monitor, 1, 3, STATUS_SUSPECT, 0)
        b = apply_membership_event(membership, monitor, 2, 3, STATUS_SUSPECT, 0)
        assert a == "suspect" and b is None
        assert monitor.suspicions == 1

    def test_refute_then_confirm_cycle(self, cluster):
        membership, monitor = cluster
        apply_membership_event(membership, monitor, 1, 3, STATUS_SUSPECT, 0)
        assert apply_membership_event(membership, monitor, 1, 3, STATUS_ALIVE, 1) == "refute"
        assert monitor.refutations == 1
        assert membership.status_of(3) == STATUS_ALIVE

    def test_confirm_dead_then_readmit(self, cluster):
        membership, monitor = cluster
        assert apply_membership_event(membership, monitor, 1, 3, STATUS_DEAD, 0) == "confirm_dead"
        assert not membership.contains(3)
        assert apply_membership_event(membership, monitor, 1, 3, STATUS_ALIVE, 1) == "readmit"
        assert membership.contains(3)
        assert monitor.confirmed_dead == 1 and monitor.readmissions == 1

    def test_departure_is_counted_once_however_many_peers_report_it(self, cluster):
        membership, monitor = cluster
        assert apply_membership_event(membership, monitor, 1, 3, STATUS_LEFT, 0) == "leave"
        assert apply_membership_event(membership, monitor, 2, 3, STATUS_LEFT, 0) is None
        assert not membership.contains(3)
        assert (monitor.leaves, monitor.suspicions) == (1, 0)

    def test_stale_verdict_cannot_rekill(self, cluster):
        membership, monitor = cluster
        apply_membership_event(membership, monitor, 1, 3, STATUS_DEAD, 0)
        apply_membership_event(membership, monitor, 1, 3, STATUS_ALIVE, 1)
        # A straggler detector still confirming dead@0 must be dropped.
        assert apply_membership_event(membership, monitor, 2, 3, STATUS_DEAD, 0) is None
        assert membership.contains(3)

    def test_events_reach_audit_log(self, cluster):
        membership, monitor = cluster
        entries = []

        class Log:
            def append(self, kind, **fields):
                entries.append((kind, fields))

        apply_membership_event(membership, monitor, 1, 3, STATUS_SUSPECT, 0, audit_log=Log())
        assert entries == [
            ("membership", {"transition": "suspect", "node": 3, "reporter": 1, "incarnation": 0})
        ]


class TestChurnMonitor:
    def test_delay_metrics(self):
        now = [0.0]
        monitor = ChurnMonitor(clock=lambda: now[0])
        monitor.on_crashed(5)
        now[0] = 3.0
        monitor.on_confirmed_dead(5)
        monitor.on_restarted(6)
        now[0] = 3.5
        monitor.on_refuted(6)
        summary = monitor.summary()
        assert summary["mean_detection_delay"] == 3.0
        assert summary["mean_recovery_delay"] == 0.5
        assert summary["crashes"] == 1 and summary["restarts"] == 1
