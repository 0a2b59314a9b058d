"""The calendar-queue delivery tier: unit behaviour and heap equivalence.

The contract under test: with a :class:`DeliveryTimeline` attached, the
engine fires events in *exactly* the order the single binary heap would
have — ``(time, seq)`` ascending across both tiers — including under
re-entrant scheduling from delivery handlers, zero-latency models (same
bucket), sparse gaps (cursor rewind) and past-horizon outliers (heap
fallback).  The calendar carries two kinds of entry — deliveries and
``Simulator.call_later`` calls — and the contract holds for both.
"""

import numpy as np
import pytest

from repro.sim.engine import DEFERRED, DeliveryTimeline, Simulator
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.loss import BernoulliLoss, NoLoss
from repro.sim.network import Network, Transport


class TestDeliveryTimelineUnit:
    def make(self, width=0.1, ring_size=8):
        return DeliveryTimeline(width, ring_size=ring_size)

    def test_entries_fire_in_time_seq_order_across_buckets(self):
        tl = self.make()
        entries = [
            (0.35, 3, 0, 0, "c"),
            (0.05, 1, 0, 0, "a"),
            (0.35, 2, 0, 0, "b"),
            (0.61, 4, 0, 0, "d"),
        ]
        for e in entries:
            assert tl.add(e, 0)
        assert len(tl) == 4
        fired = []
        while tl.advance():
            fired.append(tl.cur[tl.cur_pos][4])
            tl.cur_pos += 1
            tl.count -= 1
        assert fired == ["a", "b", "c", "d"]
        assert len(tl) == 0

    def test_same_bucket_insert_during_drain_lands_after_cursor(self):
        tl = self.make(width=1.0)
        tl.add((0.1, 1, 0, 0, "a"), 0)
        tl.add((0.5, 2, 0, 0, "c"), 0)
        assert tl.advance()
        assert tl.cur[tl.cur_pos][4] == "a"
        tl.cur_pos += 1
        tl.count -= 1
        # Re-entrant: an event fired at 0.1 schedules a same-bucket
        # delivery at 0.3 — it must sort in before "c".
        tl.add((0.3, 3, 0, 0, "b"), 0)
        order = []
        while tl.advance():
            order.append(tl.cur[tl.cur_pos][4])
            tl.cur_pos += 1
            tl.count -= 1
        assert order == ["b", "c"]

    def test_gap_bucket_rewind(self):
        tl = self.make(width=0.1)
        tl.add((0.55, 1, 0, 0, "late"), 0)
        assert tl.advance()  # cursor jumps to bucket 5 over empty gaps
        assert tl.cur_idx == 5
        # A timer callback inside the gap now schedules a delivery due
        # *before* the cursor's bucket: the cursor must rewind.
        assert tl.add((0.25, 2, 0, 0, "early"), 2)
        order = []
        while tl.advance():
            order.append(tl.cur[tl.cur_pos][4])
            tl.cur_pos += 1
            tl.count -= 1
        assert order == ["early", "late"]

    def test_past_horizon_rejected(self):
        tl = self.make(width=0.1, ring_size=8)
        assert tl.horizon == 7
        assert not tl.add((10.0, 1, 0, 0, "far"), 0)
        assert len(tl) == 0
        assert tl.add((0.65, 2, 0, 0, "near"), 0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(Exception):
            DeliveryTimeline(0.0)
        with pytest.raises(Exception):
            DeliveryTimeline(0.1, ring_size=48)  # not a power of two

    def test_simulator_accepts_single_timeline(self):
        sim = Simulator()
        tl = DeliveryTimeline(0.01)
        sim.attach_timeline(tl, lambda until, budget: 0)
        assert sim.timeline is tl
        with pytest.raises(Exception):
            sim.attach_timeline(DeliveryTimeline(0.01), lambda until, budget: 0)

    def test_second_network_on_same_sim_keeps_heap_path(self):
        sim = Simulator()
        first = Network(sim, latency=ConstantLatency(0.05), loss=NoLoss())
        second = Network(sim, latency=ConstantLatency(0.05), loss=NoLoss())
        assert first._timeline is not None
        assert second._timeline is None


#: Delays the scripted scenario defers calls by: the same instant (tie
#: broken by seq alone), inside the current bucket, a few buckets ahead,
#: and far enough to skip empty gaps.
_DEFER_DELAYS = (0.0, 0.0004, 0.021, 0.3)


def _scripted_run(use_timeline, latency, loss_seed=None, n=6, deferred=False):
    """One deterministic scripted scenario; returns the firing logs.

    Exercises re-entrant sends (each delivery triggers a further
    fan-out for a few hops), interleaved heap timers, TCP traffic and,
    with ``loss_seed``, datagram loss — everything the cluster hot path
    does, in miniature.  With ``deferred`` every delivery and every
    timer also files a ``call_later`` (which itself sends), the way the
    verification timeouts ride along with real traffic; all callbacks
    append to one log, so any reordering between the three kinds of
    event shows.
    """
    sim = Simulator()
    loss = NoLoss() if loss_seed is None else BernoulliLoss(np.random.default_rng(loss_seed), 0.1)
    net = Network(sim, latency=latency, loss=loss, use_timeline=use_timeline)
    log = []

    def deferred_call(origin, tag):
        log.append((sim.now, "deferred", origin, tag))
        if tag % 3 == 0:
            net.send(origin, (origin + 1) % n, (0, -tag))

    class Node:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_message(self, src, message):
            hops, payload = message
            log.append((sim.now, src, self.node_id, hops, payload))
            if deferred:
                tag = len(log)
                sim.call_later(_DEFER_DELAYS[tag % 4], deferred_call, self.node_id, tag)
            if hops > 0:
                for k in range(2):
                    net.send(self.node_id, (self.node_id + k + 1) % n, (hops - 1, payload))

    for i in range(n):
        net.register(Node(i))

    timer_log = []

    def timer(i):
        timer_log.append((sim.now, i))
        log.append((sim.now, "timer", i))
        if deferred:
            sim.call_later(_DEFER_DELAYS[i % 4], deferred_call, i % n, 1000 + i)

    for i in range(20):
        sim.schedule(0.013 * (i + 1), timer, i)
    for i in range(n):
        net.send(i, (i + 1) % n, (4, i))
        net.send(i, (i + 2) % n, (2, 100 + i), Transport.TCP)
    sim.run(until=2.5)
    return log, timer_log, sim.events_processed, sim._sequence


class TestHeapCalendarEquivalence:
    """Both schedulers must produce identical event firing orders."""

    @pytest.mark.parametrize(
        "latency_factory, loss_seed",
        [
            (lambda: UniformLatency(np.random.default_rng(5), 0.01, 0.08), None),
            (lambda: UniformLatency(np.random.default_rng(5), 0.01, 0.08), 9),
            (lambda: ConstantLatency(0.05), None),
            # Zero latency: every delivery lands in the *current* bucket
            # (the insort path) and ties are broken purely by seq.
            (lambda: ConstantLatency(0.0), None),
        ],
    )
    @pytest.mark.parametrize("deferred", [False, True], ids=["plain", "deferred"])
    def test_scripted_scenarios_fire_identically(self, latency_factory, loss_seed, deferred):
        a = _scripted_run(True, latency_factory(), loss_seed, deferred=deferred)
        b = _scripted_run(False, latency_factory(), loss_seed, deferred=deferred)
        assert a == b
        assert len(a[0]) > 50  # the scenario actually exercised traffic
        assert any(e[1] == "deferred" for e in a[0]) == deferred

    @pytest.mark.parametrize("deferred", [False, True], ids=["plain", "deferred"])
    def test_past_horizon_deliveries_merge_in_order(self, deferred):
        # A latency far beyond the ring horizon rides the heap tier but
        # must still interleave correctly with timeline deliveries.
        class TwoScale(ConstantLatency):
            def __init__(self):
                super().__init__(0.02)
                self._flip = 0

            def sample(self, src, dst):
                self._flip += 1
                return 0.02 if self._flip % 3 else 10.0

            def delivery_window(self):
                return (0.02, 0.0)

        a = _scripted_run(True, TwoScale(), deferred=deferred)
        b = _scripted_run(False, TwoScale(), deferred=deferred)
        assert a == b

    def test_step_merges_tiers(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.05), loss=NoLoss())
        order = []

        class N:
            def __init__(self, node_id):
                self.node_id = node_id

            def on_message(self, src, message):
                order.append(("msg", message))

        net.register(N(0))
        net.register(N(1))
        net.send(0, 1, "a")
        sim.schedule(0.02, lambda: order.append(("timer", "early")))
        sim.schedule(0.09, lambda: order.append(("timer", "late")))
        net.send(1, 0, "b")
        assert (sim.heap_size, len(sim.timeline)) == (2, 2)
        steps = 0
        while sim.pending_events:
            sim.run(max_events=1)
            steps += 1
        assert steps == 4
        assert order == [("timer", "early"), ("msg", "a"), ("msg", "b"), ("timer", "late")]

    def test_run_until_and_max_events_respected(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.05), loss=NoLoss())
        seen = []

        class N:
            def __init__(self, node_id):
                self.node_id = node_id

            def on_message(self, src, message):
                seen.append(message)

        net.register(N(0))
        net.register(N(1))
        for i in range(10):
            net.send(0, 1, i)
        sim.run(until=0.01)
        assert seen == [] and sim.now == 0.01  # nothing due yet
        sim.run(max_events=4)
        assert seen == [0, 1, 2, 3]
        assert sim.pending_events == 6
        sim.run(until=0.06)
        assert seen == list(range(10))
        assert sim.now == 0.06


class _Recorder:
    """Endpoint that appends every delivery to a shared log."""

    def __init__(self, node_id, log, on_delivery=None):
        self.node_id = node_id
        self._log = log
        self._on_delivery = on_delivery

    def on_message(self, src, message):
        self._log.append(("msg", message))
        if self._on_delivery is not None:
            self._on_delivery(message)


def _pair(log, latency=0.05, use_timeline=True, on_delivery=None):
    """Two recorders on a constant-latency network (bucket width = latency / 2)."""
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(latency), loss=NoLoss(), use_timeline=use_timeline)
    net.register(_Recorder(0, log))
    net.register(_Recorder(1, log, on_delivery))
    return sim, net


class TestDeferredCalls:
    """``Simulator.call_later`` entries on the calendar, branch by branch."""

    def note(self, log, tag):
        log.append(("deferred", tag))

    def test_rides_the_calendar_not_the_heap(self):
        log = []
        sim, _net = _pair(log)
        assert sim.call_later(0.1, self.note, log, "x") is None
        assert sim.heap_size == 0 and len(sim.timeline) == 1
        assert sim.pending_events == 1
        sim.run()
        assert log == [("deferred", "x")] and sim.now == 0.1
        assert sim.pending_events == 0 and len(sim.timeline) == 0

    def test_same_bucket_insert_during_drain(self):
        log = []
        buckets = []

        def on_delivery(message):
            if message == "a":  # t=0.05; the call is due inside the bucket being drained
                buckets.append(sim.timeline.cur_idx)
                sim.call_later(0.01, self.note, log, "between")

        sim, net = _pair(log, on_delivery=on_delivery)
        net.send(0, 1, "a")  # due 0.05
        sim.schedule(0.02, net.send, 0, 1, "b")  # due 0.07: same 25 ms bucket as "a"
        sim.run()
        assert buckets == [int(0.06 * sim.timeline.inv_width)]
        assert log == [("msg", "a"), ("deferred", "between"), ("msg", "b")]

    def test_gap_bucket_rewind(self):
        log = []
        cursor = []
        sim, net = _pair(log)

        def in_the_gap():
            # The cursor already sits on the bucket of "late" (0.55);
            # this call is due in a bucket it skipped over.
            cursor.append(sim.timeline.cur_idx)
            sim.call_later(0.005, self.note, log, "early")
            cursor.append(sim.timeline.cur_idx)

        sim.schedule(0.5, net.send, 0, 1, "late")
        sim.schedule(0.52, in_the_gap)
        sim.run()
        late_idx = int(0.55 * sim.timeline.inv_width)
        assert cursor == [late_idx, int(0.525 * sim.timeline.inv_width) - 1]
        assert log == [("deferred", "early"), ("msg", "late")]

    def test_past_horizon_falls_back_to_the_heap(self):
        log = []
        sim, net = _pair(log, latency=0.002)  # 1 ms buckets: the ring spans 0.511 s
        sim.call_later(0.5, self.note, log, "near")
        assert (sim.heap_size, len(sim.timeline)) == (0, 1)
        sim.call_later(1.0, self.note, log, "far")
        assert (sim.heap_size, len(sim.timeline)) == (1, 1)
        assert sim.pending_events == 2
        sim.schedule(0.9985, net.send, 0, 1, "after")  # due 1.0005, sent before "far" fires
        sim.run()
        assert log == [("deferred", "near"), ("deferred", "far"), ("msg", "after")]

    def test_counts_as_one_event_for_until_max_events_and_step(self):
        log = []
        sim, net = _pair(log)
        for i, delay in enumerate((0.01, 0.02, 0.03)):
            sim.call_later(delay, self.note, log, i)
        net.send(0, 1, "m")  # due 0.05
        assert sim.pending_events == 4
        sim.run(until=0.015)
        assert log == [("deferred", 0)] and sim.now == 0.015
        assert (sim.events_processed, sim.pending_events) == (1, 3)
        sim.run(max_events=1)
        assert log[-1] == ("deferred", 1) and sim.now == 0.02
        assert (sim.events_processed, sim.pending_events) == (2, 2)
        sim.run(max_events=1)
        assert log[-1] == ("deferred", 2)
        assert (sim.events_processed, sim.pending_events) == (3, 1)
        sim.run(max_events=1)
        assert log[-1] == ("msg", "m")
        sim.run(max_events=1)
        assert (sim.events_processed, sim.pending_events, len(sim.timeline)) == (4, 0, 0)

    def test_same_instant_run_fires_per_message_in_seq_order(self):
        log = []
        sim, net = _pair(log)
        # All due at t=0.05 for one destination, in seq order:
        # m1 m2 [call] m3 m4 — each entry is one event.
        net.send(0, 1, "m1")
        net.send(0, 1, "m2")
        sim.call_later(0.05, self.note, log, "timeout")
        net.send(0, 1, "m3")
        net.send(0, 1, "m4")
        sim.run()
        assert log == [
            ("msg", "m1"),
            ("msg", "m2"),
            ("deferred", "timeout"),
            ("msg", "m3"),
            ("msg", "m4"),
        ]
        assert sim.events_processed == 5

    @pytest.mark.parametrize("use_timeline", [True, False])
    def test_any_payload_type_is_still_a_message(self, use_timeline):
        # The drain tells calls from deliveries by the DEFERRED mark in
        # the dst slot, never by looking at the payload.
        log = []
        sim, net = _pair(log, use_timeline=use_timeline)
        payloads = [None, 7, (len, ("x",)), DEFERRED, ()]
        for payload in payloads:
            net.send(0, 1, payload)
        sim.run()
        assert log == [("msg", payload) for payload in payloads]

    @pytest.mark.parametrize("use_timeline", [True, False])
    def test_reconnect_purge_leaves_deferred_calls_pending(self, use_timeline):
        log = []
        sim, net = _pair(log, use_timeline=use_timeline)
        net.send(0, 0, "other-node")  # due 0.05, nothing to do with the restarting node
        sim.schedule(0.01, net.send, 0, 1, "x")  # due 0.06
        sim.schedule(0.04, net.send, 0, 1, "y")  # due 0.09
        sim.call_later(0.045, net.disconnect, 1)
        # On the calendar this fires while the bucket [0.05, 0.075) is
        # being drained: "x" is purged from behind the cursor, "y" from
        # the ring, and the two calls filed beside them stay.
        sim.call_later(0.051, net.reconnect, 1)
        sim.call_later(0.061, self.note, log, "same-bucket")
        sim.call_later(0.1, self.note, log, "ring")
        sim.run()
        assert log == [
            ("msg", "other-node"),
            ("deferred", "same-bucket"),
            ("deferred", "ring"),
        ]
        assert sum(net.trace._lost.values()) == 2
        assert sim.pending_events == 0


class _SetDelay(ConstantLatency):
    """Latency the test sets per send; 1 ms buckets, so the ring spans
    0.511 s and anything slower rides the heap tier."""

    def sample(self, src, dst):
        return self.delay

    def delivery_window(self):
        return (0.002, 0.0)


class TestReconnectPurgeOnTheHeapTier:
    """``_purge_in_flight``'s heap half filters and re-heapifies the
    list a ``run`` in progress aliases."""

    @pytest.mark.parametrize("use_timeline", [True, False])
    def test_purge_from_a_handler_mid_run(self, use_timeline):
        log = []
        sim = Simulator()
        latency = _SetDelay(0.02)
        net = Network(sim, latency=latency, loss=NoLoss(), use_timeline=use_timeline)

        def send(dst, payload, delay):
            latency.delay = delay
            net.send(0, dst, payload)

        def restart(message):
            if message == "restart":  # a delivery handler, inside run()
                net.reconnect(1)
                send(1, "fresh", 0.02)

        net.register(_Recorder(0, log))
        net.register(_Recorder(1, log))
        net.register(_Recorder(2, log, restart))
        # Every delay is past the ring horizon: heap entries either way.
        delays = {k: 0.7 + ((k * 7) % 40) * 0.0125 for k in range(40)}
        for k, delay in delays.items():
            send(1 if k % 4 == 0 else 0, k, delay)
        send(2, "restart", 0.6)
        sim.call_later(0.8, log.append, ("deferred", "call"))
        sim.schedule(0.9, log.append, ("tick", "entry"))
        sim.schedule(0.1, net.disconnect, 1)
        assert sim.heap_size == 44
        sim.run()
        survivors = sorted((delay, k) for k, delay in delays.items() if k % 4)
        expected = [(0.6, ("msg", "restart")), (0.62, ("msg", "fresh"))]
        expected += [(delay, ("msg", k)) for delay, k in survivors]
        expected += [(0.8, ("deferred", "call")), (0.9, ("tick", "entry"))]
        assert log == [event for _time, event in sorted(expected, key=lambda pair: pair[0])]
        assert sum(net.trace._lost.values()) == 10  # each purged delivery, once
        assert (sim.events_processed, sim.pending_events, sim.heap_size) == (35, 0, 0)
