"""Tests for the discrete-event engine."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.network import Network

#: the two containers of the event spine: the bare heap, and the heap
#: with a network's calendar attached (``call_later`` then files there,
#: ``schedule`` stays on the heap and ``run`` merges the two).
SCHEDULERS = ("heap", "calendar")


def make_sim(scheduler):
    sim = Simulator()
    if scheduler == "calendar":
        Network(sim)
        assert sim.timeline is not None
    return sim


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.call_later(2.0, lambda: order.append("b"))
        sim.call_later(1.0, lambda: order.append("a"))
        sim.call_later(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.call_later(4.5, lambda: None)
        sim.run()
        assert sim.now == 4.5

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule(9.0, lambda: None)

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-1.0, lambda: None)

    def test_rejects_infinite_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("inf"), lambda: None)

    def test_events_scheduled_during_execution_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_later(1.0, lambda: order.append("nested"))

        sim.call_later(1.0, first)
        sim.run()
        assert order == ["first", "nested"]
        assert sim.now == 2.0


class TestCancellation:
    """``unschedule`` takes a ``schedule`` entry back, eagerly."""

    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        fired = []
        entry = sim.schedule(1.0, fired.append, 1)
        assert sim.unschedule(entry)
        assert sim.heap_size == 0
        sim.run()
        assert fired == []
        assert not sim.unschedule(entry)  # a second time: nothing to take back

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        entry = sim.schedule(1.0, lambda: None)
        keeper = sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        assert not sim.unschedule(entry)
        assert sim.pending_events == 1 and sim.unschedule(keeper)

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.unschedule(first)
        assert sim.pending_events == 1


class TestRunUntil:
    def test_stops_at_until(self):
        sim = Simulator()
        fired = []
        sim.call_later(1.0, lambda: fired.append(1))
        sim.call_later(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.call_later(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert fired == [5]

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.call_later(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_first_at_override(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now), first_at=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        timer = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_from_inside_callback(self):
        sim = Simulator()
        ticks = []
        timer = None

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                timer.stop()

        timer = sim.call_every(1.0, tick)
        sim.run(until=100.0)
        assert len(ticks) == 3

    def test_stop_inside_own_callback_and_twice_is_a_no_op(self):
        # Inside its own tick the timer's entry is already popped: stop
        # must not take anything else off the heap, then or later.
        sim = Simulator()
        ticks, others = [], []

        def tick():
            ticks.append(sim.now)
            timer.stop()
            timer.stop()

        timer = sim.call_every(1.0, tick)
        sim.schedule(1.0, others.append, "same instant")
        sim.schedule(5.0, others.append, "later")
        sim.run(until=1.0)
        assert ticks == [1.0] and sim.heap_size == 1
        timer.stop()
        sim.run()
        assert ticks == [1.0] and others == ["same instant", "later"]
        assert (sim.events_processed, sim.pending_events) == (3, 0)

    def test_jitter_applied(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now), jitter=lambda: 0.1)
        sim.run(until=3.5)
        assert ticks == pytest.approx([1.0, 2.1, 3.2])

    def test_non_positive_jittered_delay_falls_back(self):
        sim = Simulator()
        ticks = []
        sim.call_every(1.0, lambda: ticks.append(sim.now), jitter=lambda: -5.0)
        sim.run(until=3.5)
        assert len(ticks) == 3  # falls back to the nominal interval


class TestDeterminism:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_event_order_is_reproducible(self, delays):
        def run():
            sim = Simulator()
            order = []
            for i, delay in enumerate(delays):
                sim.call_later(delay, lambda i=i: order.append(i))
            sim.run()
            return order

        assert run() == run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.call_later(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestHotPathScheduling:
    def test_schedule_passes_args_inline(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda a, b: seen.append((a, b)), "x", 7)
        sim.run()
        assert seen == [("x", 7)]

    def test_schedule_rejects_past_and_nonfinite_times(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule(4.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)

    def test_call_later_args(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, seen.append, 42)
        sim.run()
        assert seen == [42]


class TestDeferWithoutCalendar:
    """``call_later`` on a heap-only simulator: the same deferred call,
    filed on the heap (the calendar side is in ``test_timeline.py``)."""

    def test_fires_with_args_and_returns_no_handle(self):
        sim = Simulator()
        seen = []
        assert sim.call_later(1.5, lambda a, b: seen.append((sim.now, a, b)), "x", 7) is None
        assert sim.heap_size == 1 and sim.pending_events == 1
        sim.run()
        assert seen == [(1.5, "x", 7)]
        assert sim.events_processed == 1 and sim.pending_events == 0

    def test_ties_with_other_primitives_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.call_later(1.0, order.append, 0)
        sim.schedule(1.0, order.append, 1)
        sim.call_later(1.0, order.append, 2)
        sim.schedule(1.0, order.append, 3)
        sim.call_later(0.0, order.append, "now")
        sim.run()
        assert order == ["now", 0, 1, 2, 3]

    def test_until_max_events_and_step_count_it_as_one_event(self):
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.call_later(1.0 + i, fired.append, i)
        sim.run(until=1.5)
        assert fired == [0] and sim.now == 1.5
        sim.run(max_events=1)
        assert fired == [0, 1]
        sim.run(max_events=1)
        assert fired == [0, 1, 2]
        assert (sim.events_processed, sim.pending_events) == (3, 1)

    @pytest.mark.parametrize("delay", [-0.1, float("inf"), float("nan")])
    def test_rejects_negative_and_nonfinite_delays(self, delay):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(delay, lambda: None)
        assert sim.pending_events == 0 and sim.heap_size == 0


class TestMaxEventsCountsFiredOnly:
    """An entry taken back is gone: it neither fires nor consumes the
    ``max_events`` budget, and the counters stay exact."""

    def test_cancelled_timers_do_not_consume_budget(self):
        sim = Simulator()
        fired = []
        entries = [
            sim.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(20)
        ]
        for entry in entries[:10]:
            sim.unschedule(entry)
        sim.run(max_events=5)
        assert fired == [10, 11, 12, 13, 14]
        assert sim.events_processed == 5

    def test_events_processed_matches_fired_with_mid_run_cancels(self):
        sim = Simulator()
        fired = []
        later = [
            sim.schedule(float(10 + i), lambda i=i: fired.append(i)) for i in range(10)
        ]

        def cancel_half():
            fired.append("c")
            for entry in later[::2]:
                assert sim.unschedule(entry)

        sim.schedule(1.0, cancel_half)
        sim.run(max_events=4)
        # one cancel event + three surviving odd-indexed entries
        assert fired == ["c", 1, 3, 5]
        assert (sim.events_processed, sim.pending_events, sim.heap_size) == (4, 2, 2)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestUnscheduleMidRun:
    """Taking entries back from inside another callback re-heapifies
    the list the run loop (and, with a calendar, the drain) aliases."""

    def test_same_instant_ties_keep_time_seq_order_and_counts_stay_exact(self, scheduler):
        sim = make_sim(scheduler)
        order = []
        entries = [sim.schedule(2.0, order.append, i) for i in range(60)]
        tail = sim.schedule(3.0, order.append, "tail")

        def take_back():
            order.append("take")
            for entry in entries[::3] + [tail]:
                assert sim.unschedule(entry)
            sim.schedule(2.0, order.append, "filed after")
            sim.call_later(1.0, order.append, "call")  # same instant, later seq

        sim.call_later(0.5, order.append, "early call")
        sim.schedule(1.0, take_back)
        sim.run()
        survivors = [i for i in range(60) if i % 3]
        assert order == ["early call", "take"] + survivors + ["filed after", "call"]
        assert (sim.events_processed, sim.pending_events, sim.heap_size) == (44, 0, 0)
        assert not any(sim.unschedule(entry) for entry in entries + [tail])


class TestCancellationHeavyWorkloads:
    def test_pending_events_stays_accurate_through_fire_cancel_cycles(self):
        sim = Simulator()
        fired = []
        for round_no in range(20):
            entries = [
                sim.schedule(sim.now + 0.5 + i * 0.01, lambda i=i: fired.append(i))
                for i in range(100)
            ]
            for entry in entries[::2]:
                sim.unschedule(entry)
            assert sim.pending_events == 50
            sim.run()
            assert sim.pending_events == 0
        assert len(fired) == 20 * 50

    def test_periodic_timer_stop_releases_entry(self):
        sim = Simulator()
        ticks = []
        seen = {}
        timer = sim.call_every(1.0, lambda: ticks.append(sim.now))

        def stop():
            timer.stop()
            seen["heap"] = sim.heap_size  # the tick due at 4.0 is gone at once

        sim.schedule(3.5, stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert seen == {"heap": 0} and sim.pending_events == 0


def file(sim, primitive, delay, callback, *args):
    """File one event ``delay`` from now through the named primitive."""
    if primitive == "schedule":
        sim.schedule(sim.now + delay, callback, *args)
    else:
        sim.call_later(delay, callback, *args)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestClockOnlyAdvances:
    """``run(until=t)`` with ``t`` already passed fires nothing and
    leaves the clock alone — whichever container holds the next event
    (each is its own early stop in the loop)."""

    @pytest.mark.parametrize("queued", ["call_later", "schedule", "nothing"])
    def test_until_in_the_past_does_not_rewind(self, scheduler, queued):
        sim = make_sim(scheduler)
        fired = []
        if queued != "nothing":
            file(sim, queued, 10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run(until=3.0)
        assert sim.now == 5.0
        assert fired == []
        # Due times are computed from the clock: not rewound either.
        sim.call_later(1.0, lambda: fired.append(("call", sim.now)))
        sim.schedule(sim.now + 0.5, fired.append, "entry")
        sim.run(until=5.75)
        assert fired == ["entry"] and sim.now == 5.75
        sim.run()
        assert fired == ["entry", ("call", 6.0)] + (["late"] if queued != "nothing" else [])

    def test_until_equal_to_now_is_a_no_op(self, scheduler):
        sim = make_sim(scheduler)
        sim.call_later(2.0, lambda: None)
        sim.run(until=1.0)
        sim.run(until=1.0)
        assert sim.now == 1.0 and sim.pending_events == 1


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestCollectorPause:
    """``run`` holds automatic cyclic collection off while events fire
    and hands the caller's setting back on every way out."""

    def observed(self, sim, seen, *delays):
        for delay in delays:
            sim.schedule(sim.now + delay, lambda: seen.append(gc.isenabled()))
            sim.call_later(delay, lambda: seen.append(gc.isenabled()))

    def test_off_inside_callbacks_and_back_on_after_a_drained_queue(
        self, scheduler, collector_on
    ):
        sim = make_sim(scheduler)
        seen = []
        self.observed(sim, seen, 1.0, 2.0)
        sim.run()
        assert seen == [False] * 4
        assert gc.isenabled()

    def test_restored_after_an_until_stop(self, scheduler, collector_on):
        sim = make_sim(scheduler)
        seen = []
        self.observed(sim, seen, 1.0, 9.0)
        sim.run(until=5.0)
        assert seen == [False] * 2 and sim.pending_events == 2
        assert gc.isenabled()

    def test_restored_after_a_max_events_stop(self, scheduler, collector_on):
        sim = make_sim(scheduler)
        seen = []
        self.observed(sim, seen, 1.0, 2.0)
        sim.run(max_events=3)
        assert seen == [False] * 3 and sim.pending_events == 1
        assert gc.isenabled()

    @pytest.mark.parametrize("primitive", ["call_later", "schedule"])
    def test_restored_after_a_callback_raises(self, scheduler, primitive, collector_on):
        sim = make_sim(scheduler)

        def boom():
            raise RuntimeError("callback failed")

        file(sim, primitive, 1.0, boom)
        with pytest.raises(RuntimeError, match="callback failed"):
            sim.run()
        assert gc.isenabled()

    def test_a_caller_with_collection_off_finds_it_still_off(self, scheduler, collector_on):
        sim = make_sim(scheduler)
        seen = []
        self.observed(sim, seen, 1.0)
        gc.disable()
        sim.run()
        assert seen == [False] * 2
        assert not gc.isenabled()

    def test_nested_run_does_not_reenable_early(self, scheduler, collector_on):
        sim = make_sim(scheduler)
        seen = []

        def outer():
            sim.run(max_events=1)  # fires "inner", then returns to us
            seen.append(("after nested run", gc.isenabled()))

        # On the heap: a nested run is supported from a heap callback
        # only (see ``Simulator.run``).
        sim.schedule(1.0, outer)
        sim.call_later(2.0, lambda: seen.append(("inner", gc.isenabled())))
        sim.call_later(3.0, lambda: seen.append(("later", gc.isenabled())))
        sim.run()
        assert seen == [("inner", False), ("after nested run", False), ("later", False)]
        assert gc.isenabled()
