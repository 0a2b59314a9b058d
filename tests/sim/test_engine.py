"""Tests for the discrete-event engine."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator
from repro.sim.network import Network

#: the two containers of the event spine: the bare heap, and the heap
#: with a network's calendar attached (``defer`` then files there and
#: ``run`` goes through the two-tier loop).
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
            sim.call_at(1.0, lambda i=i: order.append(i))
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
            sim.call_at(9.0, lambda: None)

    def test_rejects_negative_delay(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-1.0, lambda: None)

    def test_rejects_infinite_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_at(float("inf"), lambda: None)

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
    def test_cancelled_timer_does_not_fire(self):
        sim = Simulator()
        fired = []
        timer = sim.call_later(1.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.active

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        timer = sim.call_later(1.0, lambda: None)
        sim.run()
        timer.cancel()
        assert timer.fired

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        t1 = sim.call_later(1.0, lambda: None)
        sim.call_later(2.0, lambda: None)
        t1.cancel()
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
        sim.call_at(2.5, timer.stop)
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

    def test_cancel_entry(self):
        sim = Simulator()
        fired = []
        entry = sim.schedule(1.0, fired.append, 1)
        sim.cancel_entry(entry)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_call_later_args(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, seen.append, 42)
        sim.run()
        assert seen == [42]

    def test_interleaved_schedule_and_call_at_keep_tie_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 0)
        sim.call_at(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.run()
        assert order == [0, 1, 2]


class TestDeferWithoutCalendar:
    """``defer`` on a heap-only simulator: the same call, filed on the heap
    (the calendar side is in ``test_timeline.py``)."""

    def test_fires_with_args_and_returns_no_handle(self):
        sim = Simulator()
        seen = []
        assert sim.defer(1.5, lambda a, b: seen.append((sim.now, a, b)), "x", 7) is None
        assert sim.heap_size == 1 and sim.pending_events == 1
        sim.run()
        assert seen == [(1.5, "x", 7)]
        assert sim.events_processed == 1 and sim.pending_events == 0

    def test_ties_with_other_primitives_break_by_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.defer(1.0, order.append, 0)
        sim.call_later(1.0, order.append, 1)
        sim.defer(1.0, order.append, 2)
        sim.schedule(1.0, order.append, 3)
        sim.defer(0.0, order.append, "now")
        sim.run()
        assert order == ["now", 0, 1, 2, 3]

    def test_until_max_events_and_step_count_it_as_one_event(self):
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.defer(1.0 + i, fired.append, i)
        sim.run(until=1.5)
        assert fired == [0] and sim.now == 1.5
        sim.run(max_events=1)
        assert fired == [0, 1]
        assert sim.step() and fired == [0, 1, 2]
        assert (sim.events_processed, sim.pending_events) == (3, 1)

    @pytest.mark.parametrize("delay", [-0.1, float("inf"), float("nan")])
    def test_rejects_negative_and_nonfinite_delays(self, delay):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.defer(delay, lambda: None)
        assert sim.pending_events == 0 and sim.heap_size == 0


class TestMaxEventsCountsFiredOnly:
    """Regression: cancelled timers skipped by lazy deletion must not
    consume the ``max_events`` budget (they never fire)."""

    def test_cancelled_timers_do_not_consume_budget(self):
        sim = Simulator()
        fired = []
        timers = [
            sim.call_later(float(i + 1), lambda i=i: fired.append(i)) for i in range(20)
        ]
        for timer in timers[:10]:
            timer.cancel()
        sim.run(max_events=5)
        assert fired == [10, 11, 12, 13, 14]
        assert sim.events_processed == 5

    def test_events_processed_matches_fired_with_mid_run_cancels(self):
        sim = Simulator()
        fired = []
        later = [
            sim.call_later(float(10 + i), lambda i=i: fired.append(i)) for i in range(10)
        ]

        def cancel_half():
            fired.append("c")
            for timer in later[::2]:
                timer.cancel()

        sim.call_later(1.0, cancel_half)
        sim.run(max_events=4)
        # one cancel event + three surviving odd-indexed timers
        assert fired == ["c", 1, 3, 5]
        assert sim.events_processed == 4


class TestCancellationHeavyWorkloads:
    def test_heap_compacts_under_cancel_churn(self):
        sim = Simulator()
        for i in range(10):
            sim.call_at(1000.0 + i, lambda: None)
        victims = [sim.call_at(1.0 + i * 0.001, lambda: None) for i in range(10_000)]
        for timer in victims:
            timer.cancel()
        # O(1) live counter is exact...
        assert sim.pending_events == 10
        assert sim.cancel_generation == 10_000
        # ...and lazy deletion compacted: cancelled residue in the heap
        # stays below the compaction trigger instead of accumulating 10k.
        assert sim.heap_size - sim.pending_events < 64
        sim.run()
        assert sim.events_processed == 10
        assert sim.heap_size == 0

    def test_pending_events_stays_accurate_through_fire_cancel_cycles(self):
        sim = Simulator()
        fired = []
        for round_no in range(20):
            timers = [
                sim.call_later(0.5 + i * 0.01, lambda i=i: fired.append(i))
                for i in range(500)
            ]
            for timer in timers[::2]:
                timer.cancel()
            assert sim.pending_events == 250
            sim.run()
            assert sim.pending_events == 0
        assert len(fired) == 20 * 250

    def test_same_time_ordering_survives_compaction(self):
        """Tie-broken scheduling order must hold even when compaction
        re-heapifies underneath the pending events."""
        sim = Simulator()
        order = []
        survivors = []
        timers = []
        for i in range(2_000):
            timers.append(sim.call_at(1.0, lambda i=i: order.append(i)))
        for i, timer in enumerate(timers):
            if i % 3 != 0:
                timer.cancel()
            else:
                survivors.append(i)
        # compaction bounds cancelled residue to at most the live count
        assert sim.heap_size <= 2 * sim.pending_events + 64
        sim.run()
        assert order == survivors

    def test_periodic_timer_stop_releases_entry(self):
        sim = Simulator()
        ticks = []
        timer = sim.call_every(1.0, lambda: ticks.append(sim.now))
        sim.call_at(3.5, timer.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.pending_events == 0

    def test_mid_run_compaction_does_not_corrupt_cancel_accounting(self):
        """Regression: a callback-triggered compaction resets the
        cancelled-in-heap counter; entries skipped earlier in the same
        run() must not be subtracted again afterwards."""
        sim = Simulator()
        # pre-cancelled entries that run() will skip before any firing
        for i in range(10):
            sim.call_at(0.5 + i * 0.01, lambda: None).cancel()
        survivors = [sim.call_at(100.0 + i, lambda: None) for i in range(70)]

        def mass_cancel():
            for timer in survivors:
                timer.cancel()  # 70 > live: triggers compaction mid-run

        sim.call_at(1.0, mass_cancel)
        sim.run()
        assert sim.pending_events == 0
        assert sim.heap_size == 0
        assert sim._cancelled_in_heap == 0
        # accounting still sound for a subsequent cancellation-heavy round
        next_round = [sim.call_later(1.0 + i * 0.001, lambda: None) for i in range(200)]
        for timer in next_round:
            timer.cancel()
        assert sim.pending_events == 0
        assert sim.heap_size <= 2 * sim.pending_events + 64

    def test_compaction_engages_during_a_long_run(self):
        """Regression: compaction must trigger *inside* a long run()
        (where live-counter updates are batched), not only between
        runs — a mass-cancelled block of far-future timers may not
        linger in the heap until its scheduled time."""
        sim = Simulator()
        far = [sim.call_at(10_000.0 + i, lambda: None) for i in range(500)]
        chain = {"n": 0}

        def tick(chain):
            chain["n"] += 1
            if chain["n"] < 1000:
                sim.schedule(sim.now + 0.001, tick, chain)

        observed = {}
        sim.schedule(0.001, tick, chain)
        sim.call_at(2.0, lambda: [t.cancel() for t in far])
        sim.call_at(3.0, lambda: observed.update(heap=sim.heap_size))
        sim.run(until=5.0)
        assert chain["n"] == 1000
        assert observed["heap"] < 500  # cancelled block compacted mid-run


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestClockOnlyAdvances:
    """``run(until=t)`` with ``t`` already passed fires nothing and
    leaves the clock alone — whichever container holds the next event
    (each is its own early stop in the loop)."""

    @pytest.mark.parametrize("queued", ["call_later", "defer", "nothing"])
    def test_until_in_the_past_does_not_rewind(self, scheduler, queued):
        sim = make_sim(scheduler)
        fired = []
        if queued != "nothing":
            getattr(sim, queued)(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run(until=3.0)
        assert sim.now == 5.0
        assert fired == []
        # Due times are computed from the clock: not rewound either.
        assert sim.call_later(1.0, fired.append, "timer").time == 6.0
        sim.defer(0.5, fired.append, "deferred")
        sim.run(until=5.75)
        assert fired == ["deferred"] and sim.now == 5.75
        sim.run()
        assert fired == ["deferred", "timer"] + (["late"] if queued != "nothing" else [])

    def test_until_equal_to_now_is_a_no_op(self, scheduler):
        sim = make_sim(scheduler)
        sim.defer(2.0, lambda: None)
        sim.run(until=1.0)
        sim.run(until=1.0)
        assert sim.now == 1.0 and sim.pending_events == 1


@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestCollectorPause:
    """``run`` holds automatic cyclic collection off while events fire
    and hands the caller's setting back on every way out."""

    def observed(self, sim, seen, *delays):
        for delay in delays:
            sim.call_later(delay, lambda: seen.append(gc.isenabled()))
            sim.defer(delay, lambda: seen.append(gc.isenabled()))

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

    @pytest.mark.parametrize("file", ["call_later", "defer"])
    def test_restored_after_a_callback_raises(self, scheduler, file, collector_on):
        sim = make_sim(scheduler)

        def boom():
            raise RuntimeError("callback failed")

        getattr(sim, file)(1.0, boom)
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

        sim.call_later(1.0, outer)
        sim.call_later(2.0, lambda: seen.append(("inner", gc.isenabled())))
        sim.call_later(3.0, lambda: seen.append(("later", gc.isenabled())))
        sim.run()
        assert seen == [("inner", False), ("after nested run", False), ("later", False)]
        assert gc.isenabled()

    def test_step_leaves_the_collector_alone(self, scheduler, collector_on):
        sim = make_sim(scheduler)
        seen = []
        self.observed(sim, seen, 1.0)
        while sim.step():
            pass
        assert seen == [True] * 2
