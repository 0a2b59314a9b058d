"""Unit tests for the live plane's resilience primitives."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.resilience import (
    BoundedIngressQueue,
    CircuitBreaker,
    DROP_OLDEST,
    REJECT,
    ResilienceConfig,
    RetryPolicy,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        rng = np.random.default_rng(3)
        for attempt in range(50):
            d = policy.delay(attempt % 3, rng)
            assert 0.05 <= d <= 0.15

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        assert policy.delay(0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self):
        clock = FakeClock()
        return clock, CircuitBreaker(clock, reset_timeout=1.0)

    def test_opens_after_consecutive_failures(self):
        _clock, breaker = self.make()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.counters.opens == 1

    def test_success_resets_failure_streak(self):
        _clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED

    def test_open_suppresses_until_reset_timeout(self):
        clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.counters.suppressed == 1
        clock.now = 0.5
        assert not breaker.allow()
        clock.now = 1.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.counters.half_open_probes == 1

    def test_half_open_admits_one_probe(self):
        clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        # A concurrent attempt while the probe is in flight is suppressed.
        assert not breaker.allow()
        assert breaker.state == STATE_HALF_OPEN

    def test_probe_success_closes(self):
        clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.counters.closes == 1
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.counters.opens == 2
        # The reset timer restarts from the re-open.
        clock.now = 2.5
        assert not breaker.allow()
        clock.now = 3.0
        assert breaker.allow()

    def test_counters_snapshot(self):
        _clock, breaker = self.make()
        breaker.record_failure()
        breaker.record_failure()
        snap = breaker.counters.as_dict()
        assert snap["failures"] == 2
        assert snap["opens"] == 1


class TestBoundedIngressQueue:
    def test_fifo_and_high_water(self):
        queue = BoundedIngressQueue(capacity=4)
        for i in range(3):
            assert queue.push(i)
        assert queue.high_water == 3
        assert queue.drain(2) == [0, 1]
        assert queue.drain(10) == [2]
        assert queue.high_water == 3  # peak is sticky

    def test_drop_oldest_policy(self):
        queue = BoundedIngressQueue(capacity=2, policy=DROP_OLDEST)
        assert queue.push("a")
        assert queue.push("b")
        assert queue.push("c")  # evicts "a", still accepted
        assert queue.dropped_oldest == 1
        assert queue.high_water == 2  # an eviction never deepens the queue
        assert queue.drain(10) == ["b", "c"]

    def test_reject_policy(self):
        queue = BoundedIngressQueue(capacity=2, policy=REJECT)
        assert queue.push("a")
        assert queue.push("b")
        assert not queue.push("c")
        assert queue.rejected == 1
        assert queue.high_water == 2
        assert queue.drain(10) == ["a", "b"]

    def test_as_dict(self):
        queue = BoundedIngressQueue(capacity=8)
        queue.push(1)
        snap = queue.as_dict()
        assert snap["capacity"] == 8
        assert snap["depth"] == 1
        assert snap["accepted"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedIngressQueue(capacity=0)
        with pytest.raises(ValueError):
            BoundedIngressQueue(policy="newest-wins")


class TestPushRun:
    """``push_run`` is a ``push`` per item, in order, with the ``extend``
    only a shortcut for a run that fits."""

    @settings(max_examples=400, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        policy=st.sampled_from([DROP_OLDEST, REJECT]),
        prefill=st.integers(0, 12),
        drained=st.integers(0, 8),
        length=st.integers(0, 20),
    )
    def test_a_run_is_a_push_per_item(self, capacity, policy, prefill, drained, length):
        def queue_with_history():
            evicted = []
            queue = BoundedIngressQueue(capacity, policy, on_evict=evicted.append)
            for item in range(prefill):  # past capacity: counters already moved
                queue.push(("old", item))
            queue.drain(drained)  # a high water above the depth
            return queue, evicted

        run = [("new", item) for item in range(length)]
        reference, reference_evicted = queue_with_history()
        flags = [reference.push(item) for item in run]
        queue, evicted = queue_with_history()
        admitted = queue.push_run(run)

        assert [k < admitted for k in range(length)] == flags  # what the probe is told
        assert list(queue._queue) == list(reference._queue)
        assert queue.as_dict() == reference.as_dict()  # accepted, dropped, rejected, high water
        assert evicted == reference_evicted


class TestResilienceConfig:
    def test_defaults_are_sane(self):
        config = ResilienceConfig()
        assert config.retry.max_attempts >= 1
        assert config.ingress_capacity >= 1
        assert config.ingress_policy == DROP_OLDEST
        assert len(fields(ResilienceConfig)) == 5  # validation added no knob

    @pytest.mark.parametrize(
        "bad",
        [
            {"ingress_batch": 0},  # the live plane spins: nothing read, nothing pumped
            {"ingress_capacity": 0},
            {"breaker_reset_timeout": 0.0},
            {"breaker_reset_timeout": -1.0},
            {"ingress_policy": "newest-wins"},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_bad_values_fail_at_construction(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ResilienceConfig(**bad)

    def test_hashable_for_frozen_configs(self):
        # Frozen, so it hashes: a frozen config may hold one as a field.
        hash(ResilienceConfig())
