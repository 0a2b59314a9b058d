"""Resilience primitives for the live plane.

The asyncio transport wraps its egress and ingress in three small,
independently testable mechanisms (the classic middleware fault-handling
triad — retry, circuit breaking, queue-based load leveling):

* :class:`RetryPolicy` — exponential backoff with decorrelating jitter
  for transient egress failures (a refused TCP connect, a dropped
  stream).  Delays are drawn from an injected RNG so tests are
  deterministic.
* :class:`CircuitBreaker` — a per-peer closed/open/half-open gate.
  ``FAILURE_THRESHOLD`` consecutive failures open the circuit; while
  open, attempts are suppressed instantly (no socket work, no backoff
  sleeps); after ``reset_timeout`` the next attempt is admitted as a
  *half-open probe* whose outcome either closes the circuit or re-opens
  it.  Every transition is counted, so a chaos run can assert "the
  breaker opened and recovered" from the counters alone.
* :class:`BoundedIngressQueue` — the load-leveling buffer between the
  sockets and the protocol nodes.  Decoded messages are admitted a run
  at a time and drained in bounded batches, one per event-loop turn
  (throttling); when the queue is full the configured overflow policy
  either drops the oldest entry or rejects the newcomer — both counted,
  never unbounded.

All state transitions take the current time as an argument (or a clock
callable at construction) instead of reading a wall clock, which keeps
the simulator and the test suite in charge of time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.util.validation import require, require_int, require_positive

__all__ = [
    "BoundedIngressQueue",
    "CircuitBreaker",
    "RESILIENCE_SNAPSHOT_SCHEMA",
    "ResilienceConfig",
    "RetryPolicy",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
]

#: schema tag of :meth:`AsyncTransport.resilience_snapshot` payloads.
#: Bump the suffix on any key change in the counter layout — the
#: snapshot is the measurement surface for ``detect`` on sockets *and*
#: the load generator (see docs/RESILIENCE.md for the full schema).
RESILIENCE_SNAPSHOT_SCHEMA = "repro.resilience_snapshot/2"

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

DROP_OLDEST = "drop-oldest"
REJECT = "reject"

#: consecutive failures that open a :class:`CircuitBreaker`.
FAILURE_THRESHOLD = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient egress failures.

    Attempt ``k`` (0-based) sleeps ``base_delay * multiplier**k``,
    capped at ``max_delay``, then scaled by a uniform jitter factor in
    ``[1 - jitter, 1 + jitter]``.  ``max_attempts`` bounds the whole
    cycle; a caller that exhausts it reports the failure to its circuit
    breaker and abandons the payload (counted, never retried forever).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.base_delay >= 0.0, "base_delay must be >= 0")
        require(self.multiplier >= 1.0, "multiplier must be >= 1")
        require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retrying after the ``attempt``-th failure."""
        raw = min(self.base_delay * self.multiplier ** attempt, self.max_delay)
        if rng is None or self.jitter == 0.0:
            return raw
        return raw * float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))


@dataclass
class BreakerCounters:
    """Cumulative transition/outcome counts of one circuit breaker."""

    successes: int = 0
    failures: int = 0
    opens: int = 0
    closes: int = 0
    half_open_probes: int = 0
    suppressed: int = 0

    def merge(self, other: "BreakerCounters") -> None:
        self.successes += other.successes
        self.failures += other.failures
        self.opens += other.opens
        self.closes += other.closes
        self.half_open_probes += other.half_open_probes
        self.suppressed += other.suppressed

    def as_dict(self) -> Dict[str, int]:
        return {
            "successes": self.successes,
            "failures": self.failures,
            "opens": self.opens,
            "closes": self.closes,
            "half_open_probes": self.half_open_probes,
            "suppressed": self.suppressed,
        }


class CircuitBreaker:
    """Closed / open / half-open gate guarding one unreliable peer.

    Usage: call :meth:`allow` before an attempt — ``False`` means the
    circuit is open and the attempt must be suppressed without any
    socket work; ``True`` admits it (and, when the reset timeout has
    elapsed on an open circuit, marks it as the half-open probe).  Then
    report the outcome with :meth:`record_success` /
    :meth:`record_failure`.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        reset_timeout: float = 0.4,
    ) -> None:
        require(reset_timeout > 0.0, "reset_timeout must be > 0")
        self.clock = clock
        self.reset_timeout = reset_timeout
        self.state = STATE_CLOSED
        self.counters = BreakerCounters()
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def allow(self) -> bool:
        """Gate one attempt; transitions open → half-open when due."""
        if self.state == STATE_CLOSED:
            return True
        if self.state == STATE_HALF_OPEN:
            # One probe in flight at a time; concurrent attempts wait.
            self.counters.suppressed += 1
            return False
        if self.clock() - self._opened_at >= self.reset_timeout:
            self.state = STATE_HALF_OPEN
            self.counters.half_open_probes += 1
            return True
        self.counters.suppressed += 1
        return False

    def record_success(self) -> None:
        self.counters.successes += 1
        self._consecutive_failures = 0
        if self.state != STATE_CLOSED:
            self.state = STATE_CLOSED
            self.counters.closes += 1

    def record_failure(self) -> None:
        self.counters.failures += 1
        self._consecutive_failures += 1
        if self.state == STATE_HALF_OPEN:
            self._open()
        elif self.state == STATE_CLOSED and (
            self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._open()

    def _open(self) -> None:
        self.state = STATE_OPEN
        self._opened_at = self.clock()
        self.counters.opens += 1


class BoundedIngressQueue:
    """Bounded FIFO between the sockets and the protocol nodes.

    ``push`` never blocks: on overflow the ``drop-oldest`` policy evicts
    the head to admit the newcomer (freshest-data-wins, right for a
    streaming protocol), ``reject`` refuses the newcomer.  Both paths
    are counted, and ``high_water`` records the peak depth so a run can
    prove its queues stayed bounded.
    """

    def __init__(
        self,
        capacity: int = 4096,
        policy: str = DROP_OLDEST,
        on_evict: Optional[Callable] = None,
    ) -> None:
        require(capacity >= 1, "capacity must be >= 1")
        require(policy in (DROP_OLDEST, REJECT), "policy must be drop-oldest or reject")
        self.capacity = capacity
        self.policy = policy
        #: observer of drop-oldest evictions (the evicted item is passed
        #: through) — lets a probe attribute drops to individual frames
        #: without the queue knowing anything about frame contents.
        self.on_evict = on_evict
        self._queue: Deque = deque()
        self.accepted = 0
        self.dropped_oldest = 0
        self.rejected = 0
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, item) -> bool:
        """Enqueue ``item``; False when rejected by the overflow policy."""
        queue = self._queue
        depth = len(queue)
        if depth < self.capacity:
            depth += 1
        elif self.policy == REJECT:
            self.rejected += 1
            return False
        else:  # evict the head: the depth stays at capacity
            evicted = queue.popleft()
            self.dropped_oldest += 1
            if self.on_evict is not None:
                self.on_evict(evicted)
        queue.append(item)
        self.accepted += 1
        if depth > self.high_water:
            self.high_water = depth
        return True

    def push_run(self, items: List) -> int:
        """Enqueue ``items`` as in-order ``push``es would (one ``extend`` if
        they fit); return how many were admitted, always a prefix."""
        queue = self._queue
        count = len(items)
        depth = len(queue) + count
        if depth <= self.capacity:
            queue.extend(items)
            self.accepted += count
            if depth > self.high_water:
                self.high_water = depth
            return count
        return sum([self.push(item) for item in items])

    def drain(self, max_items: int) -> List:
        """Dequeue up to ``max_items`` entries in FIFO order (all at once when they fit)."""
        queue = self._queue
        if len(queue) <= max_items:
            out = list(queue)
            queue.clear()
            return out
        return [queue.popleft() for _ in range(max_items)]

    def as_dict(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "depth": len(self._queue),
            "high_water": self.high_water,
            "accepted": self.accepted,
            "dropped_oldest": self.dropped_oldest,
            "rejected": self.rejected,
        }


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the live plane's resilience layer."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_reset_timeout: float = 0.4
    ingress_capacity: int = 4096
    ingress_policy: str = DROP_OLDEST
    #: max datagrams read per readiness event, and messages per drain batch.
    ingress_batch: int = 128

    def __post_init__(self) -> None:
        # A batch of 0 is a silent hang, not an error anyone sees: the
        # socket stays readable and the drain delivers nothing, for ever.
        for name in ("ingress_capacity", "ingress_batch"):
            require_int(getattr(self, name), name, minimum=1)
        require_positive(self.breaker_reset_timeout, "breaker_reset_timeout")
        require(
            self.ingress_policy in (DROP_OLDEST, REJECT),
            "ingress_policy must be drop-oldest or reject",
        )
