"""The discrete-event engine: a simulated clock and one ordered event spine.

Design notes
------------
* Every event draws its tie-break from one monotonically increasing
  sequence counter and fires in ``(time, seq)`` order, so two events
  scheduled for the same instant fire in scheduling order — this keeps
  runs fully deterministic.  The spine is held in two containers, and
  what decides where an event lives is *whether anyone may cancel it*:

  - the **calendar** — an optionally attached :class:`DeliveryTimeline`
    of fixed-width time buckets — holds everything that is scheduled
    and then simply happens: network deliveries (filed by
    :mod:`repro.sim.network`) and fire-and-forget calls (filed by
    :meth:`Simulator.defer`: the witness-answer delay, the confirm and
    serve timeouts — the largest timer populations of a LiFTinG run).
    Filing is an O(1) bucket append instead of an O(log n) sift, and
    firing is an amortized O(1) walk of a once-sorted bucket;
  - the **binary heap** holds what is left: plain-list entries ``[time,
    seq, callback, args, status]`` for period ticks (which reschedule
    themselves) and for genuinely cancellable timers, plus the rare
    calendar entry due beyond the ring horizon.  With no calendar
    attached it holds everything.

  The run loop merges the two by ``(time, seq)``, so the global firing
  order is *identical* to a single heap's by construction — the same
  counter is read at the same call sites whichever container receives
  the entry (pinned by the heap-vs-calendar equivalence tests).
* No closure is required on the hot path: callers pass positional
  ``args`` inline (``sim.schedule(t, fn, a, b)``, ``sim.defer(d, fn,
  a)``) instead of wrapping them in a lambda.
* :class:`Timer` handles (returned by ``call_at`` / ``call_later``) are
  a ``list`` subclass: the handle *is* the heap entry, so a cancellable
  event costs one allocation, and the handle-free :meth:`Simulator.
  schedule` path costs one plain list.
* Cancellation is lazy: cancelling flips the entry's status word and
  bumps the engine's cancellation generation counter; the entry is
  skipped when popped.  When cancelled entries outnumber live ones the
  heap is compacted in place, so retry/audit churn cannot make the heap
  grow without bound.
* The engine keeps an O(1) live-event counter (``pending_events``)
  instead of scanning the heap.
* The scheduling and run loops are deliberately inlined (no helper
  calls, validation by plain comparison on the happy path): CPython
  frame setup dominates at millions of events per second.
* The engine knows nothing about networks or nodes; those live in
  :mod:`repro.sim.network`.
"""

from __future__ import annotations

import gc
import math
from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

from repro.util.validation import require

Callback = Callable[..., None]

_INF = math.inf

# Heap-entry slots: [_TIME, _SEQ, _CALLBACK, _ARGS, _STATUS(, _SIM)].
# The trailing _SIM slot exists only on Timer entries; the unique _SEQ
# guarantees heap comparisons never look past the first two slots.
_TIME = 0
_SEQ = 1
_CALLBACK = 2
_ARGS = 3
_STATUS = 4
_SIM = 5

# Status words.
_PENDING = 0
_FIRED = 1
_CANCELLED = 2

#: Compaction trigger: at least this many cancelled entries *and* more
#: cancelled than live entries in the heap.
_COMPACT_MIN = 64


class _Deferred:
    """Type of :data:`DEFERRED`, the mark of a deferred-call calendar entry."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DEFERRED"


#: Occupies the ``dst`` slot of a calendar entry filed by
#: :meth:`Simulator.defer` — ``[time, seq, callback, DEFERRED, args]``
#: beside a delivery's ``[time, seq, src, dst, message]``.  The drain
#: tells the two apart by identity on that slot, so no message payload
#: (``None``, an ``int``, a tuple) can be mistaken for a call; and with
#: the default identity ``__eq__`` it equals no node id, so code that
#: matches entries by destination never matches a deferred call.
DEFERRED = _Deferred()


class Timer(list):
    """Handle for a scheduled event; supports cancellation.

    Instances are returned by :meth:`Simulator.call_at` /
    :meth:`Simulator.call_later`.  Cancelling after the event has fired
    is a harmless no-op.  The handle *is* the engine's heap entry (a
    ``list`` subclass), so cancellable events cost a single allocation;
    code that never cancels should use :meth:`Simulator.schedule`,
    which allocates a plain list.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Absolute simulated time the event is (or was) due."""
        return self[_TIME]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has taken effect."""
        return self[_STATUS] == _CANCELLED

    @property
    def fired(self) -> bool:
        """True once the callback has run."""
        return self[_STATUS] == _FIRED

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return self[_STATUS] == _PENDING

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        self[_SIM]._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "fired", "cancelled")[self[_STATUS]]
        return f"Timer(time={self[_TIME]!r}, {state})"


class DeliveryTimeline:
    """The calendar queue: deliveries and deferred calls, never cancelled.

    A ring of ``ring_size`` fixed-width time buckets; entries are plain
    five-slot lists — ``[time, seq, src, dst, message]`` for a network
    delivery, ``[time, seq, callback, DEFERRED, args]`` for a
    :meth:`Simulator.defer` call — appended unsorted and sorted once
    when their bucket becomes *current* (the list-vs-list comparison
    stops at the unique ``seq``, so ties are broken exactly like heap
    entries and the later slots are never compared).  A small heap of
    occupied bucket indices makes cursor advancement O(1) amortized
    regardless of how sparse the timeline is — no empty-bucket scans.
    Entries cannot be cancelled; a timer someone may cancel belongs on
    the engine's heap (``call_later``).

    Invariants the engine and network rely on:

    * entry times are ``>= sim.now`` at insertion, so every occupied
      bucket index is ``>= int(now / width)`` and the ring (which spans
      ``ring_size`` buckets from there) never aliases two occupied
      indices to one slot — callers fall back to the heap for the rare
      entry due beyond the horizon;
    * an insertion into the bucket currently being drained lands
      *behind* the drain cursor via ``insort`` (its seq is larger than
      every already-scheduled entry's, and its time is ``>= now``), so
      in-order draining survives re-entrant scheduling;
    * an insertion into an already-passed *empty gap* bucket (possible
      when a timer callback fires inside a gap the cursor skipped over)
      rewinds the cursor — the untouched current bucket is pushed back
      into the ring.
    """

    __slots__ = (
        "width",
        "inv_width",
        "horizon",
        "_mask",
        "_ring",
        "_order",
        "cur",
        "cur_pos",
        "cur_idx",
        "count",
    )

    def __init__(self, width: float, ring_size: int = 512) -> None:
        require(width > 0, "bucket width must be > 0, got %r", width)
        require(
            ring_size >= 2 and ring_size & (ring_size - 1) == 0,
            "ring_size must be a power of two >= 2, got %r",
            ring_size,
        )
        self.width = float(width)
        self.inv_width = 1.0 / self.width
        #: deliveries due more than ``horizon`` buckets past ``now``
        #: cannot be held by the ring (slot aliasing) — callers route
        #: them through the heap tier instead.
        self.horizon = ring_size - 1
        self._mask = ring_size - 1
        self._ring: List[list] = [[] for _ in range(ring_size)]
        self._order: List[int] = []  # heap of occupied bucket indices
        self.cur: list = []  # the bucket being drained (sorted)
        self.cur_pos = 0  # next undrained position in ``cur``
        self.cur_idx = -1  # bucket index of ``cur``
        self.count = 0  # pending entries across ring + cur

    def add(self, entry: list, base_idx: int) -> bool:
        """Insert ``entry`` (a delivery or a deferred call, see above).

        ``base_idx`` is ``int(now * inv_width)``.  Returns False when
        the entry lies beyond the ring horizon — the caller must then
        schedule it on the heap instead.  The two hot callers — the
        network's send path and :meth:`Simulator.defer` — inline the
        common branch of this method; this method is the reference
        implementation and the rare-branch handler.
        """
        idx = int(entry[0] * self.inv_width)
        if idx - base_idx >= self.horizon:
            return False
        cur_idx = self.cur_idx
        if idx > cur_idx:
            slot = self._ring[idx & self._mask]
            if not slot:
                heappush(self._order, idx)
            slot.append(entry)
        elif idx == cur_idx:
            # Lands in the bucket being drained: its seq exceeds every
            # existing entry's and its time is >= now, so it sorts in at
            # or after the cursor.
            insort(self.cur, entry, self.cur_pos)
        else:
            # The cursor skipped this (then-empty) bucket; rewind.  The
            # current bucket cannot have been touched yet: an entry of
            # it having fired would put ``now`` (and hence ``entry``)
            # past this bucket.
            if self.cur_pos < len(self.cur):
                self._ring[cur_idx & self._mask] = self.cur
                heappush(self._order, cur_idx)
            self.cur = []
            self.cur_pos = 0
            self.cur_idx = idx - 1
            slot = self._ring[idx & self._mask]
            if not slot:
                heappush(self._order, idx)
            slot.append(entry)
        self.count += 1
        return True

    def advance(self) -> bool:
        """Point ``cur``/``cur_pos`` at the next pending entry.

        Returns False when the timeline is empty.  Detaches the next
        occupied bucket from the ring and sorts it exactly once.
        """
        while self.cur_pos >= len(self.cur):
            order = self._order
            if not order:
                return False
            idx = heappop(order)
            slot = idx & self._mask
            bucket = self._ring[slot]
            self._ring[slot] = []
            bucket.sort()
            self.cur = bucket
            self.cur_pos = 0
            self.cur_idx = idx
        return True

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeliveryTimeline(width={self.width!r}, pending={self.count}, "
            f"cur_idx={self.cur_idx})"
        )


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> order = []
    >>> _ = sim.call_later(2.0, lambda: order.append("b"))
    >>> _ = sim.call_later(1.0, lambda: order.append("a"))
    >>> sim.run()
    >>> order, sim.now
    (['a', 'b'], 2.0)
    """

    __slots__ = (
        "now",
        "_queue",
        "_sequence",
        "_events_processed",
        "_live",
        "_cancelled_in_heap",
        "_cancel_generation",
        "_timeline",
        "_drain",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._queue: List[list] = []
        self._sequence = 0
        self._events_processed = 0
        self._live = 0  # O(1) pending-event counter (heap + timeline)
        self._cancelled_in_heap = 0  # cancelled entries awaiting lazy deletion
        self._cancel_generation = 0  # total cancellations ever issued
        self._timeline: Optional[DeliveryTimeline] = None
        self._drain: Optional[Callable[[float, float], int]] = None

    # ------------------------------------------------------------------
    # the calendar
    # ------------------------------------------------------------------
    def attach_timeline(
        self, timeline: DeliveryTimeline, drain: Callable[[float, float], int]
    ) -> None:
        """Attach the calendar queue (at most one).

        ``drain(until, budget)`` must fire pending timeline entries in
        ``(time, seq)`` order — setting ``now`` per entry and yielding
        back when a live heap event preempts, an entry is due past
        ``until``, ``budget`` entries have fired, or the timeline is
        exhausted — and return how many entries it fired.  An entry
        whose ``dst`` slot is :data:`DEFERRED` is a call filed by
        :meth:`defer`: the drain must run ``entry[2](*entry[4])`` and
        count it as one fired entry.  The network owns the drain so
        delivery semantics stay out of the engine.
        """
        require(self._timeline is None, "a delivery timeline is already attached")
        require(self.now >= 0.0, "delivery timeline requires a non-negative clock")
        self._timeline = timeline
        self._drain = drain

    @property
    def timeline(self) -> Optional[DeliveryTimeline]:
        """The attached delivery timeline, if any."""
        return self._timeline

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, callback: Callback, *args) -> list:
        """Hot-path scheduling: no cancellation handle is allocated.

        ``callback`` is invoked as ``callback(*args)`` at absolute
        simulated ``time``; the args are stored inline in the heap entry
        so callers need no closure.  Returns the raw heap entry (opaque;
        pass it to :meth:`cancel_entry` if cancellation is ever needed).
        """
        if not (self.now <= time < _INF):  # also rejects NaN
            raise ValueError(
                f"event time must be finite and >= now={self.now!r}, got {time!r}"
            )
        entry = [time, self._sequence, callback, args, _PENDING]
        self._sequence += 1
        heappush(self._queue, entry)
        self._live += 1
        return entry

    def call_at(self, time: float, callback: Callback, *args) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past raises — that is always a logic error in
        protocol code (e.g. a negative latency).
        """
        if not (self.now <= time < _INF):
            require(time >= self.now, "cannot schedule in the past (%r < now=%r)", time, self.now)
            require(math.isfinite(time), "event time must be finite, got %r", time)
        timer = Timer((time, self._sequence, callback, args, _PENDING, self))
        self._sequence += 1
        heappush(self._queue, timer)
        self._live += 1
        return timer

    def call_later(self, delay: float, callback: Callback, *args) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            require(delay >= 0, "delay must be >= 0, got %r", delay)
        time = self.now + delay
        if not time < _INF:  # also rejects NaN
            require(math.isfinite(time), "event time must be finite, got %r", time)
        timer = Timer((time, self._sequence, callback, args, _PENDING, self))
        self._sequence += 1
        heappush(self._queue, timer)
        self._live += 1
        return timer

    def defer(self, delay: float, callback: Callback, *args) -> None:
        """Fire-and-forget: run ``callback(*args)`` after ``delay`` seconds.

        For timers nobody will ever cancel.  No handle is returned, and
        the call is filed on the attached calendar as a
        :data:`DEFERRED` entry — an O(1) bucket append that the delivery
        drain fires in line, instead of a heap push, a heap pop and a
        preemption of the drain.  It takes the next sequence number
        exactly as :meth:`call_later` would, so the firing order is the
        same wherever the entry lives; with no calendar attached, or a
        due time past the ring horizon, it lives on the heap.
        """
        if delay < 0:
            require(delay >= 0, "delay must be >= 0, got %r", delay)
        now = self.now
        time = now + delay
        if not time < _INF:  # also rejects NaN
            require(math.isfinite(time), "event time must be finite, got %r", time)
        timeline = self._timeline
        on_heap = timeline is None
        if not on_heap:
            # DeliveryTimeline.add with its common branch inlined, as on
            # the network's send path: a future in-horizon bucket costs
            # one append and no frame.
            entry = [time, self._sequence, callback, DEFERRED, args]
            inv_width = timeline.inv_width
            idx = int(time * inv_width)
            base_idx = int(now * inv_width)
            if idx > timeline.cur_idx and idx - base_idx < timeline.horizon:
                slot = timeline._ring[idx & timeline._mask]
                if not slot:
                    heappush(timeline._order, idx)
                slot.append(entry)
                timeline.count += 1
            else:
                on_heap = not timeline.add(entry, base_idx)
        if on_heap:
            heappush(self._queue, [time, self._sequence, callback, args, _PENDING])
        self._sequence += 1
        self._live += 1

    def call_every(
        self,
        interval: float,
        callback: Callback,
        *,
        first_at: Optional[float] = None,
        jitter: Callable[[], float] = None,
    ) -> "PeriodicTimer":
        """Schedule ``callback`` every ``interval`` seconds.

        ``first_at`` sets the absolute time of the first invocation
        (defaults to ``now + interval``).  ``jitter``, if given, is
        called before each rescheduling and its return value is added to
        the interval — used to desynchronise gossip periods across
        nodes, as would naturally happen on a real testbed.
        """
        require(interval > 0, "interval must be > 0, got %r", interval)
        return PeriodicTimer(self, interval, callback, first_at=first_at, jitter=jitter)

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel_entry(self, entry: list) -> None:
        """Cancel a raw entry returned by :meth:`schedule`."""
        self._cancel(entry)

    def _cancel(self, entry: list) -> None:
        if entry[_STATUS] != _PENDING:
            return
        entry[_STATUS] = _CANCELLED
        entry[_CALLBACK] = None  # release references eagerly
        entry[_ARGS] = None
        self._live -= 1
        self._cancelled_in_heap += 1
        self._cancel_generation += 1
        # Compact when cancelled entries are the majority of the
        # *physical* heap.  len(queue) is always exact, unlike the live
        # counter, whose updates run() batches — comparing against
        # self._live here would leave compaction suppressed for the
        # whole of a long run() call.
        if (
            self._cancelled_in_heap >= _COMPACT_MIN
            and 2 * self._cancelled_in_heap > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (in place: the queue
        list identity is preserved for aliases held by the run loop)."""
        self._queue[:] = [e for e in self._queue if e[_STATUS] == _PENDING]
        heapify(self._queue)
        self._cancelled_in_heap = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next event.  Returns False when no live event remains."""
        queue = self._queue
        timeline = self._timeline
        if timeline is not None and timeline.count and (
            timeline.cur_pos < len(timeline.cur) or timeline.advance()
        ):
            d = timeline.cur[timeline.cur_pos]
            while queue:
                head = queue[0]
                if head[_STATUS] == _PENDING:
                    break
                heappop(queue)
                self._cancelled_in_heap -= 1
            if not queue or d[_TIME] < queue[0][_TIME] or (
                d[_TIME] == queue[0][_TIME] and d[_SEQ] < queue[0][_SEQ]
            ):
                fired = self._drain(_INF, 1)
                timeline.count -= fired
                self._live -= fired
                self._events_processed += fired
                return fired > 0
        while queue:
            entry = heappop(queue)
            if entry[_STATUS] != _PENDING:
                self._cancelled_in_heap -= 1
                continue
            self.now = entry[_TIME]
            self._live -= 1
            entry[_STATUS] = _FIRED
            self._events_processed += 1
            args = entry[_ARGS]
            if args:
                entry[_CALLBACK](*args)
            else:
                entry[_CALLBACK]()
            return True
        return False

    def run(self, *, until: float = math.inf, max_events: int = None) -> None:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` have *fired*.

        ``max_events`` counts events whose callback actually ran —
        cancelled timers skipped by lazy deletion do not count towards
        the budget.  When stopping at ``until``, the clock is advanced
        exactly to ``until`` so that a subsequent ``run`` resumes
        cleanly; an ``until`` already passed fires nothing and leaves
        the clock where it is — it only ever advances.

        The fired/live counters are accumulated in locals and written
        back when the loop exits (including on an exception): callbacks
        observing ``pending_events`` / ``events_processed`` *mid-run*
        see values as of the run's start, plus anything they scheduled
        or cancelled themselves.

        With a calendar attached the loop merges it with the heap by
        ``(time, seq)``: runs of calendar entries due before the next
        live heap event are handed to the drain in one call, so the
        per-event engine overhead is paid per *batch* of entries and
        per heap event, never per delivered message or deferred call.

        Automatic cyclic garbage collection is held off while events
        fire and the caller's setting is restored on every way out (a
        nested ``run`` finds it off and leaves it off; :meth:`step`
        does not touch it).  Nothing an event allocates is cyclic, so a
        collection in here walks a heap that grows with the run and
        frees nothing; a finished deployment, which is cyclic, is
        collected where the next is built (``SimCluster.__init__``).
        """
        collecting = gc.isenabled()
        gc.disable()
        fired = 0
        try:
            if self._timeline is not None:
                self._run_two_tier(until=until, max_events=max_events)
                return
            queue = self._queue
            unbounded = max_events is None
            pop = heappop  # localised: one global load per event adds up
            while queue:
                entry = queue[0]
                if entry[_STATUS] != _PENDING:
                    # Decrement immediately (not batched like the fired
                    # counters): a callback-triggered _compact() resets
                    # _cancelled_in_heap absolutely, and a deferred
                    # subtraction would double-count entries popped
                    # before the compaction.
                    pop(queue)
                    self._cancelled_in_heap -= 1
                    continue
                time = entry[_TIME]
                if time > until:
                    break
                if not unbounded and fired >= max_events:
                    return
                pop(queue)
                self.now = time
                entry[_STATUS] = _FIRED
                fired += 1
                args = entry[_ARGS]
                if args:
                    entry[_CALLBACK](*args)
                else:
                    entry[_CALLBACK]()
            if until != _INF and until > self.now:
                self.now = until
        finally:
            self._events_processed += fired
            self._live -= fired
            if collecting:
                gc.enable()

    def _run_two_tier(self, *, until: float, max_events: Optional[int]) -> None:
        """The run loop with the calendar queue attached.

        Same contract as :meth:`run`.  Heap events fire here; calendar
        entries (deliveries and deferred calls, one event each) fire
        inside the attached drain, which yields back whenever a live
        heap event is due first.
        """
        queue = self._queue
        timeline = self._timeline
        drain = self._drain
        fired = 0
        unbounded = max_events is None
        pop = heappop
        try:
            while True:
                head = None
                while queue:
                    entry = queue[0]
                    if entry[_STATUS] == _PENDING:
                        head = entry
                        break
                    pop(queue)
                    self._cancelled_in_heap -= 1
                if timeline.count and (
                    timeline.cur_pos < len(timeline.cur) or timeline.advance()
                ):
                    d = timeline.cur[timeline.cur_pos]
                    time = d[_TIME]
                    if head is None or time < head[_TIME] or (
                        time == head[_TIME] and d[_SEQ] < head[_SEQ]
                    ):
                        if time > until:
                            break
                        if not unbounded and fired >= max_events:
                            return
                        n = drain(until, _INF if unbounded else max_events - fired)
                        fired += n
                        timeline.count -= n
                        continue
                if head is None:
                    break
                time = head[_TIME]
                if time > until:
                    break
                if not unbounded and fired >= max_events:
                    return
                pop(queue)
                self.now = time
                head[_STATUS] = _FIRED
                fired += 1
                args = head[_ARGS]
                if args:
                    head[_CALLBACK](*args)
                else:
                    head[_CALLBACK]()
            if until != _INF and until > self.now:
                self.now = until
        finally:
            self._events_processed += fired
            self._live -= fired

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return self._live

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    @property
    def heap_size(self) -> int:
        """Physical heap length, including lazily-deleted entries.

        Exposed so tests (and the performance docs) can observe heap
        compaction; ``heap_size - pending_events`` is the number of
        cancelled entries still awaiting deletion.
        """
        return len(self._queue)

    @property
    def cancel_generation(self) -> int:
        """Total cancellations ever issued (monotone generation counter)."""
        return self._cancel_generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"


class PeriodicTimer:
    """Repeatedly fires a callback; created via :meth:`Simulator.call_every`.

    Reschedules through the engine's handle-free fast path, so a
    periodic timer costs one heap entry per tick and nothing else.
    """

    __slots__ = ("_sim", "interval", "_callback", "_jitter", "_entry", "stopped", "fire_count")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callback,
        *,
        first_at: Optional[float] = None,
        jitter: Callable[[], float] = None,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self.stopped = False
        self.fire_count = 0
        start = first_at if first_at is not None else sim.now + interval
        require(start >= sim.now, "first_at must be >= now (%r < %r)", start, sim.now)
        self._entry = sim.schedule(start, self._tick)

    def _tick(self) -> None:
        if self.stopped:
            return
        self.fire_count += 1
        self._callback()
        if self.stopped:  # callback may stop the timer
            return
        delay = self.interval + (self._jitter() if self._jitter is not None else 0.0)
        if delay <= 0:
            delay = self.interval
        sim = self._sim
        self._entry = sim.schedule(sim.now + delay, self._tick)

    def stop(self) -> None:
        """Stop firing; pending tick is cancelled."""
        self.stopped = True
        if self._entry is not None:
            self._sim._cancel(self._entry)
