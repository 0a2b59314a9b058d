"""The discrete-event engine: a simulated clock and one ordered event spine.

Design notes
------------
* Every event draws its tie-break from one monotonically increasing
  sequence counter and fires in ``(time, seq)`` order, so two events
  scheduled for the same instant fire in scheduling order — this keeps
  runs fully deterministic.  The spine is held in two containers, and
  what decides where an event lives is *whether anyone may take it
  back*:

  - the **calendar** — an optionally attached :class:`DeliveryTimeline`
    of fixed-width time buckets — holds everything that is scheduled
    and then simply happens: network deliveries (filed by
    :mod:`repro.sim.network`) and every relative-delay call
    (:meth:`Simulator.call_later`).  LiFTinG's timers are deadlines at
    which state is inspected — the ack, confirm and serve windows, the
    failure detector's probe timeouts, audit deadlines, score reads,
    scripted faults — so a timeout that no longer matters finds nothing
    to do and nobody needs a handle to disarm it.  Filing is an O(1)
    bucket append instead of an O(log n) sift, and firing is an
    amortized O(1) walk of a once-sorted bucket;
  - the **binary heap** holds what is left: plain-list entries ``[time,
    seq, callback, args]`` filed at an absolute time by
    :meth:`Simulator.schedule` — period ticks, which reschedule
    themselves and which :meth:`Simulator.unschedule` takes back when a
    node stops — plus the rare calendar entry due beyond the ring
    horizon.  With no calendar attached it holds everything.

  The run loop merges the two by ``(time, seq)``, so the global firing
  order is *identical* to a single heap's by construction — the same
  counter is read at the same call sites whichever container receives
  the entry (pinned by the heap-vs-calendar equivalence tests).
* No closure is required on the hot path: callers pass positional
  ``args`` inline (``sim.schedule(t, fn, a, b)``, ``sim.call_later(d,
  fn, a)``) instead of wrapping them in a lambda.
* Nothing is cancelled lazily: an entry in either container is an event
  that will fire, so ``pending_events`` is the two lengths added and
  the loops never skip.  Taking a heap entry back is eager and rare (a
  node stopping its period tick; a restart purging in-flight
  deliveries) and pays one ``heapify``.
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

# Heap-entry slots: [_TIME, _SEQ, _CALLBACK, _ARGS]; the unique _SEQ
# guarantees heap comparisons never look past the first two slots.
_TIME = 0
_SEQ = 1
_CALLBACK = 2
_ARGS = 3


class _Deferred:
    """Type of :data:`DEFERRED`, the mark of a deferred-call calendar entry."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DEFERRED"


#: Occupies the ``dst`` slot of a calendar entry filed by
#: :meth:`Simulator.call_later` — ``(time, seq, callback, DEFERRED, args)``
#: beside a delivery's ``(time, seq, src, dst, message)``.  The drain
#: tells the two apart by identity on that slot, so no message payload
#: (``None``, an ``int``, a tuple) can be mistaken for a call; and with
#: the default identity ``__eq__`` it equals no node id, so code that
#: matches entries by destination never matches a deferred call.
DEFERRED = _Deferred()


class DeliveryTimeline:
    """The calendar queue: deliveries and deferred calls, never taken back.

    A ring of ``ring_size`` fixed-width time buckets; entries are
    five-slot tuples — ``(time, seq, src, dst, message)`` for a network
    delivery, ``(time, seq, callback, DEFERRED, args)`` for a
    :meth:`Simulator.call_later` call — appended unsorted and sorted once
    when their bucket becomes *current* (the tuple comparison stops at
    the unique ``seq``, so ties are broken exactly like heap entries and
    the later slots are never compared; a bucket mixing lists and tuples
    would raise ``TypeError``).  Nothing takes an entry back, so a tuple
    (one allocation, where a list is two) suffices.  A small heap of
    occupied bucket indices makes cursor advancement O(1) amortized
    regardless of how sparse the timeline is — no empty-bucket scans.
    An entry someone may take back belongs on the engine's heap
    (``schedule`` / ``unschedule``).

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
      when a heap event fires inside a gap the cursor skipped over)
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

    def add(self, entry: tuple, base_idx: int) -> bool:
        """Insert ``entry`` (a delivery or a deferred call, see above).

        ``base_idx`` is ``int(now * inv_width)``.  Returns False when
        the entry lies beyond the ring horizon — the caller must then
        schedule it on the heap instead.  The two hot callers — the
        network's send path and :meth:`Simulator.call_later` — inline the
        common branch of this method; this method is the reference
        implementation and the rare-branch handler.
        """
        idx = int(entry[0] * self.inv_width)
        if idx - base_idx >= self.horizon:
            return False
        cur_idx = self.cur_idx
        if idx == cur_idx:
            # Lands in the bucket being drained: its seq exceeds every
            # existing entry's and its time is >= now, so it sorts in at
            # or after the cursor.
            insort(self.cur, entry, self.cur_pos)
        else:
            if idx < cur_idx:
                # The cursor skipped this (then-empty) bucket; rewind.
                # The current bucket cannot have been touched yet: an
                # entry of it having fired would put ``now`` (and hence
                # ``entry``) past this bucket.
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
    >>> sim.call_later(2.0, order.append, "b")
    >>> sim.call_later(1.0, order.append, "a")
    >>> sim.run()
    >>> order, sim.now
    (['a', 'b'], 2.0)
    """

    __slots__ = (
        "now",
        "_queue",
        "_sequence",
        "_events_processed",
        "_timeline",
        "_drain",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._queue: List[list] = []
        self._sequence = 0
        self._events_processed = 0
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
        back when a heap event is due first, an entry is due past
        ``until``, ``budget`` entries have fired, or the timeline is
        exhausted — and return how many entries it fired.  An entry
        (a five-slot tuple) whose ``dst`` slot is :data:`DEFERRED` is a
        call filed by :meth:`call_later`: the drain must run
        ``entry[2](*entry[4])`` and count it as one fired entry.  The
        network owns the drain so delivery semantics stay out of the engine.
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
        """File ``callback(*args)`` on the heap at absolute simulated ``time``.

        The args are stored inline in the heap entry so callers need no
        closure.  Returns the heap entry (opaque; the one thing to do
        with it is hand it to :meth:`unschedule`).  Scheduling in the
        past raises — that is always a logic error in protocol code
        (e.g. a negative latency).
        """
        if not (self.now <= time < _INF):  # also rejects NaN
            raise ValueError(
                f"event time must be finite and >= now={self.now!r}, got {time!r}"
            )
        entry = [time, self._sequence, callback, args]
        self._sequence += 1
        heappush(self._queue, entry)
        return entry

    def unschedule(self, entry: list) -> bool:
        """Take back an entry :meth:`schedule` returned; False once it
        fired or was already taken back.

        Eager: the entry leaves the heap now, in place — a ``run`` in
        progress and the delivery drain alias the list.  Meant for the
        rare stop (a node's period tick at a crash), not for timeouts:
        those are deadlines that inspect state (:meth:`call_later`).
        """
        queue = self._queue
        try:
            queue.remove(entry)
        except ValueError:
            return False
        heapify(queue)
        return True

    def call_later(self, delay: float, callback: Callback, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Fire-and-forget: no handle is returned and nothing can take the
        call back — a deadline inspects state when it fires.  It is
        filed on the attached calendar as a :data:`DEFERRED` entry, an
        O(1) bucket append that the delivery drain fires in line.  It
        takes the next sequence number exactly as :meth:`schedule`
        would, so the firing order is the same wherever the entry lives;
        with no calendar attached, or a due time past the ring horizon,
        it lives on the heap.
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
            entry = (time, self._sequence, callback, DEFERRED, args)
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
            heappush(self._queue, [time, self._sequence, callback, args])
        self._sequence += 1

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
    # execution
    # ------------------------------------------------------------------
    def run(self, *, until: float = math.inf, max_events: int = None) -> None:
        """Run events until both containers drain, ``until`` passes, or
        ``max_events`` have fired.

        When stopping at ``until``, the clock is advanced exactly to
        ``until`` so that a subsequent ``run`` resumes cleanly; an
        ``until`` already passed fires nothing and leaves the clock
        where it is — it only ever advances.

        The fired counter is accumulated in a local and written back
        when the loop exits (including on an exception), and the
        calendar's length is settled when its drain returns: callbacks
        observing ``events_processed`` / ``pending_events`` *mid-run*
        see values as of the last hand-over between the containers,
        plus anything they scheduled themselves.

        With a calendar attached the loop merges it with the heap by
        ``(time, seq)``: runs of calendar entries due before the next
        heap event are handed to the drain in one call, so the
        per-event engine overhead is paid per *batch* of entries and
        per heap event, never per delivered message or deferred call.

        Automatic cyclic garbage collection is held off while events
        fire and the caller's setting is restored on every way out (a
        nested ``run`` finds it off and leaves it off).  Nothing an
        event allocates is cyclic, so a collection in here walks a heap
        that grows with the run and frees nothing; a finished
        deployment, which is cyclic, is collected where the next is
        built (``SimCluster.__init__``).

        A nested ``run`` is supported from a heap callback only (whose
        entry is popped before it fires).  From a calendar entry — a
        delivery handler or a ``call_later`` callback — the drain's
        cursor and count are mid-update and a nested ``run`` is
        unsupported.
        """
        collecting = gc.isenabled()
        gc.disable()
        queue = self._queue
        timeline = self._timeline
        drain = self._drain
        fired = 0
        unbounded = max_events is None
        pop = heappop  # localised: one global load per event adds up
        try:
            while True:
                head = queue[0] if queue else None
                if timeline is not None and timeline.count and (
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
            if collecting:
                gc.enable()

    @property
    def pending_events(self) -> int:
        """Number of events still queued, heap and calendar together."""
        timeline = self._timeline
        return len(self._queue) + (timeline.count if timeline is not None else 0)

    @property
    def events_processed(self) -> int:
        """Total events executed so far."""
        return self._events_processed

    @property
    def heap_size(self) -> int:
        """Entries on the heap tier alone (period ticks, ``schedule``
        calls, past-horizon outliers; everything without a calendar)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"


class PeriodicTimer:
    """Repeatedly fires a callback; created via :meth:`Simulator.call_every`.

    Each tick files the next with :meth:`Simulator.schedule`, so a
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
        """Stop firing; the pending tick leaves the heap now.  From
        inside the timer's own callback that tick is already popped and
        there is nothing to take back.  The entry holds the bound
        ``_tick``; letting go of it keeps a stopped timer out of a
        reference cycle, so a crashed node's old timer dies by refcount
        while ``Simulator.run`` holds the collector off."""
        self.stopped = True
        self._sim.unschedule(self._entry)
        self._entry = None
