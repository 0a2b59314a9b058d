"""Byte- and message-level accounting.

Table 5 of the paper reports the *bandwidth overhead* of LiFTinG: bytes
spent on verification traffic (acks, confirms, confirm responses,
blames, score reads) relative to bytes spent on the data path (propose /
request / serve).  Table 3 reports per-role *message counts*.  The
:class:`MessageTrace` records both, keyed by message kind and by the
category the message class declares (``data``, ``verification``,
``reputation`` or ``control``).

Performance note
----------------
Recording runs once per transmission — it is on the hottest path of the
simulator — so the write side is a single ``(sender, message class)``
keyed counter pair per send and one class-keyed counter per loss /
delivery.  The kind/category/per-node views the metrics layer consumes
are *aggregated on demand* from those flat counters: experiments read a
trace a handful of times per run, so moving the fan-out from the
per-send path (five dict updates in the old layout) to the query side
is a net win of several dict operations per message.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

NodeId = int


def _new_sent_entry() -> list:
    """``[count, bytes]`` accumulator (module-level: traces pickle)."""
    return [0, 0]


def _new_per_src() -> "defaultdict":
    return defaultdict(_new_sent_entry)

CATEGORY_DATA = "data"
CATEGORY_VERIFICATION = "verification"
CATEGORY_REPUTATION = "reputation"
CATEGORY_CONTROL = "control"

ALL_CATEGORIES = (
    CATEGORY_DATA,
    CATEGORY_VERIFICATION,
    CATEGORY_REPUTATION,
    CATEGORY_CONTROL,
)


# class -> (kind, category); the name / CATEGORY attribute probes are
# pure per-type functions, cached for the aggregation passes.
_CLASS_META: Dict[type, tuple] = {}


def _class_meta(cls: type) -> tuple:
    meta = _CLASS_META.get(cls)
    if meta is None:
        meta = _CLASS_META[cls] = (
            cls.__name__,
            getattr(cls, "CATEGORY", CATEGORY_CONTROL),
        )
    return meta


class MessageTrace:
    """Accumulates message counts and byte volumes.

    The write-side state is flat: ``message class -> {src -> [count,
    bytes]}`` for sends and ``class -> count`` for losses / deliveries.
    All public queries aggregate those counters on demand and preserve
    the original ``(kind | category, node)`` views.

    :class:`~repro.sim.network.Network` updates the underlying mappings
    *inline* on its send/deliver path (the structures are the recording
    interface there); :meth:`record_sent` is the same update as a call,
    for building a trace by hand.
    """

    def __init__(self) -> None:
        #: cls -> {src -> [sent_count, sent_bytes]}; defaultdicts so the
        #: network's inline accounting is one auto-vivifying subscript
        #: per send instead of a get-miss-insert dance per message.
        self._sent: Dict[type, Dict[NodeId, List[int]]] = defaultdict(_new_per_src)
        self._lost: Dict[type, int] = defaultdict(int)
        self._delivered: Dict[type, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_sent(self, src: NodeId, message: object, size: int) -> None:
        """Account an outgoing message (before any loss decision)."""
        entry = self._sent[message.__class__][src]
        entry[0] += 1
        entry[1] += size

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def sent_count(self, kind: Optional[str] = None) -> int:
        """Messages sent, for one ``kind`` or in total."""
        return sum(
            entry[0]
            for cls, per_src in self._sent.items()
            if kind is None or cls.__name__ == kind
            for entry in per_src.values()
        )

    def sent_bytes(self, kind: Optional[str] = None) -> int:
        """Bytes sent, for one ``kind`` or in total."""
        return sum(
            entry[1]
            for cls, per_src in self._sent.items()
            if kind is None or cls.__name__ == kind
            for entry in per_src.values()
        )

    def lost_count(self, kind: Optional[str] = None) -> int:
        """Datagrams lost, for one ``kind`` or in total."""
        if kind is None:
            return sum(self._lost.values())
        return sum(count for cls, count in self._lost.items() if cls.__name__ == kind)

    def delivered_count(self, kind: Optional[str] = None) -> int:
        """Messages delivered, for one ``kind`` or in total."""
        if kind is None:
            return sum(self._delivered.values())
        return sum(
            count for cls, count in self._delivered.items() if cls.__name__ == kind
        )

    def category_bytes(self, category: str) -> int:
        """Total bytes sent in ``category`` across all nodes."""
        return sum(
            entry[1]
            for cls, per_src in self._sent.items()
            if _class_meta(cls)[1] == category
            for entry in per_src.values()
        )

    def sent_counts_by_kind(self) -> Dict[str, int]:
        """``kind -> messages sent`` for every kind observed, in one
        pass over the counters (the metrics layer reads all kinds at
        once)."""
        totals: Dict[str, int] = {}
        for cls, per_src in self._sent.items():
            kind = cls.__name__
            totals[kind] = totals.get(kind, 0) + sum(
                entry[0] for entry in per_src.values()
            )
        return totals

    def category_bytes_all(self) -> Dict[str, int]:
        """``category -> bytes sent`` for every category in one pass."""
        totals: Dict[str, int] = {category: 0 for category in ALL_CATEGORIES}
        for cls, per_src in self._sent.items():
            category = _class_meta(cls)[1]
            totals[category] = totals.get(category, 0) + sum(
                entry[1] for entry in per_src.values()
            )
        return totals
