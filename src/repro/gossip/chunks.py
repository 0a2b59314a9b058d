"""Stream chunking and the broadcast source.

The source splits the stream into fixed-size chunks identified by a
monotonically increasing id, and pushes each fresh chunk to
``source_fanout`` random nodes (one :class:`~repro.wire.Serve`
each); dissemination to the remaining ``n - source_fanout`` nodes is the
gossip protocol's job.  The source does not take part in verification —
nodes recognise :data:`SOURCE_ID` and skip acks towards it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List

from repro.config import GossipParams
from repro.membership.base import PeerSampler
from repro.util.validation import require
from repro.wire import UDP, Serve

NodeId = int
ChunkId = int

SOURCE_ID: NodeId = -1


@dataclass(frozen=True)
class Chunk:
    """One unit of stream content."""

    chunk_id: ChunkId
    created_at: float
    size: int

    def __post_init__(self) -> None:
        require(self.size > 0, "chunk size must be > 0, got %d", self.size)


#: A page holds the 64 ids sharing ``chunk_id >> PAGE_BITS``, chunk
#: ``c`` at offset ``c & PAGE_MASK`` in it; the hot readers in
#: :mod:`repro.gossip.protocol` index the columns with these inline.
PAGE_BITS = 6
PAGE_MASK = (1 << PAGE_BITS) - 1
#: The reception time of a slot that holds no chunk: no clock reads it.
NOT_OWNED = -math.inf
_EMPTY_TIMES = array("d", [NOT_OWNED]) * (1 << PAGE_BITS)
_EMPTY_SIZES = array("q", [0]) * (1 << PAGE_BITS)


class ChunkStore:
    """A node's set of owned chunks with reception timestamps.

    The reception times are what the health metric (Figure 1) consumes:
    a node "views a clear stream at lag L" when almost all chunks arrive
    within ``L`` seconds of their creation.

    The store is the one per-node structure that grows with the run, so
    a chunk costs 16 bytes in it, not objects: two unboxed columns,
    :attr:`times` (``array('d')``, :data:`NOT_OWNED` in a free slot) and
    :attr:`payload_sizes` (``array('q')``, exact for any int64), grown a
    page of 64 slots at a time, and :attr:`pages`, page index -> the
    page's first slot.  Chunk ``c`` lives in slot
    ``pages[c >> PAGE_BITS] + (c & PAGE_MASK)``.  Any int is an id,
    negative or huge; an id in no existing page costs one page (1 KiB
    of columns and a dict entry), and a stream's ids fill theirs.
    """

    __slots__ = ("pages", "times", "payload_sizes", "count", "_slots")

    def __init__(self) -> None:
        #: page index -> its first slot in the columns; hot paths test
        #: membership and read sizes through it directly instead of
        #: paying a method frame per chunk id.
        self.pages: Dict[int, int] = {}
        self.times = array("d")
        self.payload_sizes = array("q")
        #: owned chunks, ``len(store)``; a node's serve path fills a slot
        #: of an open page itself and bumps this, and calls :meth:`add`
        #: only to open a page.
        self.count = 0
        #: ``len(times)``, kept so that opening a page makes no call.
        self._slots = 0

    def add(self, chunk_id: ChunkId, size: int, received_at: float) -> bool:
        """Record a chunk; returns False if it was already owned."""
        if received_at == NOT_OWNED:
            raise ValueError("a reception time must be a clock reading, got -inf")
        index = chunk_id >> PAGE_BITS
        pages = self.pages
        times = self.times
        if index in pages:
            slot = pages[index] + (chunk_id & PAGE_MASK)
            if times[slot] != NOT_OWNED:
                return False
        else:
            first = pages[index] = self._slots
            self._slots = first + (1 << PAGE_BITS)
            # In place and call-free: the columns keep their identity.
            times += _EMPTY_TIMES
            self.payload_sizes += _EMPTY_SIZES
            slot = first + (chunk_id & PAGE_MASK)
        # The size first: one outside int64 raises before the slot is taken.
        self.payload_sizes[slot] = size
        times[slot] = received_at
        self.count += 1
        return True

    def __contains__(self, chunk_id: ChunkId) -> bool:
        pages = self.pages
        index = chunk_id >> PAGE_BITS
        return (
            index in pages and self.times[pages[index] + (chunk_id & PAGE_MASK)] != NOT_OWNED
        )

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[ChunkId]:
        """The owned ids, page by page in the order pages were opened."""
        times = self.times
        for index, first in self.pages.items():
            base = index << PAGE_BITS
            for offset in range(1 << PAGE_BITS):
                if times[first + offset] != NOT_OWNED:
                    yield base + offset

    def _slot(self, chunk_id: ChunkId) -> int:
        index = chunk_id >> PAGE_BITS
        if index in self.pages:
            slot = self.pages[index] + (chunk_id & PAGE_MASK)
            if self.times[slot] != NOT_OWNED:
                return slot
        raise KeyError(chunk_id)

    def received_at(self, chunk_id: ChunkId) -> float:
        """When the chunk arrived (``KeyError`` if it is not owned)."""
        return self.times[self._slot(chunk_id)]

    def size_of(self, chunk_id: ChunkId) -> int:
        """The chunk's payload size (``KeyError`` if it is not owned)."""
        return self.payload_sizes[self._slot(chunk_id)]

    def arrivals(self, chunk_ids: Iterable[ChunkId]) -> List[float]:
        """The reception time of each id, :data:`NOT_OWNED` for one the
        node lacks: one frame for a whole stream, none per chunk."""
        pages = self.pages
        times = self.times
        return [
            times[pages[c >> PAGE_BITS] + (c & PAGE_MASK)]
            if c >> PAGE_BITS in pages
            else NOT_OWNED
            for c in chunk_ids
        ]


class StreamSource:
    """The broadcast source: emits chunks at the configured bitrate.

    Registered on the fabric like a node (``node_id == SOURCE_ID``) but
    follows a pure push schedule instead of the three-phase protocol.
    ``host`` is the plane's side of the host contract
    (:mod:`repro.gossip.protocol`): the source reads its ``timeline``
    and uses its ``call_every`` and ``send_many``, so one class serves
    the simulator and the live runtime.
    """

    def __init__(self, host, sampler: PeerSampler, params: GossipParams) -> None:
        self.node_id = SOURCE_ID
        self.host = host
        self.sampler = sampler
        self.params = params
        self.chunks: List[Chunk] = []
        self._next_id = 0

    def start(self, first_delay: float = 0.0):
        """Begin emitting chunks ``first_delay`` seconds from now; returns
        the host's periodic handle (``stop()`` ends the stream)."""
        return self.host.call_every(
            self.params.chunk_interval, self._emit, first_delay=first_delay
        )

    def _emit(self) -> None:
        params = self.params
        chunk = Chunk(self._next_id, created_at=self.host.timeline.now, size=params.chunk_size)
        self._next_id += 1
        self.chunks.append(chunk)
        targets = self.sampler.sample(self.node_id, params.source_fanout)
        serve = Serve(
            proposal_id=-1,
            chunk_id=chunk.chunk_id,
            payload_size=chunk.size,
            origin=SOURCE_ID,
        )
        self.host.send_many(self.node_id, targets, serve, UDP)

    def on_message(self, src: NodeId, message: object) -> None:
        """The source ignores inbound protocol traffic (acks etc.)."""

    @property
    def emitted(self) -> int:
        """Number of chunks emitted so far."""
        return self._next_id
