"""Stream chunking and the broadcast source.

The source splits the stream into fixed-size chunks identified by a
monotonically increasing id, and pushes each fresh chunk to
``source_fanout`` random nodes (one :class:`~repro.wire.Serve`
each); dissemination to the remaining ``n - source_fanout`` nodes is the
gossip protocol's job.  The source does not take part in verification —
nodes recognise :data:`SOURCE_ID` and skip acks towards it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import GossipParams
from repro.membership.base import PeerSampler
from repro.sim.engine import Simulator
from repro.sim.network import Network, Transport
from repro.util.validation import require
from repro.wire import Serve

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


class ChunkStore:
    """A node's set of owned chunks with reception timestamps.

    The reception times are what the health metric (Figure 1) consumes:
    a node "views a clear stream at lag L" when almost all chunks arrive
    within ``L`` seconds of their creation.
    """

    def __init__(self) -> None:
        self._received_at: Dict[ChunkId, float] = {}
        #: chunk id -> payload size; the serve loop subscripts it
        #: directly, like ``owned`` below.
        self.sizes: Dict[ChunkId, int] = {}
        #: stable public alias of the chunk-id -> reception-time map;
        #: hot paths test membership against it directly instead of
        #: paying a ``__contains__`` frame per chunk id.
        self.owned = self._received_at

    def add(self, chunk_id: ChunkId, size: int, received_at: float) -> bool:
        """Record a chunk; returns False if it was already owned."""
        if chunk_id in self._received_at:
            return False
        self._received_at[chunk_id] = received_at
        self.sizes[chunk_id] = size
        return True

    def __contains__(self, chunk_id: ChunkId) -> bool:
        return chunk_id in self._received_at

    def __len__(self) -> int:
        return len(self._received_at)

    def received_at(self, chunk_id: ChunkId) -> float:
        """When the chunk arrived."""
        return self._received_at[chunk_id]


class StreamSource:
    """The broadcast source: emits chunks at the configured bitrate.

    Registered on the network like a node (``node_id == SOURCE_ID``) but
    follows a pure push schedule instead of the three-phase protocol.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        sampler: PeerSampler,
        params: GossipParams,
    ) -> None:
        self.node_id = SOURCE_ID
        self.sim = sim
        self.network = network
        self.sampler = sampler
        self.params = params
        self.chunks: List[Chunk] = []
        self._next_id = 0

    def start(self, first_at: float = 0.0) -> None:
        """Begin emitting chunks at ``first_at``."""
        self.sim.call_every(self.params.chunk_interval, self._emit, first_at=first_at)

    def _emit(self) -> None:
        chunk = Chunk(self._next_id, created_at=self.sim.now, size=self.params.chunk_size)
        self._next_id += 1
        self.chunks.append(chunk)
        targets = self.sampler.sample(self.node_id, self.params.source_fanout)
        serve = Serve(
            proposal_id=-1,
            chunk_id=chunk.chunk_id,
            payload_size=chunk.size,
            origin=SOURCE_ID,
        )
        self.network.send_many(self.node_id, targets, serve, Transport.UDP)

    def on_message(self, src: NodeId, message: object) -> None:
        """The source ignores inbound protocol traffic (acks etc.)."""

    @property
    def emitted(self) -> int:
        """Number of chunks emitted so far."""
        return self._next_id
