"""The three-phase gossip dissemination protocol (paper §3).

Content is split into chunks; every gossip period ``T_g`` each node
*proposes* the chunk ids received since its last propose phase to ``f``
random partners, partners *request* the chunk ids they need, and the
proposer *serves* the requested chunks.  The protocol is infect-and-die:
a chunk is proposed exactly once by each node.

The package provides the stream source, the bounded local history log
that LiFTinG audits, and the protocol node itself; the wire messages
(with byte-accurate sizing for the overhead measurements) are
:mod:`repro.wire`.
"""

from repro.gossip.chunks import SOURCE_ID, Chunk, ChunkStore, StreamSource
from repro.gossip.history import LocalHistory, PeriodRecord
from repro.gossip.protocol import GossipNode

__all__ = [
    "Chunk",
    "ChunkStore",
    "GossipNode",
    "LocalHistory",
    "PeriodRecord",
    "SOURCE_ID",
    "StreamSource",
]
