"""Network latency models.

PlanetLab links have heterogeneous delays; the paper's protocol is
timing-sensitive (chunks must be proposed within one gossip period of
reception, verifications run on timeouts), so latency is a first-class
model here rather than a constant.

Performance note
----------------
The stochastic models draw *blocks* of samples from numpy and hand them
out one at a time, refilling on exhaustion.  Numpy fills an array from
the exact same bit stream as repeated scalar draws, so the sample
sequence — and therefore every seeded experiment — is bit-for-bit
identical to per-call sampling while the per-send cost drops from one
RNG call to a list index.  The block buffers assume the model's
parameters are fixed after construction (they are everywhere in this
repo); mutate the generator or parameters and the pre-drawn block would
go stale.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.util.validation import require, require_non_negative

NodeId = int

#: Samples pre-drawn per refill of a stochastic model's block buffer.
SAMPLE_BLOCK = 1024


class LatencyModel(abc.ABC):
    """Draws the one-way delay for a message from ``src`` to ``dst``."""

    @abc.abstractmethod
    def sample(self, src: NodeId, dst: NodeId) -> float:
        """One-way latency in seconds for this transmission."""

    def delivery_window(self) -> tuple:
        """``(min_delay, span)`` hint for the delivery-plane scheduler.

        ``min_delay`` is a *lower bound* on any delay the model can
        produce and ``span`` the typical spread of delays; both only
        size the calendar-queue buckets.  Unknown models return
        ``(0.0, 0.0)``: the timeline still works, with the 1 ms floor
        as bucket width.
        """
        return (0.0, 0.0)


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds."""

    def __init__(self, delay: float = 0.05) -> None:
        self.delay = require_non_negative(delay, "delay")

    def sample(self, src: NodeId, dst: NodeId) -> float:
        return self.delay

    def delivery_window(self) -> tuple:
        return (self.delay, 0.0)


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` per message."""

    def __init__(self, rng: np.random.Generator, low: float = 0.02, high: float = 0.12) -> None:
        require_non_negative(low, "low")
        require(high >= low, "high (%r) must be >= low (%r)", high, low)
        self._rng = rng
        self.low = low
        self.high = high
        self._block: list = []
        self._next = 0

    def sample(self, src: NodeId, dst: NodeId) -> float:
        i = self._next
        block = self._block
        if i >= len(block):
            block = self._block = self._rng.uniform(self.low, self.high, SAMPLE_BLOCK).tolist()
            i = 0
        self._next = i + 1
        return block[i]

    def delivery_window(self) -> tuple:
        return (self.low, self.high - self.low)
