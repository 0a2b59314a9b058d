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


class LogNormalLatency(LatencyModel):
    """Heavy-tailed latency, the common fit for wide-area RTT samples.

    ``median`` is the median one-way delay and ``sigma`` the log-space
    dispersion; samples are optionally capped at ``cap`` to avoid
    unbounded tail events destabilising small experiments.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        median: float = 0.05,
        sigma: float = 0.5,
        cap: float = 2.0,
    ) -> None:
        self._rng = rng
        self.median = require_non_negative(median, "median")
        self.sigma = require_non_negative(sigma, "sigma")
        self.cap = require_non_negative(cap, "cap")
        self._block: list = []
        self._next = 0

    def sample(self, src: NodeId, dst: NodeId) -> float:
        i = self._next
        block = self._block
        if i >= len(block):
            raw = self._rng.lognormal(
                mean=np.log(self.median), sigma=self.sigma, size=SAMPLE_BLOCK
            )
            block = self._block = np.minimum(raw, self.cap).tolist()
            i = 0
        self._next = i + 1
        return block[i]

    def delivery_window(self) -> tuple:
        # A lognormal's infimum is 0, and the median (not the cap)
        # sizes the buckets — the tail is rare by design.
        return (0.0, self.median)


class PerNodeLatency(LatencyModel):
    """Adds per-node access delays on top of a base model.

    Models PlanetLab's slow hosts: a message's delay is
    ``base.sample() + access[src] + access[dst]``.  Nodes without an
    entry have zero access delay.
    """

    def __init__(self, base: LatencyModel, access_delay: dict = None) -> None:
        self.base = base
        self.access_delay = dict(access_delay or {})

    def set_access_delay(self, node: NodeId, delay: float) -> None:
        """Set the access-link delay for ``node``."""
        self.access_delay[node] = require_non_negative(delay, "delay")

    def sample(self, src: NodeId, dst: NodeId) -> float:
        return (
            self.base.sample(src, dst)
            + self.access_delay.get(src, 0.0)
            + self.access_delay.get(dst, 0.0)
        )

    def delivery_window(self) -> tuple:
        # Access delays only add: the base minimum stays a lower bound.
        base_min, base_span = self.base.delivery_window()
        return (base_min, base_span)
