"""Bandwidth and message overhead (Tables 3 and 5).

Table 5's metric is the bandwidth of LiFTinG's verification and blaming
traffic relative to the dissemination traffic.  The
:class:`~repro.sim.trace.MessageTrace` already splits bytes by category;
this module turns it into the paper's percentages and into per-node
per-period message counts for Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.trace import MessageTrace
from repro.util.validation import require
from repro.wire import CATEGORY_DATA, CATEGORY_REPUTATION, CATEGORY_VERIFICATION


@dataclass(frozen=True)
class OverheadReport:
    """Byte volumes and the headline overhead percentage."""

    data_bytes: int
    verification_bytes: int
    reputation_bytes: int
    duration: float
    n_nodes: int

    @property
    def overhead_bytes(self) -> int:
        """Verification + blaming bytes (Table 5's numerator)."""
        return self.verification_bytes + self.reputation_bytes

    @property
    def overhead_ratio(self) -> float:
        """Overhead bytes / data bytes — Table 5's percentage."""
        if self.data_bytes == 0:
            return 0.0
        return self.overhead_bytes / self.data_bytes

    @property
    def overhead_percent(self) -> float:
        """Same, in percent."""
        return 100.0 * self.overhead_ratio


def bandwidth_overhead(trace: MessageTrace, duration: float, n_nodes: int) -> OverheadReport:
    """Build an :class:`OverheadReport` from a message trace."""
    require(duration > 0, "duration must be > 0")
    require(n_nodes > 0, "n_nodes must be > 0")
    by_category = trace.category_bytes_all()
    return OverheadReport(
        data_bytes=by_category[CATEGORY_DATA],
        verification_bytes=by_category[CATEGORY_VERIFICATION],
        reputation_bytes=by_category[CATEGORY_REPUTATION],
        duration=duration,
        n_nodes=n_nodes,
    )


def message_counts_per_node_period(
    trace: MessageTrace, duration: float, n_nodes: int, gossip_period: float
) -> Dict[str, float]:
    """Average messages sent per node per gossip period, by kind.

    The Table 3 benchmark compares these against the expected-count
    model of :mod:`repro.analysis.overhead`.
    """
    require(duration > 0 and n_nodes > 0 and gossip_period > 0, "invalid normalisation")
    periods = duration / gossip_period
    return {
        kind: count / n_nodes / periods
        for kind, count in sorted(trace.sent_counts_by_kind().items())
    }
