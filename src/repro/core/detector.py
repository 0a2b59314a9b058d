"""Expulsion enforcement.

Expulsion in the paper is carried out "using the very same managers"
(§5.1): a quorum of a node's managers observing its compensated score
below ``η`` (or an auditor whose entropy checks failed) triggers it.
This module is the enforcement end shared by the simulator and the
runtime: it takes the node off the host's fabric (``host.expel``),
removes it from the peer samplers, and records when (``host.clock``)
and why for the metrics layer.

The controller can run in *observation mode* (``enabled=False``): every
would-be expulsion is recorded but not enforced.  Figure 14 needs this
— the paper reports full score CDFs including freeriders well past the
threshold, then applies the threshold analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.membership.base import PeerSampler

NodeId = int


@dataclass(frozen=True)
class ExpulsionRecord:
    """One expulsion (or would-be expulsion in observation mode)."""

    node: NodeId
    time: float
    reason: str
    enforced: bool


class ExpulsionController:
    """Cluster-side expulsion: disconnect + deregister + record."""

    def __init__(
        self,
        host,
        samplers: Iterable[PeerSampler] = (),
        *,
        enabled: bool = True,
        on_expel: Optional[Callable[[ExpulsionRecord], None]] = None,
    ) -> None:
        self.host = host
        self.samplers = list(samplers)
        self.enabled = enabled
        self.on_expel = on_expel
        self.records: Dict[NodeId, ExpulsionRecord] = {}

    def expel(self, target: NodeId, reason: str) -> bool:
        """Expel ``target``; returns False if already expelled."""
        if target in self.records:
            return False
        record = ExpulsionRecord(
            node=target,
            time=self.host.clock(),
            reason=reason,
            enforced=self.enabled,
        )
        self.records[target] = record
        if self.enabled:
            self.host.expel(target)
            for sampler in self.samplers:
                # Record the expulsion in the lifecycle ledger (rejoin
                # refused permanently), not just a plain removal.
                sampler.mark_expelled(target)
        if self.on_expel is not None:
            self.on_expel(record)
        return True

    def is_expelled(self, node: NodeId) -> bool:
        """Whether ``node`` has been (or would have been) expelled."""
        record = self.records.get(node)
        return record is not None and record.enforced

    def expelled_nodes(self) -> List[NodeId]:
        """All nodes with an expulsion record (enforced or observed)."""
        return list(self.records.keys())

    def records_by_reason(self, reason_prefix: str) -> List[ExpulsionRecord]:
        """Expulsion records whose reason starts with ``reason_prefix``."""
        return [r for r in self.records.values() if r.reason.startswith(reason_prefix)]
