"""Sybil blame-stuffing: coordinated defamation of honest targets.

A group of adversarial identities shares one :class:`StuffingCampaign` —
a small set of honest victims and a per-identity blame rate — and every
member pours that budget onto the victims each period, trying to push an
honest score under η before the system notices.  LiFTinG's defenses are
structural, not cryptographic: blames are *averaged over the node's
lifetime* (a burst decays as ``1/r``), expulsion needs a **quorum** of
managers plus a grace period, and the stuffers — who also freeride to
make the identities worth running — keep accruing their own statistical
blame the whole time.  The ``sybil_blame`` scenario sweeps the stuffing
rate and measures both sides of the race: wrongful expulsions among the
victims versus detection of the stuffers themselves.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import FreeriderDegree
from repro.nodes.freerider import FreeriderBehavior
from repro.util.validation import require_int, require_non_negative

from repro.adversary.policy import AdversaryContext, BehaviorPolicy, register

NodeId = int


class StuffingCampaign:
    """Shared target list and cadence of a stuffing group."""

    def __init__(
        self, victims: Tuple[NodeId, ...], rate: float, start_period: int
    ) -> None:
        self.victims = tuple(victims)
        #: blame units each member stuffs per victim per period.
        self.rate = rate
        #: first period of the attack (a warm-up makes the burst look
        #: less like a joining artefact).
        self.start_period = start_period
        self.blames_stuffed = 0.0


class SybilStufferBehavior(FreeriderBehavior):
    """One stuffing identity: freerides and defames the victims."""

    __slots__ = ("campaign", "members")

    name = "sybil_stuffer"

    def __init__(
        self,
        degree: FreeriderDegree,
        campaign: StuffingCampaign,
        members: frozenset = frozenset(),
    ) -> None:
        super().__init__(degree)
        self.campaign = campaign
        self.members = members

    def on_period_start(self, period: int) -> None:
        campaign = self.campaign
        if period < campaign.start_period or campaign.rate <= 0.0:
            return
        for victim in campaign.victims:
            self.node.send_blame(victim, campaign.rate, "stuffed")
            campaign.blames_stuffed += campaign.rate

    def should_blame(self, target: NodeId) -> bool:
        # Never blame a fellow stuffer: mutual silence delays the
        # group's own detection by one manager testimony each.
        return target not in self.members

    def __repr__(self) -> str:
        return f"SybilStufferBehavior({self.degree}, victims={self.campaign.victims})"


@register
class SybilBlamePolicy(BehaviorPolicy):
    """All adversarial nodes join one coordinated stuffing campaign."""

    name = "sybil_blame"

    def __init__(
        self,
        rate: float = 1.0,
        victims: int = 2,
        start_period: int = 10,
        delta: float = 0.5,
    ) -> None:
        self.rate = require_non_negative(rate, "rate")
        self.victim_count = require_int(victims, "victims", minimum=1)
        self.start_period = require_int(start_period, "start_period", minimum=0)
        self.degree = FreeriderDegree.uniform(delta)

    def prepare(self, ctx: AdversaryContext) -> None:
        honest = sorted(ctx.honest_ids)
        count = min(self.victim_count, len(honest))
        picked = ctx.rng.choice(len(honest), size=count, replace=False)
        self.campaign = StuffingCampaign(
            tuple(honest[int(i)] for i in sorted(picked)),
            self.rate,
            self.start_period,
        )
        self._members = frozenset(ctx.freerider_ids)

    def build(self, node_id: NodeId) -> SybilStufferBehavior:
        return SybilStufferBehavior(self.degree, self.campaign, self._members)
