"""The coalition: the paper's colluders, optionally laundering blame.

At ``launder=0`` this *is* the paper's coalition (§4.1(iii): mutual
confirms, never blame each other, biased partner selection, optionally
the man-in-the-middle attack and forged audit histories).  A positive
budget adds an attack the paper does not model: *blame laundering*
(see :class:`~repro.nodes.colluder.ColludingBehavior`).  The coalition
thereby converts the one resource the detector cannot audit (the right
to praise) into score, and the sweep in the ``coalition`` scenario
measures how much laundering η absorbs before freeriders escape.
"""

from __future__ import annotations

from repro.config import FreeriderDegree
from repro.nodes.colluder import Coalition, ColludingBehavior
from repro.util.validation import require, require_int, require_non_negative, require_probability

from repro.adversary.policy import AdversaryContext, BehaviorPolicy, Degree, register

NodeId = int


@register
class LaunderingCoalitionPolicy(BehaviorPolicy):
    """All adversarial nodes form one coalition with a laundering budget."""

    name = "coalition"

    def __init__(
        self,
        degree: Degree = (0.4, 0.4, 0.4),
        bias: float = 0.3,
        launder: float = 2.0,
        man_in_the_middle: bool = False,
        forge_history: bool = False,
        period_stride: int = 1,
    ) -> None:
        for flag in (man_in_the_middle, forge_history):
            require(isinstance(flag, bool), "the attack switches take a bool, got %r", flag)
        self.degree = FreeriderDegree(*degree)
        #: what every member's :class:`ColludingBehavior` is built with.
        self.member_kwargs = dict(
            bias=require_probability(bias, "bias"),
            man_in_the_middle=man_in_the_middle,
            forge_history=forge_history,
            period_stride=require_int(period_stride, "period_stride", minimum=1),
            launder=require_non_negative(launder, "launder"),
        )

    def prepare(self, ctx: AdversaryContext) -> None:
        self.coalition = Coalition(ctx.freerider_ids)

    def build(self, node_id: NodeId) -> ColludingBehavior:
        return ColludingBehavior(self.degree, self.coalition, **self.member_kwargs)
