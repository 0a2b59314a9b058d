"""The adaptive freerider: freeride as hard as η allows, no harder.

The paper's Figure 12 freeriders pick a fixed degree Δ and either escape
(expected excess blame below ``-η``) or get caught.  A rational attacker
instead *solves* the detector: the closed form
:func:`~repro.analysis.freerider_blames.expected_blame_excess` is public
(it is derived from public parameters), so the attacker computes the
largest uniform δ whose expected per-period excess stays a safety margin
under ``-η`` — then tracks its own reputation at runtime through the
ordinary score-read protocol and walks δ up or down the same ladder as
the observed score drifts.  The result sits just under the expulsion
threshold: the maximum bandwidth gain the deployment's η actually
tolerates, which is exactly the quantity a robustness study wants
measured.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.freerider_blames import expected_blame_excess
from repro.config import FreeriderDegree
from repro.nodes.freerider import FreeriderBehavior
from repro.util.validation import require_int, require_positive

from repro.adversary.policy import AdversaryContext, BehaviorPolicy, register

NodeId = int


def degree_ladder(
    ctx: AdversaryContext,
    *,
    headroom: float,
    step: float = 0.05,
    max_delta: float = 0.95,
) -> Tuple[List[FreeriderDegree], int]:
    """The ladder of uniform degrees and the closed-form start rung.

    Returns every ``FreeriderDegree.uniform(k·step)`` up to
    ``max_delta`` plus the index of the largest one whose expected
    per-period excess blame is at most ``headroom · (-η)`` — the
    analytical "just under the threshold" operating point.
    """
    require_positive(step, "step")  # the loop below must advance
    gossip, lifting = ctx.gossip, ctx.lifting
    p_r = 1.0 - lifting.assumed_loss_rate
    budget = headroom * -lifting.eta
    ladder: List[FreeriderDegree] = []
    start = 0
    index = 0
    delta = 0.0
    while delta <= max_delta + 1e-9:
        degree = FreeriderDegree.uniform(min(delta, max_delta))
        ladder.append(degree)
        excess = expected_blame_excess(
            degree, gossip.fanout, gossip.request_size, p_r, lifting.p_dcc
        )
        if excess <= budget:
            start = index
        index += 1
        delta += step
    return ladder, start


class AdaptiveFreeriderBehavior(FreeriderBehavior):
    """A freerider walking the δ-ladder under score feedback."""

    name = "adaptive_freerider"

    def __init__(
        self,
        ladder: List[FreeriderDegree],
        rung: int,
        *,
        check_every: int = 5,
        retreat_at: float = 0.6,
        advance_at: float = 0.25,
    ) -> None:
        super().__init__(ladder[rung])
        self.ladder = ladder
        self.rung = rung
        self.check_every = max(1, int(check_every))
        #: retreat one rung when own score falls below ``retreat_at · η``
        self.retreat_at = retreat_at
        #: advance one rung when own score sits above ``advance_at · η``
        self.advance_at = advance_at
        self.adjustments = 0

    def on_period_start(self, period: int) -> None:
        node = self.node
        if node.score_reader is None or period % self.check_every != 0:
            return
        node.score_reader.query(node.node_id, self._on_own_score)

    def _on_own_score(self, score: Optional[float]) -> None:
        if score is None:
            return
        eta = self.node.lifting.eta  # negative
        if score <= self.retreat_at * eta and self.rung > 0:
            self.rung -= 1
        elif score >= self.advance_at * eta and self.rung < len(self.ladder) - 1:
            self.rung += 1
        else:
            return
        self.degree = self.ladder[self.rung]
        self.adjustments += 1

    def __repr__(self) -> str:
        return f"AdaptiveFreeriderBehavior(rung={self.rung}, {self.degree})"


@register
class AdaptiveFreeriderPolicy(BehaviorPolicy):
    """Arms every adversarial node with the η-solving freerider."""

    name = "adaptive"

    def __init__(
        self,
        headroom: float = 0.8,
        step: float = 0.05,
        check_every: int = 5,
        retreat_at: float = 0.6,
        advance_at: float = 0.25,
    ) -> None:
        self.headroom = require_positive(headroom, "headroom")
        self.step = require_positive(step, "step")
        self.check_every = require_int(check_every, "check_every", minimum=1)
        self.retreat_at = retreat_at
        self.advance_at = advance_at

    def prepare(self, ctx: AdversaryContext) -> None:
        super().prepare(ctx)
        self.ladder, self.start_rung = degree_ladder(
            ctx, headroom=self.headroom, step=self.step
        )

    def build(self, node_id: NodeId) -> AdaptiveFreeriderBehavior:
        return AdaptiveFreeriderBehavior(
            self.ladder,
            self.start_rung,
            check_every=self.check_every,
            retreat_at=self.retreat_at,
            advance_at=self.advance_at,
        )
