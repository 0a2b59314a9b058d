"""The equivocator: consistent to everyone, inconsistent across them.

Every testimony a node gives in LiFTinG — confirm answers about a
proposer, a-posteriori history-poll answers about a target — is
requester-blind for honest nodes: the truth does not depend on who asks.
An equivocator exploits exactly that blindness, answering the *same*
question differently depending on the requester, so any single verifier
sees an internally consistent witness while the population's testimonies
contradict each other.  The split is deterministic (a parity of the
``(witness, requester)`` pair), which makes the attack reproducible and
maximally confusing: half the verifiers always hear "yes", half always
hear "no".

This is the framework's probe for testimony-aggregation robustness: the
damage shows up as wrongful blame on the *subjects* of the equivocated
testimony, not on the equivocator itself — the adversary spends nothing
and risks only the statistical trail of its lies.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.nodes.behavior import Behavior
from repro.util.validation import require_probability

from repro.adversary.policy import BehaviorPolicy, register

NodeId = int


class EquivocatorBehavior(Behavior):
    """Requester-parity split testimony; otherwise protocol-compliant."""

    name = "equivocator"

    def __init__(self, *, deny_share: float = 0.5) -> None:
        super().__init__()
        # The parity split fixes deny_share at 1/2; the knob widens or
        # narrows the denying class by modulus when != 0.5.
        self.deny_share = deny_share
        self.lies_told = 0

    def _denies_to(self, requester: NodeId) -> bool:
        if self.deny_share <= 0.0:
            return False
        if self.deny_share >= 1.0:
            return True
        modulus = max(2, int(round(1.0 / min(self.deny_share, 0.5))))
        return (requester + self.node.node_id) % modulus == 0

    def confirm_answer(self, requester: NodeId, proposer: NodeId, truthful: bool) -> bool:
        if self._denies_to(requester):
            self.lies_told += 1
            return not truthful
        return truthful

    def poll_answer(
        self,
        requester: NodeId,
        target: NodeId,
        truthful_ack: bool,
        truthful_senders: List[NodeId],
    ) -> Tuple[bool, List[NodeId]]:
        if self._denies_to(requester):
            self.lies_told += 1
            # Invert the testimony: the ack flips and the confirm-sender
            # log is withheld — the "no" class hears a flat denial.
            return not truthful_ack, []
        return truthful_ack, truthful_senders

    def __repr__(self) -> str:
        return f"EquivocatorBehavior(deny_share={self.deny_share})"


@register
class EquivocatorPolicy(BehaviorPolicy):
    """Arms every adversarial node as an independent equivocator."""

    name = "equivocator"

    def __init__(self, deny_share: float = 0.5) -> None:
        self.deny_share = require_probability(deny_share, "deny_share")

    def build(self, node_id: NodeId) -> EquivocatorBehavior:
        return EquivocatorBehavior(deny_share=self.deny_share)
