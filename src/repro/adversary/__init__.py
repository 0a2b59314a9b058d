"""Byzantine adversary policies for the robustness experiments.

``from repro import adversary`` gives the full registry: importing the
package imports every concrete policy module, which self-registers via
:func:`repro.adversary.policy.register`.  Use :func:`create` to build a
policy by name and :func:`available` to enumerate them; a deployment,
on either plane, is armed through the one ``adversary`` field of its
config: ``ClusterConfig(..., adversary=adversary.spec("coalition",
launder=2.0))``.
"""

from repro.adversary.policy import (
    AdversaryContext,
    BehaviorPolicy,
    FreeriderPolicy,
    available,
    create,
    register,
    spec,
)
from repro.adversary.coalition import LaunderingCoalitionPolicy
from repro.adversary.sybil import StuffingCampaign, SybilBlamePolicy, SybilStufferBehavior

__all__ = [
    "AdversaryContext",
    "BehaviorPolicy",
    "available",
    "create",
    "register",
    "spec",
    "FreeriderPolicy",
    "LaunderingCoalitionPolicy",
    "StuffingCampaign",
    "SybilBlamePolicy",
    "SybilStufferBehavior",
]
