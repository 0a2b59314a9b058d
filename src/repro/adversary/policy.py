"""The pluggable adversary-policy framework.

A :class:`BehaviorPolicy` turns a *population-level* attack description
("a coalition of size c with laundering budget L", "four Sybils stuffing
blames at two victims") into the per-node :class:`~repro.nodes.behavior.
Behavior` instances a cluster plugs into its adversarial nodes.  The
policy owns whatever state the attackers share — the coalition roster, a
stuffing campaign's victim list — so the cluster stays attack-agnostic:
it only knows *which* nodes are adversarial, never *how*.

Policies are registered by name.  A config selects one with the value
:func:`spec` builds, and :class:`repro.deployment.Deployment` is the one
place that runs :func:`create` → ``prepare`` → ``build``, on either
plane.  The paper's freerider is :class:`FreeriderPolicy` below; the
other adversaries live in sibling modules and self-register on import.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple, Type

import numpy as np

from repro.config import FreeriderDegree
from repro.nodes.behavior import Behavior
from repro.nodes.freerider import FreeriderBehavior
from repro.util.validation import require_int

NodeId = int
Degree = Tuple[float, float, float]  #: (δ1, δ2, δ3), as policies take it


@dataclass(frozen=True)
class AdversaryContext:
    """What a policy may know about the deployment it attacks.

    Deliberately *less* than the cluster knows: the adversary sees the
    two role sets, not node internals.  The ``rng`` is drawn from the
    cluster's seed tree (stream ``"adversary"``), so adversarial
    randomness never perturbs the honest streams — un-attacked runs stay
    byte-identical.
    """

    freerider_ids: FrozenSet[NodeId]
    honest_ids: FrozenSet[NodeId]
    rng: np.random.Generator


class BehaviorPolicy:
    """Base policy: knows how to arm one adversarial node.

    Lifecycle: construct with parameters → :meth:`prepare` once with the
    deployment context → :meth:`build` once per adversarial node id.
    """

    name = "?"

    def prepare(self, ctx: AdversaryContext) -> None:
        """Derive shared attack state from the deployment context."""

    def build(self, node_id: NodeId) -> Behavior:
        """The behaviour instance for adversarial node ``node_id``."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[BehaviorPolicy]] = {}


def register(cls: Type[BehaviorPolicy]) -> Type[BehaviorPolicy]:
    """Class decorator: make a policy creatable by name."""
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate adversary policy name: {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def available() -> Tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_REGISTRY))


def spec(kind: str, **params: object) -> Tuple[object, ...]:
    """The config value selecting policy ``kind`` with ``params``: a
    plain ``(kind, ((key, value), ...))`` tuple, frozen and hashable
    like the configs that carry it.  Their default, the empty tuple,
    selects nothing — every node is honest."""
    return (kind, tuple(sorted(params.items())))


def create(kind: str, params: Mapping[str, object] = ()) -> BehaviorPolicy:
    """Instantiate the policy registered under ``kind``.

    ``params`` (a mapping or ``(key, value)`` pairs) are keyword
    arguments for the policy constructor, which validates them; every
    rejection — unknown policy, unknown key, out-of-range or wrongly
    typed value — is a :class:`ValueError`.
    """
    try:
        cls = _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown adversary policy {kind!r}; available: {available()}"
        ) from None
    try:
        return cls(**dict(params))
    except TypeError as exc:  # a misspelt key, or a value of the wrong type
        accepted = tuple(inspect.signature(cls).parameters)
        raise ValueError(
            f"adversary policy {kind!r}: {exc}; accepted parameters: {accepted}"
        ) from None


@register
class FreeriderPolicy(BehaviorPolicy):
    """The paper's wise freerider (§6.3.1): every adversarial node
    deviates by one fixed ``degree`` (δ1, δ2, δ3) and optionally runs
    its gossip period ``period_stride`` times slower (§4.1(iv))."""

    name = "freerider"

    def __init__(self, degree: Degree = (0.0, 0.0, 0.0), period_stride: int = 1) -> None:
        self.degree = FreeriderDegree(*degree)
        self.period_stride = require_int(period_stride, "period_stride", minimum=1)

    def build(self, node_id: NodeId) -> FreeriderBehavior:
        return FreeriderBehavior(self.degree, period_stride=self.period_stride)
