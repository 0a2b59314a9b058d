"""Blame values — the code form of the paper's Table 1.

Blame values are calibrated so that different verification procedures
produce *comparable* quantities (§5): every value is expressed in units
of "invalid pushes", which is why they can be summed into one score.

=====================================  =============================
attack                                  blame value
=====================================  =============================
fanout decrease (``f̂ < f``)             ``f - f̂`` from each verifier
partial propose                         1 per invalid proposal per witness
invalid / missing ack                   ``f`` from the verifier
partial serve (``|S| < |R|``)           ``f·(|R|-|S|)/|R|`` from the receiver
unacknowledged history entry            1 per proposal, from the auditor
=====================================  =============================
"""

from __future__ import annotations

from repro.util.validation import require

# Each helper tests its arguments with a comparison and enters
# ``require`` only to raise: the blame path calls them per message.

REASON_FANOUT_DECREASE = "fanout-decrease"
REASON_INVALID_PROPOSAL = "invalid-proposal"
REASON_NO_ACK = "no-ack"
REASON_PARTIAL_SERVE = "partial-serve"
REASON_WITNESS_CONTRADICTION = "witness-contradiction"
REASON_UNACKNOWLEDGED_HISTORY = "unacknowledged-history"
REASON_AUDIT_COMPENSATION = "audit-compensation"


def fanout_decrease_blame(fanout: int, observed_fanout: int) -> float:
    """``f - f̂`` when the ack lists fewer than ``f`` partners.

    >>> fanout_decrease_blame(7, 6)
    1.0
    """
    if not (fanout >= 1 and observed_fanout >= 0):  # negated: NaN fails too
        require(fanout >= 1, "fanout must be >= 1, got %d", fanout)
        require(False, "observed fanout must be >= 0")
    decrease = fanout - observed_fanout
    return float(decrease) if decrease > 0 else 0.0


def no_ack_blame(fanout: int) -> float:
    """``f`` — the ack never arrived, or omitted served chunks.

    A missing acknowledgment is equivalent to "none of my chunks were
    proposed", the worst case, hence the full ``f``.
    """
    if not fanout >= 1:
        require(False, "fanout must be >= 1, got %d", fanout)
    return float(fanout)


def partial_serve_blame(fanout: int, requested: int, served: int) -> float:
    """``f · (|R| - |S|) / |R|`` applied by the requester (§5.2).

    A fully ignored request (``|S| = 0``) costs exactly ``f`` — the
    same as not proposing at all, which keeps blames consistent.

    >>> partial_serve_blame(7, 4, 0)
    7.0
    >>> partial_serve_blame(7, 4, 3)
    1.75
    """
    if not (fanout >= 1 and requested >= 1 and 0 <= served <= requested):
        require(fanout >= 1, "fanout must be >= 1, got %d", fanout)
        require(requested >= 1, "requested must be >= 1, got %d", requested)
        require(False, "served must be in [0, requested]")
    return fanout * (requested - served) / requested


def witness_contradiction_blame() -> float:
    """1 per witness whose testimony contradicts the ack (or is missing)."""
    return 1.0


def unacknowledged_history_blame(count: int) -> float:
    """1 per history proposal the alleged receiver does not acknowledge."""
    if not count >= 0:
        require(False, "count must be >= 0, got %d", count)
    return float(count)
