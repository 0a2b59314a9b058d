"""Message-complexity model of the verifications (§6.1, Table 3).

The paper bounds the per-period message overhead of each verification
role; this module turns those bounds into explicit expected counts so
the simulator's measured traffic can be checked against them (the
``table3`` rows of ``benchmarks/scorecard.py``).

Per gossip period and node (steady state, every node serves and is
served by ``f`` peers on average):

==========================  =======================================
direct verification          0 messages; up to ``f`` blames × M managers
acks (always sent)           ``f`` — one per server of the last period
cross-check, verifier        ``p_dcc · f²`` confirms sent
cross-check, witness         receives ``p_dcc · f²`` confirms, sends as many responses
cross-check, blames          up to ``p_dcc · M · f``
three-phase protocol itself  ``f(2 + |R|)`` (proposal + request + |R| serves)
==========================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require, require_probability


@dataclass(frozen=True)
class MessageCountModel:
    """Expected per-node per-period message counts for each role."""

    proposals: float
    requests: float
    serves: float
    acks: float
    confirms_sent: float
    confirm_responses_sent: float
    max_blame_messages: float

    @property
    def data_messages(self) -> float:
        """Messages of the dissemination protocol itself: ``f(2+|R|)``."""
        return self.proposals + self.requests + self.serves

    @property
    def verification_messages(self) -> float:
        """Messages added by LiFTinG's direct verifications."""
        return self.acks + self.confirms_sent + self.confirm_responses_sent

    @property
    def message_overhead_ratio(self) -> float:
        """Verification messages / data messages."""
        if self.data_messages == 0:
            return 0.0
        return self.verification_messages / self.data_messages


def expected_message_counts(
    f: int, request_size: int, p_dcc: float, managers: int
) -> MessageCountModel:
    """Steady-state expected message counts (Table 3 made concrete).

    >>> model = expected_message_counts(7, 4, 1.0, 25)
    >>> model.data_messages   # f(2+|R|)
    42.0
    >>> model.confirms_sent   # p_dcc f²
    49.0
    """
    require(f >= 1, "fanout must be >= 1, got %d", f)
    require(request_size >= 1, "request_size must be >= 1")
    require_probability(p_dcc, "p_dcc")
    require(managers >= 1, "managers must be >= 1")
    return MessageCountModel(
        proposals=float(f),
        requests=float(f),
        serves=float(f * request_size),
        acks=float(f),
        confirms_sent=p_dcc * f * f,
        confirm_responses_sent=p_dcc * f * f,
        max_blame_messages=float(managers * f) * (1.0 + p_dcc),
    )


def scaling_exponent(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x).

    Used by the ``table3`` scenario to verify that measured verification
    traffic scales as ``O(f²)`` in the fanout: feeding measured counts
    for several fanouts should give a slope close to 2.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    require(xs.size == ys.size and xs.size >= 2, "need >= 2 matching points")
    require(bool(np.all(xs > 0)) and bool(np.all(ys > 0)), "log-log fit needs positive data")
    slope, _intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)
