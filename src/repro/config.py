"""Central parameter sets — the code realisation of the paper's Table 4.

Two dataclasses cover every knob used in the paper:

* :class:`GossipParams` — the three-phase dissemination protocol (§3):
  system size ``n``, fanout ``f``, gossip period ``T_g``, stream bitrate
  and chunking.
* :class:`LiftingParams` — LiFTinG itself (§5–6): verification
  probability ``p_dcc``, history length ``n_h``, manager count ``M``,
  detection thresholds ``η`` (score) and ``γ`` (entropy), the assumed
  loss rate used for blame compensation, and timeouts.

Both validate eagerly so that impossible configurations fail at
construction time.  The module also provides the two canonical
configurations of the paper: the analysis setting (n=10,000, f=12,
|R|=4, 7 % loss) and the PlanetLab setting (n=300, f=7, T_g=500 ms,
674 kbps, M=25, 4 % loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.util.validation import require, require_probability

#: Seconds a witness waits before evaluating and answering a confirm
#: request.  A confirm can overtake the propose it asks about (the
#: verifier is only two short hops behind), so answering immediately
#: would produce spurious contradictions; deferring the answer lets the
#: propose arrive first.  ``LiftingParams.confirm_timeout`` must exceed it.
WITNESS_ANSWER_DELAY = 0.2


@dataclass(frozen=True)
class GossipParams:
    """Parameters of the three-phase gossip dissemination protocol (§3).

    Attributes
    ----------
    n:
        Number of nodes in the system (excluding the source).
    fanout:
        ``f`` — partners contacted per propose phase; the paper uses
        ``f ≈ ln(n)`` for reliability (f=12 at n=10,000; f=7 at n=300).
    gossip_period:
        ``T_g`` in seconds (0.5 s on PlanetLab).
    stream_rate_kbps:
        Source bitrate in kilobits/second (674 in most experiments).
    chunk_size:
        Payload bytes per chunk.  With the default 4 KiB and 674 kbps
        the source emits ~20.6 chunks/second... see ``chunk_interval``.
    source_fanout:
        How many random nodes the source pushes each fresh chunk to.
    request_size:
        ``|R|`` — the per-proposal request size the *analysis* assumes
        constant (4 in the paper); the simulator requests whatever is
        needed, this value drives the analytical formulas and the
        Monte-Carlo engine.
    """

    n: int = 300
    fanout: int = 7
    gossip_period: float = 0.5
    stream_rate_kbps: float = 674.0
    chunk_size: int = 4096
    source_fanout: int = 7
    request_size: int = 4

    def __post_init__(self) -> None:
        require(self.n >= 2, "need at least 2 nodes, got %d", self.n)
        require(1 <= self.fanout < self.n, "fanout must be in [1, n), got %d", self.fanout)
        require(self.gossip_period > 0, "gossip_period must be > 0")
        require(self.stream_rate_kbps >= 0, "stream_rate_kbps must be >= 0")
        require(self.chunk_size > 0, "chunk_size must be > 0")
        require(self.source_fanout >= 1, "source_fanout must be >= 1")
        require(self.request_size >= 1, "request_size must be >= 1")

    @property
    def chunk_interval(self) -> float:
        """Seconds between consecutive chunk creations at the source."""
        return self.chunk_size / (self.stream_rate_kbps * 125.0)


@dataclass(frozen=True)
class LiftingParams:
    """Parameters of LiFTinG (§5, §6 — the rest of Table 4).

    Attributes
    ----------
    p_dcc:
        Probability that a server triggers direct cross-checking after
        receiving an ack (0 = never, 1 = always).
    managers:
        ``M`` — number of reputation managers per node (25 on PlanetLab).
    history_periods:
        ``n_h = h / T_g`` — gossip periods kept in the audit history.
    eta:
        ``η`` — expulsion threshold on the normalised score (−9.75).
    gamma:
        ``γ`` — entropy threshold for history audits (8.95 in §6.3.2).
    assumed_loss_rate:
        ``p_l`` the deployment assumes when compensating wrongful blames
        (7 % in the analysis, 4 % observed on PlanetLab).
    ack_timeout:
        Seconds a server waits for the ack after serving before blaming
        ``f``; the protocol requires re-proposal within one gossip
        period, so this defaults to slightly more than ``2 T_g``.
    serve_timeout:
        Seconds a requester waits for requested chunks before running
        the direct verification (blame ``f/|R|`` per missing chunk).
    confirm_timeout:
        Seconds a verifier waits for witness confirm responses; must
        exceed :data:`WITNESS_ANSWER_DELAY`, which every answer waits.
    expel_quorum:
        Fraction of a node's managers that must independently observe
        ``score < η`` before the node is expelled.
    min_periods_before_expel:
        Grace period (in gossip periods) before score-based expulsion
        — a brand-new node has too noisy a normalised score.
    """

    p_dcc: float = 1.0
    managers: int = 25
    history_periods: int = 50
    eta: float = -9.75
    gamma: float = 8.95
    assumed_loss_rate: float = 0.04
    ack_timeout: float = 1.25
    serve_timeout: float = 0.75
    confirm_timeout: float = 0.75
    expel_quorum: float = 0.5
    min_periods_before_expel: int = 20

    def __post_init__(self) -> None:
        require_probability(self.p_dcc, "p_dcc")
        require(self.managers >= 1, "managers must be >= 1, got %d", self.managers)
        require(self.history_periods >= 1, "history_periods must be >= 1")
        require_probability(self.assumed_loss_rate, "assumed_loss_rate")
        require(self.ack_timeout > 0, "ack_timeout must be > 0")
        require(self.serve_timeout > 0, "serve_timeout must be > 0")
        require(
            self.confirm_timeout > WITNESS_ANSWER_DELAY,
            "confirm_timeout must exceed the witness answer delay (%g s)",
            WITNESS_ANSWER_DELAY,
        )
        require_probability(self.expel_quorum, "expel_quorum")
        require(self.min_periods_before_expel >= 0, "min_periods_before_expel must be >= 0")
        require(self.gamma >= 0, "gamma must be >= 0")

    @property
    def p_reception(self) -> float:
        """``p_r = 1 - p_l`` under the assumed loss rate."""
        return 1.0 - self.assumed_loss_rate


@dataclass(frozen=True)
class FreeriderDegree:
    """The paper's degree of freeriding ``Δ = (δ1, δ2, δ3)`` (§6.3.1).

    * ``delta1`` — fanout decrease: contact only ``(1-δ1)·f`` partners.
    * ``delta2`` — partial propose: drop the chunks received from a
      proportion ``δ2`` of the servers of the previous period.
    * ``delta3`` — partial serve: serve only ``(1-δ3)·|R|`` of each
      request.
    """

    delta1: float = 0.0
    delta2: float = 0.0
    delta3: float = 0.0

    def __post_init__(self) -> None:
        require_probability(self.delta1, "delta1")
        require_probability(self.delta2, "delta2")
        require_probability(self.delta3, "delta3")

    @classmethod
    def uniform(cls, delta: float) -> "FreeriderDegree":
        """Δ with ``δ1 = δ2 = δ3 = δ`` (used by Figure 12)."""
        return cls(delta, delta, delta)

    @property
    def bandwidth_gain(self) -> float:
        """Upload bandwidth saved: ``1 - (1-δ1)(1-δ2)(1-δ3)`` (§6.3.1)."""
        return 1.0 - (1.0 - self.delta1) * (1.0 - self.delta2) * (1.0 - self.delta3)

    def effective_fanout(self, fanout: int) -> int:
        """``f̂`` — the number of partners a freerider actually contacts."""
        return max(0, int(round((1.0 - self.delta1) * fanout)))

    def as_tuple(self) -> Tuple[float, float, float]:
        """``(δ1, δ2, δ3)``."""
        return (self.delta1, self.delta2, self.delta3)

    def __str__(self) -> str:
        return f"Δ=({self.delta1:g},{self.delta2:g},{self.delta3:g})"


HONEST_DEGREE = FreeriderDegree(0.0, 0.0, 0.0)


def analysis_params() -> Tuple[GossipParams, LiftingParams]:
    """The analysis/Monte-Carlo setting of §6 (Figures 10–13)."""
    gossip = GossipParams(
        n=10_000,
        fanout=12,
        gossip_period=0.5,
        stream_rate_kbps=674.0,
        request_size=4,
    )
    lifting = LiftingParams(
        p_dcc=1.0,
        managers=25,
        history_periods=50,
        eta=-9.75,
        gamma=8.95,
        assumed_loss_rate=0.07,
    )
    return gossip, lifting


def planetlab_params() -> Tuple[GossipParams, LiftingParams]:
    """The PlanetLab deployment setting of §7 (Figures 1, 14, Table 5)."""
    gossip = GossipParams(
        n=300,
        fanout=7,
        gossip_period=0.5,
        stream_rate_kbps=674.0,
        request_size=4,
    )
    lifting = LiftingParams(
        p_dcc=1.0,
        managers=25,
        history_periods=50,
        eta=-9.75,
        gamma=8.95,
        assumed_loss_rate=0.04,
    )
    return gossip, lifting

