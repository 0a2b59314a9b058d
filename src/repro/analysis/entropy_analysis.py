"""Entropy-based detection analysis (§6.3.2, Eq. 7).

The local audit compares the entropy of a node's partner history to a
threshold ``γ``.  A colluding freerider picks a colluder with
probability ``p_m`` (uniformly among the ``m'`` colluders) and an honest
node otherwise (uniformly among the rest).  Its history entropy is then
maximised by uniformity within each class::

    H(p_m) = -p_m log2(p_m / m') - (1 - p_m) log2((1 - p_m) / (n_h f - m'))

Eq. (7) sets ``H(p*_m) = γ`` and solves for the largest bias ``p*_m``
that evades detection; the paper's example (γ = 8.95, m' = 25,
n_h f = 600) gives ``p*_m ≈ 0.21``.

The root finders import ``brentq`` themselves: scipy at module level
costs every process importing ``repro`` ~44 MiB and ~0.7 s.
"""

from __future__ import annotations

import math

from repro.util.validation import require, require_probability


def max_fanout_entropy(history_periods: int, f: int) -> float:
    """``log2(n_h f)`` — entropy when all history entries are distinct.

    >>> round(max_fanout_entropy(50, 12), 2)
    9.23
    """
    require(history_periods >= 1 and f >= 1, "history_periods and f must be >= 1")
    return math.log2(history_periods * f)


def collusion_entropy(p_m: float, m_colluders: int, history_size: int) -> float:
    """History entropy of a freerider with bias ``p_m`` (Eq. 7 RHS).

    Assumes uniform selection within the colluder class (``m'`` nodes)
    and within the honest class (``n_h f - m'`` slots) — the maximising
    choice, so this is the *best case for the freerider*.
    """
    require_probability(p_m, "p_m")
    require(m_colluders >= 1, "m_colluders must be >= 1")
    require(
        history_size > m_colluders,
        "history must exceed the coalition size (n_h f >> m'), got %d <= %d",
        history_size,
        m_colluders,
    )
    entropy = 0.0
    if p_m > 0:
        entropy -= p_m * math.log2(p_m / m_colluders)
    if p_m < 1:
        entropy -= (1.0 - p_m) * math.log2((1.0 - p_m) / (history_size - m_colluders))
    return entropy


def max_bias_probability(gamma: float, m_colluders: int, history_size: int) -> float:
    """``p*_m`` — the largest collusion bias that still passes the audit.

    Numerically inverts Eq. (7).  ``collusion_entropy`` is maximal at the
    unbiased point ``p_m = m'/(n_h f)`` and decreases towards
    ``log2(m')`` as ``p_m → 1``, so on that branch there is a single
    crossing of ``γ``.

    >>> round(max_bias_probability(8.95, 25, 600), 2)
    0.21
    """
    require(m_colluders >= 1, "m_colluders must be >= 1")
    require(history_size > m_colluders, "history must exceed the coalition size")
    uniform_pm = m_colluders / history_size
    h_max = collusion_entropy(uniform_pm, m_colluders, history_size)
    if gamma >= h_max:
        # The threshold exceeds even the unbiased entropy: any bias above
        # the uniform share is caught.
        return uniform_pm
    h_at_one = collusion_entropy(1.0, m_colluders, history_size)
    if gamma <= h_at_one:
        # Even full bias passes (γ too low / coalition too large).
        return 1.0
    from scipy.optimize import brentq

    return float(
        brentq(
            lambda pm: collusion_entropy(pm, m_colluders, history_size) - gamma,
            uniform_pm,
            1.0,
            xtol=1e-12,
        )
    )


def achievable_collusion_entropy(p_m: float, m_colluders: int, history_size: int) -> float:
    """Best *integer-feasible* history entropy at bias ``p_m``.

    Eq. (7) idealises the honest picks as spreading ``(1-p_m)·n_h f``
    mass evenly over ``n_h f - m'`` bins — fractional occupancy, which
    no real history can have.  The feasible optimum makes every honest
    pick distinct (possible while ``n ≫ n_h f``) and serves colluders
    round-robin::

        H = -p_m log2(p_m / m') + (1 - p_m) log2(n_h f)

    This is what a real coalition can reach, so it (not Eq. 7) gives the
    operational bias ceiling; Eq. 7 upper-bounds it by ≈ 0.05–0.3 bits.
    """
    require_probability(p_m, "p_m")
    require(m_colluders >= 1, "m_colluders must be >= 1")
    require(history_size > m_colluders, "history must exceed the coalition size")
    entropy = (1.0 - p_m) * math.log2(history_size)
    if p_m > 0:
        entropy -= p_m * math.log2(p_m / m_colluders)
    return entropy


def achievable_max_bias(gamma: float, m_colluders: int, history_size: int) -> float:
    """The operational ceiling: largest ``p_m`` whose *achievable*
    entropy still passes ``γ`` (integer-feasible counterpart of
    :func:`max_bias_probability`)."""
    require(m_colluders >= 1, "m_colluders must be >= 1")
    require(history_size > m_colluders, "history must exceed the coalition size")
    uniform_pm = m_colluders / history_size
    h_max = achievable_collusion_entropy(uniform_pm, m_colluders, history_size)
    if gamma >= h_max:
        return uniform_pm
    if gamma <= achievable_collusion_entropy(1.0, m_colluders, history_size):
        return 1.0
    from scipy.optimize import brentq

    return float(
        brentq(
            lambda pm: achievable_collusion_entropy(pm, m_colluders, history_size) - gamma,
            uniform_pm,
            1.0,
            xtol=1e-12,
        )
    )


def gamma_for_window(history_size: int, headroom_bits: float = None) -> float:
    """A ``γ`` for a window of ``history_size`` entries.

    ``γ`` is meaningful only relative to the achievable maximum
    ``log2(n_h f)``: the paper's 8.95 sits 0.279 bits below
    ``log2 600 = 9.229``.  This helper scales that headroom to other
    window sizes so that deployments with different ``n_h·f`` keep the
    same false-expulsion margin.
    """
    require(history_size >= 2, "history_size must be >= 2")
    if headroom_bits is None:
        headroom_bits = math.log2(600) - 8.95
    require(headroom_bits >= 0, "headroom_bits must be >= 0")
    return math.log2(history_size) - headroom_bits


def required_history_for_bias(
    m_colluders: int,
    f: int,
    max_tolerated_bias: float,
    headroom_bits: float = None,
) -> int:
    """Smallest ``n_h`` keeping the evadable bias below ``max_tolerated_bias``.

    Sweeps ``n_h`` upward with ``γ`` scaled to the window (see
    :func:`gamma_for_window`); longer histories tighten the ceiling
    because the coalition can no longer fill the window without visible
    repetitions (the ``n_h f ≫ m'`` requirement of §6.3.2).
    """
    require(0 < max_tolerated_bias < 1, "max_tolerated_bias must be in (0, 1)")
    for n_h in range(max(1, (m_colluders // f) + 1), 100_000):
        history = n_h * f  # > m_colluders from the first n_h on
        gamma = gamma_for_window(history, headroom_bits)
        if max_bias_probability(gamma, m_colluders, history) <= max_tolerated_bias:
            return n_h
    raise ValueError("no history length below 100000 achieves the target bias")
