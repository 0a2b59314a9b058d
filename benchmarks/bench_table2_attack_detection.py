"""Table 2 — every attack is caught by its stated verification.

=========================  ============  ==========================
attack                      type          detection (paper)
=========================  ============  ==========================
fanout decrease             quantitative  direct cross-check
partial propose             causality     direct cross-check
partial serve               quantitative  direct verification
decreased gossip period     quantitative  cross-check + local audit
biased partner selection    entropy       local audit + a-posteriori
=========================  ============  ==========================

Each scenario runs a small deployment with exactly one attack active
and asserts that the paper's mechanism (and not pure chance) flags it.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import record_report
from repro import adversary
from repro.config import planetlab_params
from repro.core.blames import (
    REASON_FANOUT_DECREASE,
    REASON_INVALID_PROPOSAL,
    REASON_NO_ACK,
    REASON_PARTIAL_SERVE,
)
from repro.experiments.cluster import ClusterConfig, SimCluster


def _cluster(**overrides):
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=40, fanout=4, source_fanout=4, chunk_size=2048)
    lifting = replace(lifting, managers=5, history_periods=12, gamma=4.8)
    defaults = dict(gossip=gossip, lifting=lifting, seed=77, loss_rate=0.0, compensation=0.0)
    defaults.update(overrides)
    return SimCluster(ClusterConfig(**defaults))


def _freeriders(degree, **params):
    return _cluster(
        freerider_fraction=0.25,
        adversary=adversary.spec("freerider", degree=degree, **params),
    )


def _freerider_blame_share(cluster, reason):
    """Fraction of `reason` blame value emitted against freeriders."""
    total, against_freeriders = 0.0, 0.0
    for node in cluster.nodes.values():
        if node.engine is None:
            continue
        value = node.engine.blames_by_reason.get(reason, 0.0)
        total += value
    # Blame totals recorded at managers, split by target role.
    freerider_blames = 0.0
    all_blames = 0.0
    for node in cluster.nodes.values():
        if node.manager is None:
            continue
        for target, record in node.manager.records.items():
            positive = max(record.blame_total, 0.0)
            all_blames += positive
            if target in cluster.freerider_ids:
                freerider_blames += positive
    return total, (freerider_blames / all_blames if all_blames else 0.0)


@pytest.fixture(scope="module")
def table2_report():
    rows = []

    # (i) fanout decrease → direct cross-check (f - f̂ blames).
    c = _freeriders((0.5, 0, 0))
    c.run(until=10.0)
    value, share = _freerider_blame_share(c, REASON_FANOUT_DECREASE)
    rows.append(("fanout decrease", "direct cross-check", value > 0 and share > 0.8, share))

    # (ii) partial propose → direct cross-check (invalid proposal / no ack).
    c = _freeriders((0, 0.5, 0))
    c.run(until=10.0)
    v1, share = _freerider_blame_share(c, REASON_NO_ACK)
    v2, _ = _freerider_blame_share(c, REASON_INVALID_PROPOSAL)
    rows.append(("partial propose", "direct cross-check", (v1 + v2) > 0 and share > 0.8, share))

    # (iii) partial serve → direct verification.
    c = _freeriders((0, 0, 0.5))
    c.run(until=10.0)
    value, share = _freerider_blame_share(c, REASON_PARTIAL_SERVE)
    rows.append(("partial serve", "direct verification", value > 0 and share > 0.8, share))

    # (iv) decreased gossip period → local audit period count.
    c = _freeriders((0, 0, 0), period_stride=3)
    c.run(until=10.0)
    target = next(iter(c.freerider_ids))
    auditor = c.nodes[next(n for n in c.node_ids if n not in c.freerider_ids)]
    results = []
    auditor.auditor.start(target, on_complete=results.append)
    c.sim.run(until=c.sim.now + 15.0)
    caught_period = bool(results) and not results[0].passed_period_count
    rows.append(("decreased gossip period", "local audit (period count)", caught_period, 1.0))

    # (v) biased partner selection → local audit entropy.
    c = _cluster(
        freerider_fraction=0.25,
        adversary=adversary.spec(
            "coalition", degree=(0, 0, 0), bias=0.9, launder=0.0
        ),
    )
    c.run(until=10.0)
    target = next(iter(c.freerider_ids))
    auditor = c.nodes[next(n for n in c.node_ids if n not in c.freerider_ids)]
    results = []
    auditor.auditor.start(target, on_complete=results.append)
    c.sim.run(until=c.sim.now + 15.0)
    caught_entropy = bool(results) and not results[0].passed_fanout
    rows.append(("biased partner selection", "local audit (entropy)", caught_entropy, 1.0))

    lines = ["attack                     detection mechanism            caught  blame-share@freeriders"]
    for attack, mechanism, caught, share in rows:
        lines.append(f"{attack:26s} {mechanism:30s} {str(caught):6s} {share:.2f}")
    record_report("table2_attack_detection", "\n".join(lines))
    return rows


def test_table2_every_attack_caught(table2_report, benchmark):
    benchmark(lambda: sum(1 for _a, _m, caught, _s in table2_report if caught))
    for attack, mechanism, caught, _share in table2_report:
        assert caught, f"{attack} was not caught by {mechanism}"
