#!/usr/bin/env python3
"""Scenario: a colluding coalition versus the local-history audit.

Direct cross-checking alone cannot catch colluders — they confirm each
other's lies (§5.2, Figure 8).  This example builds a deployment with a
coalition that (a) biases partner selection towards its members and
(b) mounts the man-in-the-middle attack, then runs LiFTinG's
local-history audits (§5.3) against a colluder and an honest node and
prints the entropy evidence.

It also shows the analytical side: Eq. (7)'s ceiling on how much bias a
coalition can hide from an audit with threshold γ.

Run with::

    python examples/collusion_audit.py
"""

from dataclasses import replace

from repro import ClusterConfig, SimCluster, adversary, planetlab_params
from repro.analysis.entropy_analysis import (
    achievable_max_bias,
    max_bias_probability,
)


def run_audit(cluster, auditor_id, target_id):
    results = []
    cluster.nodes[auditor_id].auditor.start(target_id, on_complete=results.append)
    cluster.sim.run(until=cluster.sim.now + 15.0)
    return results[0]


def describe(result, label):
    print(f"\naudit of {label}:")
    print(f"  propose events in window:   {result.proposal_count}")
    print(f"  fanout entropy H(F_h):      {result.fanout_entropy:.2f}  -> pass: {result.passed_fanout}")
    print(f"  fanin  entropy H(F'_h):     {result.fanin_entropy:.2f}  -> pass: {result.passed_fanin}")
    print(f"  confirm-traffic coverage:   {result.confirm_coverage:.0%} -> pass: {result.passed_coverage}")
    print(f"  unacknowledged history:     {result.unacknowledged}/{result.polled_entries}")
    print(f"  verdict: {'PASS' if result.passed else 'EXPEL'}")


def main() -> None:
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=60, fanout=5, source_fanout=5, chunk_size=2048)
    # γ scaled to the small test window (the paper's 8.95 corresponds to
    # a 600-entry history at n=10,000).
    lifting = replace(lifting, managers=5, history_periods=14, gamma=5.0)

    config = ClusterConfig(
        gossip=gossip,
        lifting=lifting,
        seed=11,
        loss_rate=0.0,
        freerider_fraction=0.25,
        # The paper's colluders are the coalition policy without laundering.
        adversary=adversary.spec(
            "coalition",
            launder=0.0,
            degree=(0, 0, 0),  # they hide in plain sight...
            bias=0.85,  # ...but feed their friends 85 % of the time
            man_in_the_middle=True,
        ),
    )
    cluster = SimCluster(config)
    print("running a deployment with a colluding coalition (25 % of nodes)...")
    cluster.run(until=10.0)

    honest_ids = [n for n in cluster.node_ids if n not in cluster.freerider_ids]
    colluder = next(iter(cluster.freerider_ids))
    auditor = honest_ids[0]
    honest_target = honest_ids[1]

    describe(run_audit(cluster, auditor, honest_target), f"honest node {honest_target}")
    describe(run_audit(cluster, auditor, colluder), f"colluder {colluder}")

    print("\n--- analysis: how much bias can a coalition hide? (γ=8.95, n_h f=600) ---")
    for m in (10, 25, 50):
        eq7 = max_bias_probability(8.95, m, 600)
        real = achievable_max_bias(8.95, m, 600)
        print(
            f"  coalition of {m:3d}: Eq.7 ceiling p*_m = {eq7:.2f}, "
            f"integer-feasible ceiling = {real:.2f}"
        )
    print("(the paper's example: 25 colluders can hide ~21 % bias at γ = 8.95)")


if __name__ == "__main__":
    main()
