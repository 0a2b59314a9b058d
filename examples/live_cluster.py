#!/usr/bin/env python3
"""Scenario: run the real protocol over real sockets (asyncio runtime).

The same :class:`~repro.gossip.protocol.GossipNode` objects that power
the simulator here run over actual UDP datagram endpoints and TCP
connections on the loopback interface, in real time — the
deployment-shaped counterpart of the paper's PlanetLab experiment.  A
synthetic 3 % datagram loss exercises the compensation machinery.

Run with::

    python examples/live_cluster.py
"""

import asyncio

from repro import adversary
from repro.deployment import loopback_config
from repro.runtime import RuntimeCluster, RuntimeConfig


def main() -> None:
    cluster = loopback_config(
        12,
        loss_rate=0.03,
        freerider_fraction=0.25,
        adversary=adversary.spec("freerider", degree=(0.25, 0.3, 0.3)),
        seed=42,
    )
    config = RuntimeConfig(cluster, duration=6.0)
    print(
        f"starting {cluster.gossip.n} nodes on loopback sockets for "
        f"{config.duration:.0f} real seconds..."
    )
    live = RuntimeCluster(config)
    report = asyncio.run(live.run())
    scores, freerider_ids = live.deployment.scores(), live.deployment.freerider_ids

    print(f"\nchunks emitted by the source: {report.chunks_emitted}")
    print(f"mean delivery ratio:          {report.delivery_ratio:.1%}")
    print(
        f"datagrams sent/dropped:       {report.datagrams_sent} / "
        f"{report.datagrams_dropped} "
        f"({report.datagrams_dropped / max(1, report.datagrams_sent):.1%} synthetic loss)"
    )

    print("\nscores (min-vote over managers):")
    for node_id in sorted(scores):
        role = "freerider" if node_id in freerider_ids else "honest   "
        print(f"  node {node_id:2d} [{role}]  {scores[node_id]:+8.2f}")

    honest = [s for n, s in scores.items() if n not in freerider_ids]
    freeriders = [s for n, s in scores.items() if n in freerider_ids]
    gap = sum(honest) / len(honest) - sum(freeriders) / len(freeriders)
    print(f"\nhonest-vs-freerider score gap after {config.duration:.0f}s: {gap:+.2f}")


if __name__ == "__main__":
    main()
