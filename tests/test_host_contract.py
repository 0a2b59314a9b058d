"""One host contract for both planes.

A :class:`~repro.gossip.protocol.GossipNode` binds its host's
``timeline``, ``call_later`` and ``send_many`` once; the simulator's
:class:`~repro.sim.network.SimTransport` and the live
:class:`~repro.runtime.transport.AsyncTransport` both hand it their own
objects under those names, so neither plane puts a shim between a
handler and the engine, the network or the event loop.
"""

import asyncio
from functools import partial

import pytest

from repro.config import planetlab_params
from repro.gossip.protocol import GossipNode
from repro.nodes.behavior import HonestBehavior
from repro.runtime.transport import AsyncTransport, NodeRegistry
from repro.sim.engine import Simulator
from repro.sim.network import Network, SimTransport


def host_at(plane, loop, now):
    """``(host, fabric, scheduler)`` of ``plane``, its clock reading
    ``now``: the node must call the fabric's ``send_many`` and the
    scheduler's ``call_later``, themselves."""
    if plane == "sim":
        sim = Simulator()
        network = Network(sim)
        sim.now = now
        return SimTransport(sim, network), network, sim
    loop.time = lambda: 100.0  # the cluster epoch
    host = AsyncTransport(loop, NodeRegistry())
    loop.time = lambda: 100.0 + now
    return host, host, loop


@pytest.mark.parametrize("plane", ["sim", "live"])
def test_a_node_binds_the_hosts_own_names(plane):
    loop = asyncio.new_event_loop()
    try:
        host, fabric, scheduler = host_at(plane, loop, now=2.75)
        gossip, lifting = planetlab_params()
        node = GossipNode(0, host, None, gossip, lifting, HonestBehavior())
        for bound in (node._send_many, node.call_later):
            assert not isinstance(bound, partial)
        assert node._send_many == host.send_many
        assert node._send_many.__self__ is fabric
        assert node.call_later == host.call_later
        assert node.call_later.__self__ is scheduler
        assert node.timeline is node.engine._timeline is host.timeline
        assert node.clock() == host.timeline.now == 2.75
    finally:
        loop.close()
