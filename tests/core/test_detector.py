"""Unit tests for the expulsion controller."""

import pytest

from repro.core.detector import ExpulsionController, ExpulsionRecord
from repro.membership.full import FullMembership
from repro.sim.engine import Simulator
from repro.sim.network import Network, SimTransport


class Stub:
    def __init__(self, node_id):
        self.node_id = node_id

    def on_message(self, src, message):
        pass


def controller_on(network, membership, **kwargs):
    """A controller hosted on the simulated fabric ``network``."""
    return ExpulsionController(SimTransport(network.sim, network), [membership], **kwargs)


@pytest.fixture
def setup(rng):
    sim = Simulator()
    network = Network(sim)
    for i in range(5):
        network.register(Stub(i))
    membership = FullMembership(rng, range(5))
    return sim, network, membership


class TestEnforcement:
    def test_expel_disconnects_and_deregisters(self, setup):
        sim, network, membership = setup
        controller = controller_on(network, membership, enabled=True)
        assert controller.expel(3, "score")
        assert not network.is_connected(3)
        assert not membership.contains(3)
        assert controller.is_expelled(3)

    def test_double_expel_is_noop(self, setup):
        _sim, network, membership = setup
        controller = controller_on(network, membership, enabled=True)
        assert controller.expel(3, "score")
        assert not controller.expel(3, "audit")
        assert controller.records[3].reason == "score"  # first reason wins

    def test_observation_mode_records_only(self, setup):
        _sim, network, membership = setup
        controller = controller_on(network, membership, enabled=False)
        assert controller.expel(3, "audit")
        assert network.is_connected(3)
        assert membership.contains(3)
        assert not controller.is_expelled(3)  # not enforced
        assert 3 in controller.expelled_nodes()

    def test_callback_invoked(self, setup):
        _sim, network, membership = setup
        seen = []
        controller = controller_on(
            network, membership, enabled=True, on_expel=seen.append
        )
        controller.expel(2, "audit")
        assert len(seen) == 1
        assert isinstance(seen[0], ExpulsionRecord)
        assert seen[0].node == 2 and seen[0].enforced

    def test_record_timestamps_use_sim_clock(self, setup):
        sim, network, membership = setup
        controller = controller_on(network, membership, enabled=True)
        sim.call_later(4.0, lambda: controller.expel(1, "score"))
        sim.run()
        assert controller.records[1].time == pytest.approx(4.0)

    def test_records_by_reason(self, setup):
        _sim, network, membership = setup
        controller = controller_on(network, membership, enabled=True)
        controller.expel(1, "score")
        controller.expel(2, "audit")
        controller.expel(3, "audit")
        assert {r.node for r in controller.records_by_reason("audit")} == {2, 3}
        assert {r.node for r in controller.records_by_reason("score")} == {1}
