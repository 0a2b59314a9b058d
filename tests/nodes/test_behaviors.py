"""Tests for the behaviour policies (honest / freerider / colluder)."""

import numpy as np
import pytest

from repro.config import FreeriderDegree, planetlab_params
from repro.membership.full import FullMembership
from repro.nodes.behavior import HonestBehavior
from repro.nodes.colluder import Coalition, ColludingBehavior
from repro.nodes.freerider import FreeriderBehavior


class StubNode:
    """The minimal node surface behaviours touch."""

    def __init__(self, node_id, rng, sampler, fanout=7):
        self.node_id = node_id
        self.rng = rng
        self.sampler = sampler
        gossip, _ = planetlab_params()
        from dataclasses import replace

        self.gossip = replace(gossip, n=100, fanout=fanout)


@pytest.fixture
def stub(rng):
    sampler = FullMembership(rng, range(100))
    return StubNode(0, rng, sampler)


class TestHonest:
    def test_selects_full_fanout(self, stub):
        behavior = HonestBehavior()
        behavior.bind(stub)
        assert len(behavior.select_partners(7)) == 7

    def test_identity_hooks(self, stub):
        behavior = HonestBehavior()
        behavior.bind(stub)
        by_server = {1: [10, 11], 2: [12]}
        assert behavior.propose_filter(by_server) == by_server
        assert behavior.serve_filter([1, 2, 3]) == [1, 2, 3]
        assert behavior.ack_partners((4, 5)) == (4, 5)
        assert behavior.confirm_answer(9, True) is True
        assert behavior.confirm_answer(9, False) is False
        assert behavior.should_blame(9) is True
        assert behavior.serve_origin() == 0
        assert behavior.period_stride() == 1
        assert behavior.poll_acknowledge(9, False) is False
        assert behavior.poll_confirm_senders(9, [1, 2]) == [1, 2]
        snapshot = ((1, (2, 3), (4,)),)
        assert behavior.history_snapshot(snapshot) == snapshot


class TestFreerider:
    def test_reduced_fanout(self, stub):
        behavior = FreeriderBehavior(FreeriderDegree(delta1=1 / 7, delta2=0, delta3=0))
        behavior.bind(stub)
        assert len(behavior.select_partners(7)) == 6

    def test_full_delta1_contacts_nobody(self, stub):
        behavior = FreeriderBehavior(FreeriderDegree(delta1=1.0, delta2=0, delta3=0))
        behavior.bind(stub)
        assert behavior.select_partners(7) == []

    def test_propose_filter_drops_whole_servers(self, stub):
        behavior = FreeriderBehavior(FreeriderDegree(0, 0.5, 0))
        behavior.bind(stub)
        by_server = {i: [i * 10] for i in range(200)}
        kept = behavior.propose_filter(by_server)
        # Servers are dropped atomically (footnote 1: fewest sources).
        assert all(v == by_server[k] for k, v in kept.items())
        assert len(kept) == pytest.approx(100, abs=30)

    def test_propose_filter_zero_delta_is_identity(self, stub):
        behavior = FreeriderBehavior(FreeriderDegree(0, 0, 0))
        behavior.bind(stub)
        by_server = {1: [2]}
        assert behavior.propose_filter(by_server) is by_server

    def test_serve_filter_rate(self, stub):
        behavior = FreeriderBehavior(FreeriderDegree(0, 0, 0.3))
        behavior.bind(stub)
        requested = list(range(10_000))
        served = behavior.serve_filter(requested)
        assert len(served) == pytest.approx(7_000, abs=300)

    def test_period_stride(self, stub):
        behavior = FreeriderBehavior(FreeriderDegree(0, 0, 0), period_stride=3)
        behavior.bind(stub)
        assert behavior.period_stride() == 3


class TestCoalition:
    def test_membership(self):
        coalition = Coalition([1, 2, 3])
        assert 2 in coalition
        assert 9 not in coalition
        assert sorted(coalition.others(2)) == [1, 3]
        assert len(coalition) == 3


class TestColluder:
    def _behavior(self, stub, bias=0.5, **kwargs):
        coalition = Coalition(range(10))  # ids 0..9 collude
        behavior = ColludingBehavior(
            FreeriderDegree(0, 0, 0), coalition, bias=bias, **kwargs
        )
        behavior.bind(stub)
        return behavior, coalition

    def test_bias_prefers_colluders(self, stub):
        behavior, coalition = self._behavior(stub, bias=0.8)
        colluder_picks = 0
        total = 0
        for _ in range(300):
            partners = behavior.select_partners(7)
            total += len(partners)
            colluder_picks += sum(1 for p in partners if p in coalition)
        assert colluder_picks / total > 0.5

    def test_zero_bias_behaves_like_uniform(self, stub):
        behavior, coalition = self._behavior(stub, bias=0.0)
        partners = behavior.select_partners(7)
        assert len(partners) == 7

    def test_partners_distinct(self, stub):
        behavior, _ = self._behavior(stub, bias=0.9)
        for _ in range(100):
            partners = behavior.select_partners(7)
            assert len(set(partners)) == len(partners)

    def test_covers_up_witnesses(self, stub):
        behavior, _ = self._behavior(stub)
        assert behavior.confirm_answer(3, truthful=False) is True  # colluder
        assert behavior.confirm_answer(50, truthful=False) is False  # honest

    def test_never_blames_coalition(self, stub):
        behavior, _ = self._behavior(stub)
        assert behavior.should_blame(3) is False
        assert behavior.should_blame(50) is True

    def test_poll_cover_up(self, stub):
        behavior, _ = self._behavior(stub)
        assert behavior.poll_acknowledge(3, truthful=False) is True
        assert behavior.poll_acknowledge(50, truthful=False) is False

    def test_poll_confirm_senders_fabricated_when_empty(self, stub):
        behavior, _ = self._behavior(stub)
        fabricated = behavior.poll_confirm_senders(3, [])
        assert fabricated  # plausible non-empty answer for a colluder
        truthful = behavior.poll_confirm_senders(50, [42])
        assert truthful == [42]

    def test_mitm_ack_names_colluders(self, stub):
        behavior, coalition = self._behavior(stub, man_in_the_middle=True)
        forged = behavior.ack_partners((50, 51, 52))
        assert forged
        assert all(p in coalition for p in forged)

    def test_mitm_spoofs_serve_origin(self, stub):
        behavior, coalition = self._behavior(stub, man_in_the_middle=True)
        origins = {behavior.serve_origin() for _ in range(50)}
        assert origins <= set(coalition.members) - {0}

    def test_no_mitm_keeps_identity(self, stub):
        behavior, _ = self._behavior(stub, man_in_the_middle=False)
        assert behavior.serve_origin() == 0
        assert behavior.ack_partners((50, 51)) == (50, 51)

    def test_forged_history_replaces_partners(self, stub):
        behavior, coalition = self._behavior(stub, forge_history=True)
        snapshot = ((1, (1, 2, 3), (9,)), (2, (4, 5, 6), (10,)))
        forged = behavior.history_snapshot(snapshot)
        assert len(forged) == 2
        for (period, partners, chunks), (fp, fpartners, fchunks) in zip(snapshot, forged):
            assert fp == period
            assert fchunks == chunks
            assert len(fpartners) == len(partners)
