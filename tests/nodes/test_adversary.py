"""The adversary-policy framework: registry, behaviours, cluster wiring.

Each adversary's *mechanism* is tested in isolation against a recording
fake node — the laundering colluder splits its credit budget, the
stuffer respects its start period — and the cluster wiring tests prove
the ``adversary`` value of a ``ClusterConfig`` is all it takes to arm a
deployment.
"""

import dataclasses
import re
import signal
from dataclasses import replace

import numpy as np
import pytest

from repro import adversary
from repro.adversary import (
    AdversaryContext,
    StuffingCampaign,
    SybilStufferBehavior,
    available,
    create,
)
from repro.config import FreeriderDegree, planetlab_params
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.nodes.behavior import HonestBehavior
from repro.nodes.colluder import Coalition, ColludingBehavior
from repro.nodes.freerider import FreeriderBehavior

SHIPPED = ("coalition", "freerider", "sybil_blame")


def make_context(freeriders=(1, 2, 3), honest=(10, 11, 12, 13), seed=0):
    return AdversaryContext(
        freerider_ids=frozenset(freeriders),
        honest_ids=frozenset(honest),
        rng=np.random.default_rng(seed),
    )


class FakeNode:
    """Just enough node surface for a behaviour under test."""

    def __init__(self, node_id=1):
        self.node_id = node_id
        self.blames = []

    def send_blame(self, target, value, reason):
        self.blames.append((target, value, reason))


@pytest.fixture
def hard_timeout():
    """Fail, rather than hang the suite, if the body runs past 2 s."""

    def on_alarm(signum, frame):
        raise TimeoutError("policy construction did not return")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(2)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestRegistry:
    def test_registry_is_the_shipped_set(self):
        assert available() == SHIPPED

    def test_unknown_kind_lists_available(self):
        with pytest.raises(ValueError, match="'coalition', 'freerider', 'sybil_blame'"):
            create("nope")

    @pytest.mark.parametrize("kind", ["adaptive", "equivocator"])
    def test_retired_policies_are_unknown(self, kind):
        with pytest.raises(ValueError, match=re.escape(f"{kind!r}; available: {SHIPPED}")):
            create(kind)

    @pytest.mark.parametrize(
        "kind, params, complaint",
        [
            ("coalition", {"bias": 7, "launder": -3}, "(bias|launder) must be"),
            ("coalition", {"bias": 7}, "bias must be a probability"),
            ("coalition", {"launder": -3}, "launder must be >= 0"),
            ("coalition", {"degree": (0.1, 0.1, 1.1)}, "delta3 must be a probability"),
            ("freerider", {"degree": 0.5}, "'freerider'.*accepted parameters"),
            ("coalition", {"period_stride": 0}, "period_stride must be >= 1"),
            ("freerider", {"period_stride": 1.5}, "period_stride must be an integer"),
            ("sybil_blame", {"victims": "two"}, "victims must be an integer"),
            ("sybil_blame", {"rate": "1.5"}, "'sybil_blame'"),  # no string coercion
            ("sybil_blame", {"rate": -1.0}, "rate must be >= 0"),
            ("sybil_blame", {"victims": 0}, "victims must be >= 1"),
            ("sybil_blame", {"start_period": -1}, "start_period must be >= 0"),
            ("sybil_blame", {"delta": 1.5}, "delta1 must be a probability"),
            ("coalition", {"man_in_the_middle": 1}, "attack switches take a bool"),
            ("coalition", {"forge_history": "yes"}, "attack switches take a bool"),
            ("freerider", {"period_stride": 0}, "period_stride must be >= 1"),
            ("freerider", {"degree": (0.1, -0.1, 0.0)}, "delta2 must be a probability"),
            (  # a misspelt key names the policy and what it accepts
                "coalition",
                {"laundre": 1.0},
                "'coalition': .*'laundre'; accepted parameters: .*'launder'",
            ),
        ],
    )
    def test_hostile_parameters_fail_at_create(
        self, hard_timeout, kind, params, complaint
    ):
        with pytest.raises(ValueError, match=complaint):
            create(kind, params)

    def test_a_bad_adversary_fails_at_config_construction(self, hard_timeout):
        gossip, lifting = planetlab_params()
        bad = adversary.spec("coalition", bias=7)
        with pytest.raises(ValueError, match="bias must be a probability"):
            ClusterConfig(gossip=gossip, lifting=lifting, adversary=bad)

    def test_context_carries_only_the_role_sets_and_rng(self):
        fields = [f.name for f in dataclasses.fields(AdversaryContext)]
        assert fields == ["freerider_ids", "honest_ids", "rng"]


class TestLaunderingColluder:
    def make_behavior(self, members=(1, 2, 3), launder=2.0):
        behavior = ColludingBehavior(
            FreeriderDegree.uniform(0.4), Coalition(members), launder=launder
        )
        behavior.bind(FakeNode(node_id=1))
        return behavior

    def test_budget_split_across_co_members_as_credit(self):
        behavior = self.make_behavior(launder=2.0)
        behavior.on_period_start(0)
        node = behavior.node
        assert sorted(t for t, _v, _r in node.blames) == [2, 3]
        assert all(v == -1.0 for _t, v, _r in node.blames)
        assert all(r == "laundered-credit" for _t, _v, r in node.blames)
        assert behavior.credits_sent == 2.0

    def test_zero_budget_sends_nothing(self):
        behavior = self.make_behavior(launder=0.0)
        behavior.on_period_start(0)
        assert behavior.node.blames == []

    def test_singleton_coalition_has_no_one_to_pay(self):
        behavior = self.make_behavior(members=(1,), launder=2.0)
        behavior.on_period_start(0)
        assert behavior.node.blames == []

    def test_the_papers_colluder_launders_nothing(self):
        behavior = ColludingBehavior(FreeriderDegree.uniform(0.4), Coalition((1, 2, 3)))
        behavior.bind(FakeNode(node_id=1))
        behavior.on_period_start(0)
        assert behavior.launder == 0.0
        assert behavior.node.blames == []
        assert behavior.credits_sent == 0.0

    def test_credits_accumulate_across_periods(self):
        behavior = self.make_behavior(members=(1, 2, 3, 4), launder=1.5)
        for period in range(4):
            behavior.on_period_start(period)
        assert len(behavior.node.blames) == 12
        assert behavior.credits_sent == pytest.approx(6.0)


class TestSybilStuffer:
    def make_behavior(self, rate=1.0, start=5, victims=(10, 11), members=(1, 2)):
        campaign = StuffingCampaign(victims, rate, start)
        behavior = SybilStufferBehavior(
            FreeriderDegree.uniform(0.5), campaign, frozenset(members)
        )
        behavior.bind(FakeNode(node_id=1))
        return behavior

    def test_campaign_waits_for_its_start_period(self):
        behavior = self.make_behavior(start=5)
        for period in range(5):
            behavior.on_period_start(period)
        assert behavior.node.blames == []
        behavior.on_period_start(5)
        assert [(t, v) for t, v, _r in behavior.node.blames] == [(10, 1.0), (11, 1.0)]
        assert behavior.campaign.blames_stuffed == 2.0

    def test_stuffers_never_blame_each_other(self):
        behavior = self.make_behavior(members=(1, 2))
        assert not behavior.should_blame(2)
        assert behavior.should_blame(10)

    def test_policy_picks_victims_among_the_honest(self):
        policy = create("sybil_blame", {"victims": 2})
        ctx = make_context()
        policy.prepare(ctx)
        victims = policy.campaign.victims
        assert len(victims) == 2
        assert set(victims) <= ctx.honest_ids
        built = policy.build(1)
        assert built.members == ctx.freerider_ids


class TestClusterWiring:
    def make_cluster(self, **changes):
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=12, chunk_size=1400)
        kwargs = dict(seed=3, loss_rate=0.02, freerider_fraction=0.25,
                      expulsion_enabled=True)
        kwargs.update(changes)
        return SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, **kwargs))

    def test_config_string_arms_the_freeriders(self):
        cluster = self.make_cluster(adversary=adversary.spec("coalition", launder=1.5))
        for nid in cluster.freerider_ids:
            behavior = cluster.nodes[nid].behavior
            assert isinstance(behavior, ColludingBehavior)
            assert behavior.launder == 1.5
        for nid in cluster.honest_ids:
            assert not isinstance(cluster.nodes[nid].behavior, ColludingBehavior)

    @pytest.mark.parametrize("kind", SHIPPED)
    def test_every_policy_arms_exactly_the_adversaries(self, kind):
        cluster = self.make_cluster(adversary=adversary.spec(kind))
        assert cluster.adversary_policy.name == kind
        assert cluster.freerider_ids
        for nid in cluster.freerider_ids:
            assert isinstance(cluster.nodes[nid].behavior, FreeriderBehavior)
        for nid in cluster.honest_ids:
            assert type(cluster.nodes[nid].behavior) is HonestBehavior

    @pytest.mark.parametrize("kind", SHIPPED)
    def test_every_policy_runs_without_breaking_an_invariant(self, kind):
        cluster = self.make_cluster(adversary=adversary.spec(kind))
        monitor = cluster.attach_invariants(interval=1.0)
        cluster.run(until=6.0)
        monitor.check()
        assert monitor.summary()["violations"] == 0

    def test_policy_name_is_exposed(self):
        cluster = self.make_cluster(adversary=adversary.spec("sybil_blame"))
        assert cluster.adversary_policy.name == "sybil_blame"

    def test_unknown_adversary_fails_fast(self):
        with pytest.raises(ValueError, match="available"):
            self.make_cluster(adversary=adversary.spec("not-a-policy"))

    def test_no_adversary_leaves_legacy_paths_untouched(self):
        cluster = self.make_cluster()
        assert cluster.adversary_policy is None
