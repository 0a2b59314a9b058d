"""The adversary-policy framework: registry, behaviours, cluster wiring.

Each adversary's *mechanism* is tested in isolation against a recording
fake node — the adaptive freerider walks its ladder under synthetic
score feedback, the launderer splits its credit budget, the stuffer
respects its start period, the equivocator splits the requester
population — and the cluster wiring tests prove the ``adversary`` value
of a ``ClusterConfig`` is all it takes to arm a deployment.
"""

import signal
from dataclasses import replace

import numpy as np
import pytest

from repro import adversary
from repro.adversary import (
    AdaptiveFreeriderBehavior,
    AdversaryContext,
    EquivocatorBehavior,
    LaunderingColluderBehavior,
    StuffingCampaign,
    SybilStufferBehavior,
    available,
    create,
    degree_ladder,
)
from repro.analysis.freerider_blames import expected_blame_excess
from repro.config import FreeriderDegree, planetlab_params
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.nodes.colluder import Coalition


def make_context(freeriders=(1, 2, 3), honest=(10, 11, 12, 13), seed=0):
    gossip, lifting = planetlab_params()
    return AdversaryContext(
        gossip=gossip,
        lifting=lifting,
        freerider_ids=frozenset(freeriders),
        honest_ids=frozenset(honest),
        rng=np.random.default_rng(seed),
    )


class FakeScoreReader:
    def __init__(self):
        self.queries = []

    def query(self, target, callback):
        self.queries.append((target, callback))


class FakeNode:
    """Just enough node surface for a behaviour under test."""

    def __init__(self, node_id=1, eta=-9.75):
        self.node_id = node_id
        _gossip, lifting = planetlab_params()
        self.lifting = replace(lifting, eta=eta)
        self.score_reader = FakeScoreReader()
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
    def test_all_four_adversaries_registered(self):
        assert set(available()) >= {
            "freerider", "adaptive", "coalition", "sybil_blame", "equivocator"
        }

    def test_unknown_kind_lists_available(self):
        with pytest.raises(ValueError, match="adaptive"):
            create("nope")

    @pytest.mark.parametrize(
        "kind, params, complaint",
        [
            ("adaptive", {"step": 0}, "step must be > 0"),  # looped forever
            ("adaptive", {"step": -0.05}, "step must be > 0"),
            ("adaptive", {"headroom": 0.0}, "headroom must be > 0"),
            ("adaptive", {"check_every": 0}, "check_every must be >= 1"),
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
            ("equivocator", {"deny_share": 1.5}, "deny_share must be a probability"),
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

    @pytest.mark.parametrize("step", [0, -1.0])
    def test_degree_ladder_refuses_a_step_that_cannot_advance(
        self, hard_timeout, step
    ):
        with pytest.raises(ValueError, match="step must be > 0"):
            degree_ladder(make_context(), headroom=0.8, step=step)

    def test_a_bad_adversary_fails_at_config_construction(self, hard_timeout):
        from repro.runtime import RuntimeConfig

        gossip, lifting = planetlab_params()
        bad = adversary.spec("adaptive", step=0)
        with pytest.raises(ValueError, match="step must be > 0"):
            ClusterConfig(gossip=gossip, lifting=lifting, adversary=bad)
        with pytest.raises(ValueError, match="step must be > 0"):
            RuntimeConfig(adversary=bad)


class TestAdaptiveFreerider:
    def test_ladder_start_rung_sits_under_the_budget(self):
        ctx = make_context()
        ladder, start = degree_ladder(ctx, headroom=0.8)
        gossip, lifting = ctx.gossip, ctx.lifting
        p_r = 1.0 - lifting.assumed_loss_rate
        budget = 0.8 * -lifting.eta

        def excess(degree):
            return expected_blame_excess(
                degree, gossip.fanout, gossip.request_size, p_r, lifting.p_dcc
            )

        assert excess(ladder[start]) <= budget
        if start + 1 < len(ladder):
            assert excess(ladder[start + 1]) > budget

    def test_more_headroom_never_lowers_the_start_rung(self):
        ctx = make_context()
        _, cautious = degree_ladder(ctx, headroom=0.4)
        _, bold = degree_ladder(ctx, headroom=0.9)
        assert bold >= cautious

    def make_behavior(self, rung=2, **kwargs):
        ladder = [FreeriderDegree.uniform(d) for d in (0.0, 0.2, 0.4, 0.6)]
        behavior = AdaptiveFreeriderBehavior(ladder, rung, **kwargs)
        node = FakeNode()
        behavior.bind(node)
        return behavior, node

    def test_score_checks_follow_the_cadence(self):
        behavior, node = self.make_behavior(check_every=5)
        for period in range(11):
            behavior.on_period_start(period)
        assert [t for t, _cb in node.score_reader.queries] == [1, 1, 1]  # 0, 5, 10

    def test_bad_score_retreats_a_rung(self):
        behavior, node = self.make_behavior(rung=2, retreat_at=0.6)
        behavior._on_own_score(0.7 * -9.75)  # score -6.8 is below 0.6·η
        assert behavior.rung == 1
        assert behavior.degree == behavior.ladder[1]
        assert behavior.adjustments == 1

    def test_comfortable_score_advances_a_rung(self):
        behavior, _node = self.make_behavior(rung=2, advance_at=0.25)
        behavior._on_own_score(-1.0)  # well above 0.25·η = -2.4
        assert behavior.rung == 3

    def test_middling_score_holds_the_rung(self):
        behavior, _node = self.make_behavior(rung=2)
        behavior._on_own_score(0.4 * -9.75)  # between the two thresholds
        assert behavior.rung == 2
        assert behavior.adjustments == 0

    def test_silent_managers_are_a_noop(self):
        behavior, _node = self.make_behavior(rung=2)
        behavior._on_own_score(None)
        assert behavior.rung == 2

    def test_ladder_ends_clamp(self):
        behavior, _node = self.make_behavior(rung=0)
        behavior._on_own_score(-100.0)  # terrible score, nowhere to retreat
        assert behavior.rung == 0
        behavior, _node = self.make_behavior(rung=3)
        behavior._on_own_score(0.0)  # perfect score, nowhere to advance
        assert behavior.rung == 3


class TestLaunderingColluder:
    def make_behavior(self, members=(1, 2, 3), launder=2.0):
        behavior = LaunderingColluderBehavior(
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


class TestEquivocator:
    def test_population_split_is_inconsistent_but_deterministic(self):
        behavior = EquivocatorBehavior(deny_share=0.5)
        behavior.bind(FakeNode(node_id=1))
        answers = {
            requester: behavior.confirm_answer(requester, proposer=7, truthful=True)
            for requester in range(20)
        }
        assert set(answers.values()) == {True, False}  # genuinely split
        again = {
            requester: behavior.confirm_answer(requester, proposer=7, truthful=True)
            for requester in range(20)
        }
        assert answers == again  # per-requester, the lie is stable

    def test_denied_poll_withholds_the_sender_log(self):
        behavior = EquivocatorBehavior(deny_share=1.0)
        behavior.bind(FakeNode(node_id=1))
        ack, senders = behavior.poll_answer(3, target=7, truthful_ack=True,
                                            truthful_senders=[4, 5])
        assert ack is False
        assert senders == []
        assert behavior.lies_told == 1

    def test_zero_share_is_fully_honest(self):
        behavior = EquivocatorBehavior(deny_share=0.0)
        behavior.bind(FakeNode(node_id=1))
        for requester in range(10):
            assert behavior.confirm_answer(requester, 7, True) is True
        assert behavior.lies_told == 0


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
            assert isinstance(behavior, LaunderingColluderBehavior)
            assert behavior.launder == 1.5
        for nid in cluster.honest_ids:
            assert not isinstance(cluster.nodes[nid].behavior,
                                  LaunderingColluderBehavior)

    def test_adaptive_freeriders_walk_their_ladder_in_a_deployment(self):
        # The one policy no scenario arms: create -> prepare -> build
        # through the config, then the score-read feedback loop.
        gossip, lifting = planetlab_params()
        cluster = SimCluster(ClusterConfig(
            gossip=replace(gossip, n=24, chunk_size=1400), lifting=lifting, seed=3,
            loss_rate=0.02, freerider_fraction=0.2, expulsion_enabled=True,
            adversary=adversary.spec("adaptive"),
        ))
        monitor = cluster.attach_invariants(interval=1.0)
        cluster.run(until=8.0)
        monitor.check()
        assert monitor.summary()["violations"] == 0
        policy = cluster.adversary_policy
        behaviors = [cluster.nodes[nid].behavior for nid in cluster.freerider_ids]
        assert behaviors and all(b.ladder is policy.ladder for b in behaviors)
        assert any(b.rung != policy.start_rung for b in behaviors)

    def test_policy_describe_is_exposed(self):
        cluster = self.make_cluster(adversary=adversary.spec("equivocator"))
        assert cluster.adversary_policy.describe()["policy"] == "equivocator"

    def test_unknown_adversary_fails_fast(self):
        with pytest.raises(ValueError, match="available"):
            self.make_cluster(adversary=adversary.spec("not-a-policy"))

    def test_no_adversary_leaves_legacy_paths_untouched(self):
        cluster = self.make_cluster()
        assert cluster.adversary_policy is None
