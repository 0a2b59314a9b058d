"""Protocol-node integration tests on a tiny simulated deployment.

These drive real :class:`GossipNode` objects through the simulator and
assert three-phase dissemination semantics (§3) and the LiFTinG hooks.
"""

import pytest

from repro.gossip.chunks import SOURCE_ID
from repro.wire import Ack, Blame, Confirm, Propose, Request, Serve


@pytest.fixture
def running_cluster(small_cluster_factory):
    cluster = small_cluster_factory(loss_rate=0.0)
    cluster.run(until=6.0)
    return cluster


class TestDissemination:
    def test_chunks_reach_almost_everyone(self, running_cluster):
        emitted = running_cluster.source.emitted
        assert emitted > 0
        # Chunks emitted early should be almost everywhere by now.  With
        # a small fanout, infect-and-die gossip misses a node on a few
        # percent of chunks — that residue is expected protocol
        # behaviour, not a bug (the stream tolerates it).
        early = [c.chunk_id for c in running_cluster.source.chunks if c.created_at < 2.0]
        ratios = [
            sum(1 for c in early if c in node.store) / len(early)
            for node in running_cluster.nodes.values()
        ]
        assert sum(ratios) / len(ratios) > 0.93
        assert min(ratios) > 0.6

    def test_infect_and_die_single_proposal_per_chunk(self, running_cluster):
        # Each node proposes a chunk at most once: total proposal entries
        # mentioning chunk c are bounded by n.
        from collections import Counter

        mentions = Counter()
        for node in running_cluster.nodes.values():
            seen = set()
            for record in node.history.records():
                if record.proposal:
                    for chunk in record.proposal[1]:
                        assert chunk not in seen, "chunk proposed twice by one node"
                        seen.add(chunk)
                    mentions.update(set(record.proposal[1]))

    def test_stats_track_activity(self, running_cluster):
        node = next(iter(running_cluster.nodes.values()))
        assert node.stats.proposals_received > 0
        assert node.stats.chunks_received > 0

    def test_requests_only_for_missing_chunks(self, running_cluster):
        # Duplicate serves should be rare when pending tracking works.
        total_received = sum(
            n.stats.chunks_received for n in running_cluster.nodes.values()
        )
        total_duplicates = sum(
            n.stats.duplicate_serves for n in running_cluster.nodes.values()
        )
        assert total_duplicates < 0.25 * total_received

    def test_fanin_logged_per_period(self, running_cluster):
        node = next(iter(running_cluster.nodes.values()))
        assert len(node.history.fanin_multiset()) > 0


class TestMessageFlow:
    def test_all_message_kinds_flow(self, running_cluster):
        kinds = set(running_cluster.trace.kinds())
        assert {"Propose", "Request", "Serve", "Ack", "Confirm", "ConfirmResponse"} <= kinds

    def test_invalid_request_ignored(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=2.0)
        node = cluster.nodes[0]
        served_before = node.stats.chunks_served
        # Requests are served synchronously; a request for a proposal id
        # that does not exist must not serve anything (§4.2).
        node.on_message(1, Request(proposal_id=999_999, chunk_ids=(0,)))
        assert node.stats.chunks_served == served_before

    def test_request_from_non_partner_ignored(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=3.0)
        # Find a node with a live proposal and a non-partner.
        for node in cluster.nodes.values():
            if node._sent_proposals:
                pid, record = next(iter(node._sent_proposals.items()))
                outsiders = [
                    n for n in cluster.node_ids
                    if n not in record.partners and n != node.node_id
                ]
                served_before = node.stats.chunks_served
                node.on_message(outsiders[0], Request(pid, tuple(record.chunk_ids)))
                assert node.stats.chunks_served == served_before
                return
        pytest.fail("no proposals found")

    def test_acks_sent_to_servers_not_source(self, running_cluster):
        # Ack messages exist, and none are addressed to the source (it is
        # registered on the network, so sends to it would be delivered).
        assert running_cluster.trace.sent_count("Ack") > 0


class TestLiftingDisabled:
    def test_no_verification_traffic(self, small_cluster_factory):
        cluster = small_cluster_factory(lifting_enabled=False, loss_rate=0.0)
        cluster.run(until=4.0)
        kinds = set(cluster.trace.kinds())
        assert "Ack" not in kinds
        assert "Confirm" not in kinds
        assert "Blame" not in kinds

    def test_dissemination_still_works(self, small_cluster_factory):
        cluster = small_cluster_factory(lifting_enabled=False, loss_rate=0.0)
        cluster.run(until=5.0)
        early = [c.chunk_id for c in cluster.source.chunks if c.created_at < 2.0]
        ratios = [
            sum(1 for c in early if c in node.store) / len(early)
            for node in cluster.nodes.values()
        ]
        assert sum(ratios) / len(ratios) > 0.93

    def test_lost_serves_retried_without_engine(self, small_cluster_factory):
        cluster = small_cluster_factory(lifting_enabled=False, loss_rate=0.08)
        cluster.run(until=8.0)
        early = [c.chunk_id for c in cluster.source.chunks if c.created_at < 3.0]
        ratios = [
            sum(1 for c in early if c in node.store) / len(early)
            for node in cluster.nodes.values()
        ]
        assert sum(ratios) / len(ratios) > 0.9


class TestScoresUnderLoss:
    def test_honest_scores_near_zero_without_loss(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0, compensation=0.0)
        cluster.run(until=8.0)
        scores = list(cluster.scores().values())
        # No loss + no misbehaviour: blames stem only from rare timing
        # races; the population must sit essentially at zero.
        import numpy as np

        assert np.mean(scores) > -0.5
        assert np.median(scores) == 0.0

    def test_loss_generates_wrongful_blames(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.08, compensation=0.0)
        cluster.run(until=8.0)
        scores = cluster.scores()
        assert min(scores.values()) < 0.0


class TestDispatchTable:
    def test_unknown_message_type_silently_dropped(self, small_cluster_factory):
        cluster = small_cluster_factory()
        node = cluster.nodes[0]

        class Strange:
            pass

        node.on_message(1, Strange())  # must not raise

    def test_lifting_disabled_node_ignores_verification_messages(self, small_cluster_factory):
        cluster = small_cluster_factory(lifting_enabled=False)
        node = cluster.nodes[0]
        assert node.engine is None
        node.on_message(1, Ack(chunk_ids=(1,), partners=(2,)))
        node.on_message(1, Blame(target=2, value=1.0))

    def test_dispatch_covers_every_wire_message(self, small_cluster_factory):
        """A fully-equipped node (manager + engine + auditor) must have a
        handler for every message class the protocol can receive."""
        import repro.wire as wire

        cluster = small_cluster_factory()
        node = cluster.nodes[0]
        assert node.manager is not None and node.engine is not None
        expected = {
            wire.Propose, wire.Request, wire.Serve, wire.Ack, wire.Confirm,
            wire.ConfirmResponse, wire.Blame, wire.ExpelVote, wire.ScoreQuery,
            wire.ScoreReply, wire.AuditRequest, wire.AuditResponse,
            wire.HistoryPollRequest, wire.HistoryPollResponse,
            wire.Ping, wire.PingAck, wire.PingReq, wire.MembershipUpdate,
        }
        assert set(node._dispatch.keys()) == expected
        # SWIM messages are only handled when a failure detector is
        # configured; without one they pre-seed to the drop path.
        for cls in (wire.Ping, wire.PingAck, wire.PingReq, wire.MembershipUpdate):
            assert node._dispatch[cls] is None


class TestOfferPruning:
    def _fresh_node(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        return cluster, cluster.nodes[0]

    def test_stale_entries_pruned_within_a_live_list(self, small_cluster_factory):
        cluster, node = self._fresh_node(small_cluster_factory)
        period = node.gossip.gossip_period
        cluster.sim.run(until=10 * period)
        now = node.clock()
        # one chunk with many stale offers and one fresh one
        node._offers[999] = [
            (src, 1, now - 5 * period) for src in range(2, 12)
        ] + [(1, 2, now)]
        node._prune_offers()
        assert node._offers[999] == [(1, 2, now)]

    def test_fully_stale_lists_dropped(self, small_cluster_factory):
        cluster, node = self._fresh_node(small_cluster_factory)
        period = node.gossip.gossip_period
        cluster.sim.run(until=10 * period)
        now = node.clock()
        node._offers[999] = [(2, 1, now - 5 * period)]
        node._offers[1000] = []
        node._prune_offers()
        assert 999 not in node._offers
        assert 1000 not in node._offers

    def test_per_chunk_offer_lists_bounded(self, small_cluster_factory):
        from repro.gossip.protocol import MAX_OFFERS_PER_CHUNK

        cluster, node = self._fresh_node(small_cluster_factory)
        chunk_id = 777_777  # never served: stays missing, keeps collecting offers
        for src in range(1, MAX_OFFERS_PER_CHUNK + 8):
            node.on_message(src, Propose(proposal_id=src, chunk_ids=(chunk_id,)))
        offers = node._offers[chunk_id]
        assert len(offers) == MAX_OFFERS_PER_CHUNK
        # the oldest entries were evicted, the newest kept
        assert offers[-1][0] == MAX_OFFERS_PER_CHUNK + 7
        assert offers[0][0] == 8


class TestBlameOutbox:
    def test_flush_sends_one_summed_blame_per_target_in_first_blame_order(
        self, small_cluster_factory
    ):
        node = small_cluster_factory(loss_rate=0.0).nodes[0]
        sent = []
        node.send_many = lambda dsts, message, reliable=False: sent.append(message)
        for target, value in ((7, 0.1), (3, 1.0), (7, 0.2), (7, 0.3), (3, 2.0)):
            node.send_blame(target, value, "test")
        node._flush_blames()
        # Managers add these into float totals, so both the order of the
        # messages and the order of the additions inside one are behaviour.
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert [(b.target, b.value) for b in sent] == [(7, (0.1 + 0.2) + 0.3), (3, 3.0)]
        node._flush_blames()  # nothing is sent twice
        assert len(sent) == 2
