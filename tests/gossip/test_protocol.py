"""Protocol-node integration tests on a tiny simulated deployment.

These drive real :class:`GossipNode` objects through the simulator and
assert three-phase dissemination semantics (§3) and the LiFTinG hooks.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FreeriderDegree, planetlab_params
from repro.core.blames import REASON_PARTIAL_SERVE
from repro.core.reputation import ManagerAssignment, ReputationManager
from repro.gossip import protocol
from repro.gossip.chunks import SOURCE_ID, ChunkStore
from repro.gossip.history import SHORT_IDS, LocalHistory
from repro.gossip.protocol import MAX_OFFERS_PER_CHUNK, GossipNode, _SentProposal
from repro.nodes.behavior import HonestBehavior
from repro.nodes.colluder import Coalition, ColludingBehavior
from repro.sim.engine import Simulator
from repro.wire import (
    Ack,
    AuditRequest,
    Blame,
    Confirm,
    ConfirmResponse,
    HistoryPollRequest,
    HistoryPollResponse,
    Propose,
    Request,
    ScoreQuery,
    Serve,
    TCP,
)
from repro.wire_codec import encode_frame


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
        assert any(record.fanin for record in node.history.records())


class TestMessageFlow:
    def test_all_message_kinds_flow(self, running_cluster):
        kinds = set(running_cluster.trace.sent_counts_by_kind())
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
        kinds = set(cluster.trace.sent_counts_by_kind())
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
        assert set(node.dispatch_table.keys()) == expected
        # SWIM messages are only handled when a failure detector is
        # configured; without one they pre-seed to the drop path.
        for cls in (wire.Ping, wire.PingAck, wire.PingReq, wire.MembershipUpdate):
            assert node.dispatch_table[cls] is None


class TestOfferPruning:
    def _fresh_node(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        return cluster, cluster.nodes[0]

    def test_stale_entries_pruned_within_a_live_list(self, small_cluster_factory):
        cluster, node = self._fresh_node(small_cluster_factory)
        period = node.gossip.gossip_period
        cluster.sim.run(until=10 * period)
        now = node.clock()
        # many stale proposals naming a chunk and one fresh one
        node._offers.clear()
        node._offers.extend((now - 5 * period, src, 1, (999,)) for src in range(2, 12))
        node._offers.append((now, 1, 2, (999,)))
        node._prune_offers()
        assert list(node._offers) == [(now, 1, 2, (999,))]

    def test_fully_stale_lists_dropped(self, small_cluster_factory):
        cluster, node = self._fresh_node(small_cluster_factory)
        period = node.gossip.gossip_period
        cluster.sim.run(until=10 * period)
        now = node.clock()
        node._offers.clear()
        node._prune_offers()  # an empty log prunes to an empty log
        node._offers.append((now - 5 * period, 2, 1, (999,)))
        node._offers.append((now - 3 * period, 3, 2, (1000,)))
        node._prune_offers()
        assert not node._offers

    def test_per_chunk_offer_lists_bounded(self, small_cluster_factory):
        chunk_id = 777_777  # never served: stays missing, keeps collecting offers

        def retried_after(repeats):
            """Node 1 offers the chunk, then node 2 does ``repeats``
            times; is the request node 2 let expire retried at node 1?"""
            _cluster, node = self._fresh_node(small_cluster_factory)
            node.on_message(1, Propose(proposal_id=1, chunk_ids=(chunk_id,)))
            for pid in range(2, 2 + repeats):
                node.on_message(2, Propose(proposal_id=pid, chunk_ids=(chunk_id,)))
            assert len(node._offers) == 1 + repeats
            first = node._awaited[chunk_id]  # the request node 1 was sent
            node._retry_elsewhere(2, [chunk_id])
            return node._awaited[chunk_id] is not first  # a new window asks

        # The retry looks at the newest MAX_OFFERS_PER_CHUNK offers of a
        # chunk and no further: the 17th-newest is ignored, no request
        # sent.
        assert retried_after(MAX_OFFERS_PER_CHUNK - 1)
        assert not retried_after(MAX_OFFERS_PER_CHUNK)

        # A proposal costs one log entry however many ids it names.
        _cluster, node = self._fresh_node(small_cluster_factory)
        flood = tuple(range(1_000_000, 1_000_000 + 4096))
        node.on_message(3, Propose(proposal_id=9, chunk_ids=flood))
        assert len(node._offers) == 1
        assert node._offers[0][3] is flood


class TestBlameOutbox:
    def test_flush_sends_one_summed_blame_per_target_in_first_blame_order(
        self, small_cluster_factory
    ):
        node = small_cluster_factory(loss_rate=0.0).nodes[0]
        sent = []
        # A host's send_many returns how many destinations it accepted.
        node._send_many = lambda src, dsts, message, kind: sent.append(message) or len(dsts)
        for target, value in ((7, 0.1), (3, 1.0), (7, 0.2), (7, 0.3), (3, 2.0)):
            node.send_blame(target, value, "test")
        node._flush_blames()
        # Managers add these into float totals, so both the order of the
        # messages and the order of the additions inside one are behaviour.
        assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert [(b.target, b.value) for b in sent] == [(7, (0.1 + 0.2) + 0.3), (3, 3.0)]
        node._flush_blames()  # nothing is sent twice
        assert len(sent) == 2


    def test_a_refused_manager_is_no_blame_message(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        node = cluster.nodes[0]
        target = next(
            t for t in cluster.nodes if t != 0 and 0 not in node.assignment.managers_of(t)
        )
        managers = node.assignment.managers_of(target)
        cluster.network.disconnect(managers[0])
        counted, sent = node.stats.blame_messages, cluster.trace.sent_count("Blame")
        node.send_blame(target, 1.0, "test")
        node._flush_blames()
        assert node.stats.blame_messages - counted == len(managers) - 1
        assert cluster.trace.sent_count("Blame") - sent == len(managers) - 1


class TestBlameGuards:
    """The two guards between a blame and the managers: a behaviour may
    withhold a blame, and a target whose period nets to zero is not sent."""

    def _node(self, monkeypatch, behavior=None):
        host = HandClockHost()
        assignment = ManagerAssignment(range(12), managers=3, seed=5)
        node = node_on(host, behavior, assignment=assignment)
        applied = []
        monkeypatch.setattr(
            ReputationManager,
            "on_blame_batch",
            lambda manager, targets, values: applied.append((targets, values)),
        )
        return node, host, applied

    def _flushed(self, node, host, applied):
        """``{target: value}`` as the flush delivered it, remote or local."""
        node._flush_blames()
        out = {}
        for dst, m in host.sent:
            assert isinstance(m, Blame) and dst != node.node_id
            assert out.setdefault(m.target, m.value) == m.value
        for targets, values in applied:
            out.update(zip(targets, values))
        return out

    def test_a_withheld_blame_is_neither_counted_nor_sent(self, monkeypatch):
        coalition = ColludingBehavior(FreeriderDegree(), Coalition({0, 7}))
        node, host, applied = self._node(monkeypatch, coalition)
        node.send_blame(7, 2.0, "test")  # a co-member: withheld
        node.send_blame(3, 1.0, "test")
        node.send_blame(7, -0.5, "test")  # a credit is not a blame
        assert node._blame_outbox == {3: 1.0, 7: -0.5}
        assert node.stats.blames_emitted == 1.0
        assert self._flushed(node, host, applied) == {3: 1.0, 7: -0.5}

    def test_a_target_netting_zero_is_skipped(self, monkeypatch):
        node, host, applied = self._node(monkeypatch)
        node.send_blame(7, 1.0, "test")
        node.send_blame(3, 2.0, "test")
        node.send_blame(7, -1.0, "test")
        assert node._blame_outbox == {7: 0.0, 3: 2.0}
        assert self._flushed(node, host, applied) == {3: 2.0}
        remote = [m for m in node.assignment.managers_of(3) if m != node.node_id]
        assert node.stats.blame_messages == len(remote)


class HandClockHost:
    """A transport facade on a hand-set clock that records every send."""

    def __init__(self):
        self.now = 0.0
        self.timeline = self
        self.down = set()
        self.sent = []

    def call_later(self, delay, fn, *args):
        return None

    def send_many(self, src, dsts, message, kind):
        self.sent.extend((dst, message) for dst in dsts)
        return len(dsts)

    def is_connected(self, node_id):
        return node_id not in self.down


def node_on(host, behavior=None, seed=0, assignment=None):
    gossip, lifting = planetlab_params()
    return GossipNode(
        0, host, None, gossip, lifting, behavior or HonestBehavior(), assignment,
        rng=np.random.default_rng(seed),
    )


class PerChunkLists:
    """The alternative-source index the log replaced, verbatim from the
    parent commit — append per named chunk, cap at 16, prune at the tick
    — kept as the reference the log is compared against."""

    def __init__(self, period):
        self.period = period
        self.offers = {}

    def on_propose(self, src, proposal_id, chunk_ids, owned, now):
        for chunk_id in chunk_ids:
            if chunk_id in owned:
                continue
            offers = self.offers.setdefault(chunk_id, [])
            offers.append((src, proposal_id, now))
            if len(offers) > MAX_OFFERS_PER_CHUNK:
                del offers[0]

    def prune(self, now):
        horizon = now - 2 * self.period
        dead = []
        for chunk_id, offers in self.offers.items():
            if not offers or offers[-1][2] < horizon:
                dead.append(chunk_id)
            elif offers[0][2] < horizon:
                offers[:] = [o for o in offers if o[2] >= horizon]
        for chunk_id in dead:
            del self.offers[chunk_id]

    def alternative(self, proposer, chunk_id, is_connected):
        for src, proposal_id, _at in reversed(self.offers.get(chunk_id, ())):
            if src != proposer and is_connected(src):
                return src, proposal_id
        return None


ALL_CHUNKS = (0, 1, 2, 3, 4)
CHUNK_SETS = st.frozensets(st.sampled_from(ALL_CHUNKS), min_size=1, max_size=3)
PROPOSERS = st.integers(min_value=1, max_value=6)
#: the clock moves in half periods (T_g = 0.5 s is exact in binary), so
#: offers land exactly on the two-period horizon, not only around it.
HALF_PERIODS = st.integers(min_value=0, max_value=3)
STEPS = st.one_of(
    st.tuples(st.just("propose"), PROPOSERS, CHUNK_SETS, st.just(1)),
    st.tuples(st.just("propose"), PROPOSERS, CHUNK_SETS, st.just(1)),
    # one proposer repeating itself past the cap on considered offers
    st.tuples(st.just("propose"), PROPOSERS, CHUNK_SETS, st.integers(14, 20)),
    st.tuples(st.just("advance"), HALF_PERIODS),
    st.tuples(st.just("tick"), HALF_PERIODS),
    st.tuples(st.just("own"), st.sampled_from(ALL_CHUNKS)),
    st.tuples(st.just("disconnect"), PROPOSERS),
    st.tuples(st.just("reconnect"), PROPOSERS),
)


class TestAlternativeSourceLog:
    """The time-ordered log answers every retry as the per-chunk lists did."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=3, max_value=6),
        st.frozensets(st.sampled_from(ALL_CHUNKS), max_size=2),
        st.lists(STEPS, min_size=30, max_size=60),
    )
    def test_log_answers_what_the_lists_answered(self, proposers, owned_at_start, steps):
        host = HandClockHost()
        node = node_on(host)
        model = PerChunkLists(node.gossip.gossip_period)
        for chunk_id in owned_at_start:
            node.store.add(chunk_id, 1, received_at=0.0)
        proposal_id = 0
        for step in steps:
            kind = step[0]
            if kind == "propose":
                _, src, chunk_set, repeats = step
                src = 1 + src % proposers
                chunk_ids = tuple(sorted(chunk_set))
                for _repeat in range(repeats):
                    proposal_id += 1
                    model.on_propose(src, proposal_id, chunk_ids, node.store, host.now)
                    node.on_message(src, Propose(proposal_id, chunk_ids))
            elif kind == "advance":
                host.now += step[1] * 0.25
            elif kind == "tick":
                host.now += step[1] * 0.25
                node._on_period()
                model.prune(host.now)
            elif kind == "own":
                node.store.add(step[1], 1, received_at=host.now)
            elif kind == "disconnect":
                host.down.add(1 + step[1] % proposers)
            else:
                host.down.discard(1 + step[1] % proposers)
            # A retry reads the log and leaves it alone, so every state
            # is asked every question: each proposer's request for all
            # the chunks expiring (0 proposed nothing: nobody is skipped).
            for proposer in range(proposers + 1):
                self._expire_and_compare(node, host, model, proposer)

    @staticmethod
    def _expire_and_compare(node, host, model, proposer):
        expected_retry = {}
        # chunk -> (proposer, proposal id) of the window awaiting it: a
        # retried chunk is awaited by its retry, any other stays put.
        awaited = {c: (w.proposer, w.proposal_id) for c, w in node._awaited.items()}
        for chunk_id in ALL_CHUNKS:
            if chunk_id in node.store:
                continue
            target = model.alternative(proposer, chunk_id, host.is_connected)
            if target is not None:
                expected_retry.setdefault(target, []).append(chunk_id)
                awaited[chunk_id] = target
        del host.sent[:]
        node._retry_elsewhere(proposer, list(ALL_CHUNKS))
        assert host.sent == [
            (src, Request(pid, tuple(ids))) for (src, pid), ids in expected_retry.items()
        ]
        assert {c: (w.proposer, w.proposal_id) for c, w in node._awaited.items()} == awaited


class TestServeOncePerRequest:
    """What a ``Request`` costs its server: one ``Serve`` per distinct
    chunk, one engine booking per request, one origin draw per request."""

    PROPOSAL_ID = 77

    def _proposed(self, node, partner, chunk_ids, now=0.0):
        for chunk_id in chunk_ids:
            node.store.add(chunk_id, 100 + chunk_id, received_at=now)
        node._sent_proposals[self.PROPOSAL_ID] = _SentProposal(
            partners={partner}, chunk_ids=set(chunk_ids), at=now
        )

    def test_repeated_chunk_id_is_served_once(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        node = cluster.nodes[0]
        self._proposed(node, partner=1, chunk_ids=(5,))
        node.on_message(1, Request(self.PROPOSAL_ID, (5,) * 200))
        assert cluster.trace.sent_count("Serve") == 1
        assert node.stats.chunks_served == 1
        assert node.engine._pending_acks == {1: {5: 0.0}}

    def test_a_request_is_checked_against_the_proposal_it_answers(
        self, small_cluster_factory
    ):
        """A sent proposal keeps the Propose's own chunk-id tuple; one
        longer than ``SHORT_IDS`` (inflated by unsolicited Serves) is
        kept as a set, so checking a 4096-id Request costs one lookup
        per id.  Either way every proposed chunk asked for is served."""
        cluster = small_cluster_factory(loss_rate=0.0)
        node = cluster.nodes[0]
        node.history.begin_period(1)
        for size, kept in ((3, tuple), (SHORT_IDS + 1, frozenset)):
            for chunk_id in range(size):
                node.store.add(chunk_id, 100, received_at=0.0)
            node._fresh = {chunk_id: 5 for chunk_id in range(size)}
            node._propose_phase()
            proposal_id = max(node._sent_proposals)
            sent = node._sent_proposals[proposal_id]
            assert type(sent.chunk_ids) is kept
            assert (sent.chunk_ids is node.history.records()[-1].proposal[1]) == (
                kept is tuple
            )
            partner = next(iter(sent.partners))
            served = cluster.trace.sent_count("Serve")
            node.on_message(partner, Request(proposal_id, tuple(range(4096))))
            assert cluster.trace.sent_count("Serve") - served == size

    def test_one_booking_in_chunk_order_with_one_timestamp(self):
        host = HandClockHost()
        node = node_on(host)
        host.now = 3.25
        self._proposed(node, partner=4, chunk_ids=(8, 2, 5), now=host.now)
        node.on_message(4, Request(self.PROPOSAL_ID, (8, 2, 5)))
        assert [(dst, m.chunk_id, m.payload_size) for dst, m in host.sent] == [
            (4, 8, 108), (4, 2, 102), (4, 5, 105)
        ]
        assert list(node.engine._pending_acks[4].items()) == [
            (8, 3.25), (2, 3.25), (5, 3.25)
        ]
        assert node.stats.chunks_served == 3

    def test_mitm_origin_is_drawn_even_when_nothing_is_served(self):
        """``serve_origin`` of a man-in-the-middle colluder comes off the
        node's RNG stream: skipping it for a request whose every chunk
        the serve filter dropped would shift every later draw."""
        host = HandClockHost()
        behavior = ColludingBehavior(
            FreeriderDegree(delta3=1.0), Coalition({0, 5, 6}), man_in_the_middle=True
        )
        node = node_on(host, behavior, seed=11)
        self._proposed(node, partner=4, chunk_ids=(1, 2, 3))
        node.on_message(4, Request(self.PROPOSAL_ID, (1, 2, 3)))
        assert host.sent == []
        assert node.engine._pending_acks == {}
        twin = np.random.default_rng(11)
        for _chunk in range(3):
            twin.random()  # serve_filter: one draw per valid chunk
        twin.integers(0, 2)  # serve_origin: one co-colluder pick
        assert node.rng.random() == twin.random()


class TestPerMessageHooks:
    """A per-message hook is bound once: to None where the behaviour
    keeps ``Behavior``'s own, so the node uses the protocol-correct
    value, and to the override otherwise, called where that value was
    with the same arguments."""

    PROPOSAL_ID = 77

    def test_an_honest_node_binds_none(self):
        node = node_on(HandClockHost())
        hooks = (node._serve_filter, node._serve_origin, node._confirm_answer, node._should_blame)
        assert hooks == (None, None, None, None)

    def test_an_overridden_confirm_answer_is_called_once_per_answer(self):
        calls = []

        class Contrarian(HonestBehavior):
            def confirm_answer(self, proposer, truthful):
                calls.append((proposer, truthful))
                return not truthful

        host = HandClockHost()
        node = node_on(host, Contrarian())
        node.history.begin_period(1)
        node.history.record_received_proposal(3, (1, 2))
        node._answer_confirm(8, Confirm(proposer=3, chunk_ids=(1, 2)))
        node._answer_confirm(8, Confirm(proposer=9, chunk_ids=(1,)))
        assert calls == [(3, True), (9, False)]
        assert host.sent == [
            (8, ConfirmResponse(proposer=3, valid=False)),
            (8, ConfirmResponse(proposer=9, valid=True)),
        ]

    def test_a_lone_serve_filter_override_binds_only_it(self):
        calls = []

        class FirstOnly(HonestBehavior):
            def serve_filter(self, requested):
                calls.append(list(requested))
                return requested[:1]

        host = HandClockHost()
        node = node_on(host, FirstOnly())
        assert node._serve_filter is not None
        assert (node._serve_origin, node._confirm_answer, node._should_blame) == (None,) * 3
        TestServeOncePerRequest()._proposed(node, partner=4, chunk_ids=(1, 2, 3))
        node.on_message(4, Request(self.PROPOSAL_ID, (1, 2, 3)))
        node.on_message(4, Request(self.PROPOSAL_ID, (9,)))  # names nothing proposed
        node.on_message(5, Request(self.PROPOSAL_ID, (1,)))  # not a partner: ignored
        assert calls == [[1, 2, 3], []]
        assert [(dst, m.chunk_id, m.origin) for dst, m in host.sent] == [(4, 1, 0)]

    def test_a_mitm_origin_is_drawn_once_per_valid_request(self):
        draws = []

        class CountingColluder(ColludingBehavior):
            def serve_origin(self):
                origin = super().serve_origin()
                draws.append(origin)
                return origin

        host = HandClockHost()
        behavior = CountingColluder(
            FreeriderDegree(delta3=1.0), Coalition({0, 5, 6}), man_in_the_middle=True
        )
        node = node_on(host, behavior, seed=11)
        TestServeOncePerRequest()._proposed(node, partner=4, chunk_ids=(1, 2, 3))
        node.on_message(4, Request(self.PROPOSAL_ID, (1, 2, 3)))
        node.on_message(4, Request(self.PROPOSAL_ID, (2,)))
        node.on_message(5, Request(self.PROPOSAL_ID, (1,)))  # not a partner: ignored
        assert host.sent == []
        assert len(draws) == 2 and set(draws) <= {5, 6}


class TimerHost(HandClockHost):
    """A ``HandClockHost`` whose timers fire: the node reads a
    simulator's clock and files its timeouts on its calendar."""

    def __init__(self):
        super().__init__()
        self.sim = self.timeline = Simulator()
        self.call_later = self.sim.call_later

    def run(self, until):
        """Fire the timers up to ``until``: ``sent`` then holds what they sent."""
        del self.sent[:]
        self.sim.run(until=until)


FANOUT = 4


@pytest.fixture
def requester(monkeypatch):
    """Build a node that requests what it is proposed, and the blames it
    emits (``send_blame`` records them: a node has no per-instance method)."""
    blames = []
    monkeypatch.setattr(
        GossipNode,
        "send_blame",
        lambda node, target, value, reason: blames.append((target, value, reason)),
    )

    def build(lifting_enabled=True):
        host = TimerHost()
        gossip, lifting = planetlab_params()
        node = GossipNode(
            0, host, None, replace(gossip, fanout=FANOUT), lifting, HonestBehavior(),
            rng=np.random.default_rng(0), lifting_enabled=lifting_enabled,
        )
        return host, node, blames

    return build


def serve(node, src, proposal_id, chunk_id):
    node.on_message(src, Serve(proposal_id, chunk_id, payload_size=1, origin=src))


class TestDirectVerification:
    """§5.2 at the node that owns the request windows: ``serve_timeout``
    after a request, each chunk its proposer has not served draws
    ``f/|R|``; a fully ignored request draws ``f``."""

    def test_all_chunks_served_no_blame(self, requester):
        host, node, blames = requester()
        node.on_message(7, Propose(42, (1, 2, 3)))
        for chunk_id in (1, 2, 3):
            serve(node, 7, 42, chunk_id)
        assert node._awaited == {}
        host.run(until=10.0)
        assert blames == []

    def test_partial_serve_blame_value(self, requester):
        host, node, blames = requester()
        node.on_message(7, Propose(42, (1, 2, 3, 4)))
        serve(node, 7, 42, 1)
        host.run(until=10.0)
        assert blames == [(7, pytest.approx(FANOUT * 3 / 4), REASON_PARTIAL_SERVE)]
        assert node.engine.blames_by_reason[REASON_PARTIAL_SERVE] == FANOUT * 3 / 4

    def test_fully_ignored_request_blamed_f(self, requester):
        host, node, blames = requester()
        node.on_message(7, Propose(42, (1, 2)))
        host.run(until=10.0)
        assert blames == [(7, float(FANOUT), REASON_PARTIAL_SERVE)]

    def test_repeated_id_counts_once(self, requester):
        host, node, blames = requester()
        node.on_message(7, Propose(42, (1,) * 4))
        host.run(until=10.0)
        assert blames == [(7, float(FANOUT), REASON_PARTIAL_SERVE)]

    def test_missing_chunks_retried_elsewhere(self, requester):
        host, node, _blames = requester()
        node.on_message(7, Propose(42, (1, 2, 3)))
        node.on_message(8, Propose(43, (1, 2, 3)))  # the alternative
        serve(node, 7, 42, 2)
        host.run(until=node.lifting.serve_timeout + 0.01)
        assert host.sent == [(8, Request(43, (1, 3)))]
        assert {c: w.proposer for c, w in node._awaited.items()} == {1: 8, 3: 8}

    def test_serve_for_unknown_proposal_ignored(self, requester):
        host, node, blames = requester()
        serve(node, 9, 999, 5)  # answers no request: must not raise
        node.on_message(7, Propose(42, (1,)))
        serve(node, 9, 999, 1)  # the chunk, but not the window's serve
        assert 1 in node.store and 1 in node._awaited
        host.run(until=10.0)
        assert blames == [(7, float(FANOUT), REASON_PARTIAL_SERVE)]
        assert node._awaited == {}


class TestRequestWindows:
    """One window per request, whatever its proposal id: a retry reuses
    the alternative proposer's id, which may already have a window open."""

    @pytest.mark.parametrize("lifting_enabled", [True, False], ids=["lifting", "no-lifting"])
    def test_two_windows_under_one_proposal_id_close_on_their_own_timers(
        self, requester, lifting_enabled
    ):
        host, node, blames = requester(lifting_enabled)
        timeout = node.lifting.serve_timeout
        node.on_message(2, Propose(7, (5,)))  # window 1: chunk 5 from 2
        host.run(until=timeout / 2)
        node.on_message(3, Propose(8, (5, 6)))  # window 2: chunk 6 from 3, id 8
        node.on_message(4, Propose(9, (6,)))  # an offer of 6 only
        # Window 1 closes: chunk 5 is retried at 3, under id 8 again.
        host.run(until=timeout + 0.01)
        assert host.sent == [(3, Request(8, (5,)))]
        # Window 2 closes on its own timer, and its chunk is retried ...
        host.run(until=1.5 * timeout + 0.01)
        assert host.sent == [(4, Request(9, (6,)))]
        # ... while the retry of 5 stays open for its full timeout.
        assert {c: (w.proposer, w.proposal_id) for c, w in node._awaited.items()} == {
            5: (3, 8),
            6: (4, 9),
        }
        host.run(until=2 * timeout + 0.01)
        assert host.sent == [(2, Request(7, (5,)))]
        assert [target for target, _v, _r in blames] == ([2, 3, 3] if lifting_enabled else [])


class TestWitnessAnswers:
    """A witness answers a confirm or a history poll from its own log,
    passed through the behaviour's requester-blind hooks."""

    def _witness(self, behavior=None):
        host = HandClockHost()
        node = node_on(host, behavior)
        node.history.begin_period(1)
        node.history.record_received_proposal(3, (1, 2))
        node.history.confirm_senders.extend((3, 8))
        return node, host

    def _colluder(self):
        return ColludingBehavior(FreeriderDegree(), Coalition({0, 5, 6, 9}))

    def test_honest_poll_answer_is_the_log(self):
        node, host = self._witness()
        node.on_message(4, HistoryPollRequest(target=3, period=1, chunk_ids=(1, 2)))
        node.on_message(4, HistoryPollRequest(target=9, period=1, chunk_ids=(1,)))
        assert host.sent == [
            (4, HistoryPollResponse(target=3, period=1, acknowledged=True,
                                    confirm_senders=(8,))),
            (4, HistoryPollResponse(target=9, period=1, acknowledged=False,
                                    confirm_senders=())),
        ]

    def test_colluder_poll_answer_covers_co_members_only(self):
        node, host = self._witness(self._colluder())
        node.on_message(4, HistoryPollRequest(target=9, period=1, chunk_ids=(1,)))
        node.on_message(4, HistoryPollRequest(target=7, period=1, chunk_ids=(1,)))
        (_, covered), (_, denied) = host.sent
        # The empty sender log about a co-member is fabricated from the
        # coalition roster; about anyone else the log is told as it is.
        assert (covered.target, covered.acknowledged) == (9, True)
        assert sorted(covered.confirm_senders) == [5, 6, 9]
        assert denied == HistoryPollResponse(
            target=7, period=1, acknowledged=False, confirm_senders=()
        )

    def test_honest_confirm_answer_is_the_log(self):
        node, host = self._witness()
        node._answer_confirm(8, Confirm(proposer=3, chunk_ids=(1, 2)))
        node._answer_confirm(8, Confirm(proposer=9, chunk_ids=(1,)))
        assert host.sent == [
            (8, ConfirmResponse(proposer=3, valid=True)),
            (8, ConfirmResponse(proposer=9, valid=False)),
        ]

    def test_colluder_confirms_co_members_only(self):
        node, host = self._witness(self._colluder())
        assert not node.history.was_proposed_by(9, (1,), last=3)
        node._answer_confirm(8, Confirm(proposer=9, chunk_ids=(1,)))
        node._answer_confirm(8, Confirm(proposer=7, chunk_ids=(1,)))
        assert host.sent == [
            (8, ConfirmResponse(proposer=9, valid=True)),
            (8, ConfirmResponse(proposer=7, valid=False)),
        ]
        # The lie is the interned truthful-looking answer, not a forgery.
        assert host.sent[0][1] is protocol._CONFIRM_RESPONSES[9, True]

    # A witness's answer is one of two shared frozen values per proposer.
    def test_at_most_two_responses_per_proposer(self):
        node, host = self._witness()
        for proposer in (3, 9, 3, 9, 3, 41):
            for chunk_ids in ((1, 2), (7,)):
                node._answer_confirm(8, Confirm(proposer=proposer, chunk_ids=chunk_ids))
        per_proposer = {}
        for (proposer, valid), response in protocol._CONFIRM_RESPONSES.items():
            assert response == ConfirmResponse(proposer=proposer, valid=valid)
            per_proposer[proposer] = per_proposer.get(proposer, 0) + 1
        assert max(per_proposer.values()) <= 2
        # Twelve answers, four values: (3, True), (3, False), (9, False),
        # (41, False) — each sent as one object.
        sent = [m for _dst, m in host.sent]
        assert len({id(m) for m in sent}) == len(set(sent)) == 4

    @pytest.mark.parametrize("valid", [False, True])
    def test_an_interned_response_encodes_like_a_fresh_one(self, valid):
        node, host = self._witness()
        node._answer_confirm(8, Confirm(proposer=3, chunk_ids=(1, 2) if valid else (5,)))
        ((_dst, interned),) = host.sent
        assert interned is protocol._CONFIRM_RESPONSES[3, valid]
        fresh = ConfirmResponse(proposer=3, valid=valid)
        assert fresh is not interned
        assert encode_frame(0, interned) == encode_frame(0, fresh)

    def test_a_flood_of_proposer_ids_empties_the_table(self, monkeypatch):
        monkeypatch.setattr(protocol, "_CONFIRM_RESPONSES", {})
        monkeypatch.setattr(protocol, "MAX_INTERNED_RESPONSES", 6)
        node, host = self._witness()
        for proposer in range(100, 120):
            node._answer_confirm(8, Confirm(proposer=proposer, chunk_ids=(1,)))
            assert len(protocol._CONFIRM_RESPONSES) <= 6
        assert [m.proposer for _dst, m in host.sent] == list(range(100, 120))


class TestChannel:
    def test_each_kind_travels_on_the_channel_it_declares(self):
        """The audit exchange goes over TCP and the rest as datagrams:
        the message kind decides, not the caller."""
        host = HandClockHost()
        channels = []
        host.send_many = lambda src, dsts, message, kind: channels.extend(
            (dst, type(message), kind is TCP) for dst in dsts
        ) or len(dsts)
        node = node_on(host)
        node.send(4, AuditRequest(periods=5))
        node.send(4, ScoreQuery(target=3))
        node.send_many((4, 5), HistoryPollRequest(target=3, period=1, chunk_ids=()))
        node.send_many((6,), Confirm(proposer=3, chunk_ids=()))
        assert channels == [
            (4, AuditRequest, True),
            (4, ScoreQuery, False),
            (4, HistoryPollRequest, True),
            (5, HistoryPollRequest, True),
            (6, Confirm, False),
        ]


#: Chunk-id tuples a Propose or a Confirm may carry: short ones from a
#: small pool (so proposals overlap and repeat), and hostile ones past
#: ``SHORT_IDS`` ids, which the history keeps and a witness reads as sets.
WITNESS_IDS = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple),
    st.lists(st.integers(0, 5), min_size=SHORT_IDS + 1, max_size=SHORT_IDS + 4).map(tuple),
)
WITNESS_STEPS = st.one_of(
    st.just(("period",)),
    st.tuples(st.just("propose"), st.integers(1, 3), WITNESS_IDS),
    st.tuples(st.just("confirm"), st.integers(1, 3), WITNESS_IDS),
)
#: Chunk ids a Serve may carry: around the first pages (new pages and
#: duplicates), negative, and far beyond any stream.
SERVE_IDS = st.one_of(
    st.integers(-70, 140),
    st.integers(2**62, 2**62 + 70),
)


class TestInlineCopies:
    """The hot handlers run helpers' bodies inline (a witness's history
    lookup, a first proposal's booking, ``ChunkStore.add``); through the
    handlers, each copy must answer or leave what the helper does."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 3), st.lists(WITNESS_STEPS, max_size=30))
    def test_a_confirm_answer_is_was_proposed_by(self, history_periods, steps):
        # history_periods + 2 records in the ring: 3 to 5, so the ring
        # wraps, and a window of three sees the whole ring or part of it.
        # The model history is fed through its methods only.
        host = TimerHost()
        gossip, lifting = planetlab_params()
        node = GossipNode(
            0, host, None, gossip, replace(lifting, history_periods=history_periods),
            HonestBehavior(), rng=np.random.default_rng(0),
        )
        model = LocalHistory(max_periods=history_periods + 2)
        for step in steps:
            if step[0] == "period":
                node._on_period()
                model.begin_period(node.period)
            elif step[0] == "propose":
                node.on_message(step[1], Propose(1, step[2]))
                if model.received_proposals is not None:
                    model.record_received_proposal(step[1], step[2])
            else:
                _kind, proposer, chunk_ids = step
                node.on_message(8, Confirm(proposer=proposer, chunk_ids=chunk_ids))
                host.run(until=host.sim.now + 1.0)  # past WITNESS_ANSWER_DELAY
                (answer,) = [m for _dst, m in host.sent if m.__class__ is ConfirmResponse]
                expected = model.was_proposed_by(proposer, chunk_ids, last=3)
                assert node.history.was_proposed_by(proposer, chunk_ids, last=3) == expected
                assert answer == ConfirmResponse(proposer=proposer, valid=expected)
            assert node.history.received_proposals == model.received_proposals

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                SERVE_IDS,
                st.integers(0, 2**63),  # 2**63 is past int64: the column refuses it
                st.one_of(st.floats(0.0, 100.0), st.just(-math.inf)),
            ),
            max_size=40,
        )
    )
    def test_a_serve_fills_the_store_as_add_does(self, serves):
        host = HandClockHost()
        node = node_on(host)
        model = ChunkStore()
        for chunk_id, size, now in serves:
            host.now = now
            try:
                expected = model.add(chunk_id, size, received_at=now)
            except (ValueError, OverflowError) as error:
                expected = type(error)
            before = (node.stats.chunks_received, node.stats.duplicate_serves)
            try:
                node.on_message(5, Serve(1, chunk_id, payload_size=size, origin=5))
            except (ValueError, OverflowError) as error:
                got = type(error)
            else:
                got = node.stats.chunks_received > before[0]
                assert node.stats.duplicate_serves - before[1] == (not got)
            assert got == expected
            store = node.store
            assert store.pages == model.pages
            assert store.times == model.times
            assert store.payload_sizes == model.payload_sizes
            assert len(store) == len(model)
