"""Unit tests for local history auditing (§5.3) against a fake host."""

import math

import pytest

from repro.core.audit import Auditor
from repro.core.blames import REASON_AUDIT_COMPENSATION, REASON_UNACKNOWLEDGED_HISTORY
from repro.wire import (
    AuditRequest,
    AuditResponse,
    HistoryPollRequest,
    HistoryPollResponse,
    TCP_KINDS,
)


def uniform_history(periods, fanout, n_nodes, start_node=100):
    """A history whose partners are all distinct (maximum entropy)."""
    proposals = []
    node = start_node
    for period in range(1, periods + 1):
        partners = tuple((node + i) % n_nodes for i in range(fanout))
        node += fanout
        proposals.append((period, partners, (period,)))
    return tuple(proposals)


def concentrated_history(periods, fanout, colluders):
    """A history cycling over a tiny colluder set (low entropy)."""
    proposals = []
    for period in range(1, periods + 1):
        partners = tuple(colluders[(period + i) % len(colluders)] for i in range(fanout))
        proposals.append((period, partners, (period,)))
    return tuple(proposals)


@pytest.fixture
def auditor(fake_host):
    return Auditor(fake_host)


def drive_audit(auditor, fake_host, proposals, *, acknowledged=True, senders=None):
    """Run a full audit exchange against scripted witness answers."""
    target = 9
    assert auditor.start(target)
    auditor.on_audit_response(target, AuditResponse(proposals=proposals))
    polls = [(d, m) for d, m in fake_host.sent if isinstance(m, HistoryPollRequest)]
    for witness, poll in polls:
        reply_senders = senders(witness) if senders is not None else tuple(
            100 + (witness * 7 + j) % 50 for j in range(6)
        )
        auditor.on_poll_response(
            witness,
            HistoryPollResponse(
                target=target,
                period=poll.period,
                acknowledged=acknowledged,
                confirm_senders=tuple(reply_senders),
            ),
        )
    return auditor.results[-1] if auditor.results else None


class TestAuditFlow:
    def test_sends_audit_request_over_tcp(self, auditor, fake_host):
        auditor.start(9)
        requests = [(d, m) for d, m in fake_host.sent if isinstance(m, AuditRequest)]
        assert len(requests) == 1
        dst, msg = requests[0]
        # The kind names its channel: the host sends it on TCP.
        assert dst == 9 and AuditRequest in TCP_KINDS
        assert msg.periods == fake_host.lifting.history_periods

    def test_duplicate_audit_refused(self, auditor):
        assert auditor.start(9)
        assert not auditor.start(9)

    def test_polls_every_alleged_partner(self, auditor, fake_host):
        proposals = uniform_history(4, 3, 1000)
        auditor.start(9)
        auditor.on_audit_response(9, AuditResponse(proposals=proposals))
        polls = [m for _d, m in fake_host.sent if isinstance(m, HistoryPollRequest)]
        assert len(polls) == 4 * 3
        assert all(p.target == 9 for p in polls)

    def test_no_response_fails_audit(self, auditor, fake_host):
        auditor.start(9)
        fake_host.sim.run(until=Auditor.RESPONSE_TIMEOUT + 0.1)
        result = auditor.results[-1]
        assert not result.responded
        assert not result.passed
        assert fake_host.verdicts[-1][0] == 9

    def test_empty_history_finalizes_immediately(self, auditor, fake_host):
        auditor.start(9)
        auditor.on_audit_response(9, AuditResponse(proposals=()))
        assert auditor.results
        assert not auditor.results[-1].passed_period_count


class TestEntropyChecks:
    def test_uniform_history_passes_fanout(self, auditor, fake_host):
        proposals = uniform_history(
            fake_host.lifting.history_periods, fake_host.gossip.fanout, 1000
        )
        result = drive_audit(auditor, fake_host, proposals)
        assert result.passed_fanout
        assert result.fanout_entropy == pytest.approx(
            math.log2(len(proposals) * fake_host.gossip.fanout)
        )

    def test_concentrated_history_fails_fanout(self, auditor, fake_host):
        proposals = concentrated_history(
            fake_host.lifting.history_periods, fake_host.gossip.fanout, [1, 2, 3]
        )
        result = drive_audit(auditor, fake_host, proposals)
        assert not result.passed_fanout
        assert result.fanout_entropy <= math.log2(3) + 1e-9
        assert not result.passed

    def test_concentrated_fanin_fails(self, auditor, fake_host):
        # Histories look fine but every witness reports the same two
        # confirm senders — the man-in-the-middle signature.
        proposals = uniform_history(
            fake_host.lifting.history_periods, fake_host.gossip.fanout, 1000
        )
        result = drive_audit(
            auditor, fake_host, proposals, senders=lambda _w: (1, 2)
        )
        assert not result.passed_fanin
        assert not result.passed

    def test_diverse_fanin_passes(self, auditor, fake_host):
        proposals = uniform_history(
            fake_host.lifting.history_periods, fake_host.gossip.fanout, 1000
        )
        result = drive_audit(auditor, fake_host, proposals)
        assert result.passed_fanin

    def test_verdict_reported_to_host(self, auditor, fake_host):
        proposals = concentrated_history(8, fake_host.gossip.fanout, [1, 2])
        drive_audit(auditor, fake_host, proposals)
        target, result = fake_host.verdicts[-1]
        assert target == 9
        assert not result.passed


class TestPeriodCountCheck:
    def test_half_empty_history_fails(self, auditor, fake_host):
        # Stretched gossip period -> too few propose events (§5.3).
        proposals = uniform_history(
            fake_host.lifting.history_periods // 3, fake_host.gossip.fanout, 1000
        )
        result = drive_audit(auditor, fake_host, proposals)
        assert not result.passed_period_count
        assert not result.passed


class TestAposterioriCrossCheck:
    def test_unacknowledged_entries_blamed(self, auditor, fake_host):
        proposals = uniform_history(
            fake_host.lifting.history_periods, fake_host.gossip.fanout, 1000
        )
        result = drive_audit(auditor, fake_host, proposals, acknowledged=False)
        entries = result.polled_entries
        assert result.unacknowledged == entries
        blames = [b for b in fake_host.blames if b[2] == REASON_UNACKNOWLEDGED_HISTORY]
        assert blames == [(9, float(entries), REASON_UNACKNOWLEDGED_HISTORY)]

    def test_compensation_credit_applied(self, auditor, fake_host):
        proposals = uniform_history(
            fake_host.lifting.history_periods, fake_host.gossip.fanout, 1000
        )
        result = drive_audit(auditor, fake_host, proposals)
        credits = [b for b in fake_host.blames if b[2] == REASON_AUDIT_COMPENSATION]
        assert len(credits) == 1
        expected = -(1.0 - fake_host.lifting.p_reception) * result.polled_entries
        assert credits[0][1] == pytest.approx(expected)

    def test_poll_timeout_finalizes_with_partial_testimony(self, auditor, fake_host):
        proposals = uniform_history(6, fake_host.gossip.fanout, 1000)
        auditor.start(9)
        auditor.on_audit_response(9, AuditResponse(proposals=proposals))
        # Only one witness answers; the deadline must still close the audit.
        polls = [
            (d, m) for d, m in fake_host.sent if isinstance(m, HistoryPollRequest)
        ]
        witness, poll = polls[0]
        auditor.on_poll_response(
            witness,
            HistoryPollResponse(
                target=9, period=poll.period, acknowledged=True, confirm_senders=(1,)
            ),
        )
        fake_host.sim.run(until=Auditor.POLL_TIMEOUT + Auditor.RESPONSE_TIMEOUT + 1)
        assert auditor.results


class TestShortHistoryThreshold:
    def test_threshold_scales_with_observed_size(self):
        gamma = 8.95
        full = 600
        # A full window uses γ unchanged; a half window is allowed one
        # bit less.
        assert Auditor._effective_threshold(gamma, 600, full) == pytest.approx(gamma)
        assert Auditor._effective_threshold(gamma, 300, full) == pytest.approx(gamma - 1.0)
        # Never raises the bar above γ.
        assert Auditor._effective_threshold(gamma, 1200, full) == pytest.approx(gamma)

    def test_young_node_short_diverse_history_not_auto_guilty(self, auditor, fake_host):
        # A young node has |F_h| ≪ n_h·f: its entropy ceiling
        # log2(|F_h|) sits below γ, so against the raw threshold every
        # young node would be expelled.  The shortfall-lowered threshold
        # must let a *diverse* short history pass the fanout check.
        periods = 3  # of the 8-period window: 12 entries vs n_h·f = 32
        proposals = uniform_history(
            periods, fake_host.gossip.fanout, fake_host.gossip.n
        )
        result = drive_audit(auditor, fake_host, proposals)
        fanout_size = periods * fake_host.gossip.fanout
        assert result.fanout_size == fanout_size
        # Max achievable entropy is below the raw γ — the raw threshold
        # would auto-expel; the scaled one must not.
        assert math.log2(fanout_size) < fake_host.lifting.gamma
        assert result.passed_fanout

    def test_young_concentrated_history_still_fails(self, auditor, fake_host):
        # The lowered threshold is not a free pass: a short history
        # concentrated on two colluders still fails.
        proposals = concentrated_history(3, fake_host.gossip.fanout, [4, 5])
        result = drive_audit(auditor, fake_host, proposals)
        assert not result.passed_fanout
