"""Tests for the extension features: protocol score reads, sporadic
audits, churn, and the CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro import adversary
from repro.config import HONEST_DEGREE


class TestScoreReader:
    def test_message_based_read_matches_oracle(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0, compensation=0.0)
        cluster.run(until=6.0)
        reader_node = cluster.nodes[0]
        target = 5
        results = []
        reader_node.score_reader.query(target, results.append)
        cluster.sim.run(until=cluster.sim.now + 3.0)
        assert len(results) == 1
        oracle = cluster.scoreboard.score(target, cluster.assignment)
        assert results[0] == pytest.approx(oracle, abs=0.5)

    def test_query_unknown_target_returns_none(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=2.0)
        results = []
        cluster.nodes[0].score_reader.query(99_999, results.append)
        cluster.sim.run(until=cluster.sim.now + 3.0)
        assert results == [None]


class TestSporadicAudits:
    def test_scheduler_produces_audit_results(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0, p_audit=0.05, gamma=3.0)
        cluster.run(until=15.0)
        results = cluster.audit_results()
        assert results, "no sporadic audits ran"
        # Honest-only system: audits should pass overwhelmingly.
        passed = sum(1 for r in results if r.passed)
        assert passed >= 0.8 * len(results)

    def test_sporadic_audits_flag_biased_colluders(self, small_cluster_factory):
        # γ must clear the small-scale honest *fanin* spread (wider than
        # fanout, as in Figure 13b) while staying above the coalition's
        # concentrated histories (~log2 of the coalition size ≈ 2.5).
        cluster = small_cluster_factory(
            loss_rate=0.0,
            p_audit=0.08,
            gamma=3.1,
            freerider_fraction=0.25,
            adversary=adversary.spec(
                "coalition", degree=(0, 0, 0), bias=0.95, launder=0.0
            ),
            expulsion_enabled=True,
        )
        cluster.run(until=20.0)
        audit_expulsions = cluster.controller.records_by_reason("audit")
        if audit_expulsions:  # audits are stochastic; when they hit, they hit right
            wrongful = [r for r in audit_expulsions if r.node not in cluster.freerider_ids]
            assert len(wrongful) <= 0.34 * len(audit_expulsions)


class TestChurn:
    def test_leaving_node_stops_receiving(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=4.0)
        leaver = 3
        cluster.leave(leaver)
        leave_time = cluster.sim.now
        cluster.run(until=10.0)
        node = cluster.nodes[leaver]
        late = [c.chunk_id for c in cluster.source.chunks if c.created_at > leave_time + 1.0]
        owned_late = sum(1 for c in late if c in node.store)
        assert owned_late == 0

    def test_leaver_not_sampled(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=2.0)
        cluster.leave(3)
        assert not cluster.membership.contains(3)

    def test_rejoin_resumes_participation(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=3.0)
        cluster.leave(3)
        cluster.run(until=6.0)
        cluster.rejoin(3)
        rejoin_time = cluster.sim.now
        cluster.run(until=14.0)
        node = cluster.nodes[3]
        late = [
            c.chunk_id
            for c in cluster.source.chunks
            if rejoin_time + 1.0 < c.created_at < cluster.sim.now - 3.0
        ]
        owned = sum(1 for c in late if c in node.store)
        assert owned >= 0.8 * max(1, len(late))


class TestCli:
    def test_analyze_command(self, capsys):
        assert cli_main(["run", "analyze", "--fanout", "12", "--loss", "0.07"]) == 0
        out = capsys.readouterr().out
        assert "72.9" in out  # Eq. 5
        assert "Eq.7" in out

    def test_detect_command_small(self, capsys):
        code = cli_main(
            [
                "run", "detect",
                "--n", "40",
                "--duration", "8",
                "--seed", "3",
                "--freeriders", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection" in out
        assert "overhead" in out

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
