"""``detect``, the one deployment scenario, on either plane.

The simulated arm must keep reporting what it always did (pinned at
smoke size, seed 1), a scripted fault run on it must stay seeded, and
the socket arm must run the same deployment through the fault script,
expulsion and the audit chain, with a lossless ``RunResult``.
"""

import pytest

from repro.cli import main as cli_main
from repro.scenarios import ParamError, RunResult, run_scenario


class TestOnTheSimulator:
    def test_smoke_metrics_are_pinned(self):
        metrics = run_scenario("detect", n=40, duration=6.0).metrics
        assert metrics == {
            "compensation": pytest.approx(15.127645202020204, rel=1e-12),
            "eta": pytest.approx(-4.035842576639725, rel=1e-12),
            "detection": 0.75,
            "false_positives": pytest.approx(1 / 36, rel=1e-12),
            "overhead_percent": pytest.approx(18.77009963863697, rel=1e-12),
            "expelled": (),
            "wrongful_expulsions": (),
            "invariant_checks": 7,  # one a simulated second, and the final sweep
            "invariant_violations": 0,
        }

    def test_a_fault_script_run_is_seeded(self):
        def run(chaos):
            return run_scenario("detect", n=16, duration=6.0, chaos=chaos).metrics

        first = run(True)
        assert first == run(True)
        assert first["invariant_violations"] == 0
        assert first["overhead_percent"] != run(False)["overhead_percent"]  # the script ran

    def test_audit_log_is_refused(self, capsys):
        with pytest.raises(ParamError, match="audit_log is live-only"):
            run_scenario("detect", audit_log="audit.jsonl")
        assert cli_main(["run", "detect", "--set", "audit_log=audit.jsonl"]) == 2
        assert "audit_log is live-only" in capsys.readouterr().err

    def test_plane_is_sim_or_live(self):
        with pytest.raises(ParamError, match="sim or live"):
            run_scenario("detect", plane="udp")


class TestOnSockets:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        log = tmp_path_factory.mktemp("detect") / "audit.jsonl"
        return run_scenario(
            "detect", plane="live", chaos=True, expel=True, n=8, duration=3.0,
            audit_log=str(log),
        )

    def test_round_trips_through_json(self, result):
        assert RunResult.from_json(result.to_json()) == result

    def test_the_fault_script_ran(self, result):
        faults = result.metrics["faults"]
        assert faults["targeted_drops"] > 0 and faults["partition_drops"] > 0
        assert result.metrics["breaker_opens"] > 0

    def test_the_audit_chain_verifies(self, result):
        assert result.metrics["audit_ok"] is True
        assert result.metrics["audit_records"] >= 4  # start, 2 crashes/restarts, snapshot
        assert result.metrics["invariant_violations"] == 0
