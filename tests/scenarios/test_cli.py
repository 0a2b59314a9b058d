"""The generic CLI: run/list/describe and the flags derived from ``Param``s."""

import json

import pytest

from repro import cli
from repro.scenarios import ParamError, get, list_scenarios


class TestList:
    def test_lists_every_scenario(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for spec in list_scenarios():
            assert spec.name in out

    def test_tag_filter(self, capsys):
        assert cli.main(["list", "--tag", "figure"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table5" not in out

    def test_unknown_tag_fails(self, capsys):
        assert cli.main(["list", "--tag", "nope"]) == 1


class TestDescribe:
    def test_shows_params_with_defaults(self, capsys):
        assert cli.main(["describe", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "freerider_fraction" in out
        assert "default" in out
        assert "smoke-size overrides" in out

    def test_unknown_scenario_exit_2(self, capsys):
        assert cli.main(["describe", "fig15"]) == 2
        assert "did you mean" in capsys.readouterr().err


class TestRun:
    def test_run_without_scenario_lists_them(self, capsys):
        assert cli.main(["run"]) == 0
        out = capsys.readouterr().out
        assert "registered scenarios" in out and "fig1" in out

    def test_unknown_scenario_exit_2(self, capsys):
        assert cli.main(["run", "fig15"]) == 2
        assert "did you mean 'fig1'" in capsys.readouterr().err

    def test_derived_flags_and_render(self, capsys):
        assert cli.main(["run", "analyze", "--fanout", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fanout: 10\n")
        assert "collusion_ceiling:\n  eq7: " in out

    def test_set_overrides(self, capsys):
        assert cli.main(["run", "analyze", "--set", "fanout=9"]) == 0
        assert "fanout: 9\n" in capsys.readouterr().out

    def test_set_with_dashes_and_sequences(self, capsys):
        code = cli.main(
            ["run", "fig12", "--set", "deltas=0.0,0.1",
             "--set", "samples_per_point=50", "--set", "rounds=2", "--json", "-"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["deltas"] == [0.0, 0.1]

    def test_bad_param_value_exit_2(self, capsys):
        assert cli.main(["run", "fig11", "--set", "n=hello"]) == 2
        assert "expects int" in capsys.readouterr().err

    def test_unknown_param_exit_2(self, capsys):
        assert cli.main(["run", "fig11", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err
        assert cli.main(["run", "fig11", "--set", "n"]) == 2
        assert "--set expects PARAM=VALUE, got 'n'" in capsys.readouterr().err

    def test_json_stdout_is_a_valid_envelope(self, capsys):
        assert cli.main(["run", "analyze", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.run_result/1"
        assert payload["scenario"] == "analyze"
        assert payload["params"]["fanout"] == 12

    def test_json_file(self, tmp_path, capsys):
        from repro.scenarios import RunResult

        path = tmp_path / "out.json"
        assert cli.main(["run", "analyze", "--json", str(path)]) == 0
        assert RunResult.load(path).scenario == "analyze"

    def test_profile_writes_stats(self, tmp_path, capsys):
        path = tmp_path / "analyze.prof"
        assert cli.main(["run", "analyze", "--profile", str(path)]) == 0
        assert path.exists() and path.stat().st_size > 0

    def test_profile_with_sweep_is_rejected(self, tmp_path, capsys):
        # A sweep has no one run to profile: refused, not silently skipped.
        path = tmp_path / "sweep.prof"
        code = cli.main(
            ["run", "analyze", "--sweep", "fanout=9,10", "--profile", str(path)]
        )
        assert code == 2 and not path.exists()
        err = capsys.readouterr().err
        assert "--profile" in err and "--sweep" in err

    def test_wrong_length_deltas_get_param_error(self, capsys):
        for name, param in (("fig1", "heavy_deltas"), ("fig14", "deltas"),
                            ("live", "deltas")):
            with pytest.raises(ParamError, match="exactly 3 values"):
                get(name).resolve({param: (0.1, 0.2)})
        assert cli.main(["run", "fig14", "--set", "deltas=0.1,0.2"]) == 2
        assert "exactly 3 values" in capsys.readouterr().err
