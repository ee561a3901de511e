"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import json
from dataclasses import replace

import pytest

from foodmatch.cli import load_instance, main
from foodmatch.scenario import Scenario, load_scenario, save_scenario


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def small_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    assert run_cli("generate", "--seed", "42", "--requests", "120", "--out", str(path)) == 0
    return path


class TestGenerate:
    def test_writes_scenario(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli("generate", "--seed", "42", "--requests", "200", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert len(payload["requests"]) == 200
        assert payload["config"]["seed"] == 42

    def test_threshold_flags_embedded(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli("generate", "--seed", "1", "--requests", "50", "--out", str(out), "--t-m", "500") == 0
        assert json.loads(out.read_text())["config"]["thresholds"]["t_m"] == 500

    @pytest.mark.parametrize("mix", ["0.9,0.9,0.9", "inf,-inf,1", "nan,nan,nan", "inf,0,0"])
    def test_bad_mix_exits_one(self, mix, tmp_path, capsys):
        assert run_cli("generate", "--mix", mix, "--requests", "20", "--out", str(tmp_path / "x.json")) == 1
        assert capsys.readouterr().err.splitlines() == ["error: infeasible scenario: mix fractions must sum to 1"]
        assert not (tmp_path / "x.json").exists()

    def test_unknown_flag_exits_one(self, tmp_path):
        assert run_cli("generate", "--bogus", "1", "--out", str(tmp_path / "x.json")) == 1

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FDRM_SEED", "777")
        out = tmp_path / "s.json"
        assert run_cli("generate", "--seed", "1", "--requests", "30", "--out", str(out)) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 777

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("generate", "--seed", "9", "--requests", "80", "--out", str(a))
        run_cli("generate", "--seed", "9", "--requests", "80", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_corridor_preset(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("generate", "--preset", "corridor", "--requests", "100", "--out", str(out)) == 0
        config = json.loads(out.read_text())["config"]
        assert config["donor_hubs"] == 1 and config["receiver_hubs"] == 1


class TestRun:
    def test_outputs_written(self, small_scenario, tmp_path):
        out = tmp_path / "results"
        assert run_cli("run", "--scenario", str(small_scenario), "--out", str(out)) == 0
        assert (out / "report.csv").exists()
        assert (out / "deliveries.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["lifecycle_consistent"] is True

    def test_csv_deterministic(self, small_scenario, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--scenario", str(small_scenario), "--out", str(out_a), "--reject-prob", "0.1")
        run_cli("run", "--scenario", str(small_scenario), "--out", str(out_b), "--reject-prob", "0.1")
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        assert (out_a / "deliveries.csv").read_bytes() == (out_b / "deliveries.csv").read_bytes()

    def test_missing_scenario_exits_one(self, tmp_path):
        assert run_cli("run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")) == 1


class TestExperiments:
    def test_fig8a_outputs(self, small_scenario, tmp_path):
        out = tmp_path / "fig8a"
        code = run_cli(
            "experiment", "fig8a", "--scenario", str(small_scenario),
            "--multiples", "0.5,1,2", "--out", str(out), "--tick", "10",
        )
        assert code == 0
        rows = (out / "fig8a.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 points
        svg = (out / "fig8a.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("multiple", ["inf", "nan"])
    def test_fig8a_non_finite_multiple_exits_one(self, multiple, small_scenario, tmp_path, capsys):
        out = tmp_path / "fig8a"
        argv = ("experiment", "fig8a", "--scenario", str(small_scenario), "--multiples", f"1,{multiple}", "--out", str(out))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: multiples must be non-empty, finite and non-negative"]
        assert not (out / "fig8a.csv").exists()

    # config values that used to reach the generator's random draws and
    # crash there (IndexError, TypeError) or fail naming no field
    @pytest.mark.parametrize("which", ["fig8a", "fig8b"])
    @pytest.mark.parametrize("key, value, message", [
        ("food_types", [], "no food types or preference lengths"),
        ("preference_lengths", [], "no food types or preference lengths"),
        ("preference_lengths", [1, -1], "no food types or preference lengths"),
        ("donor_lead", [5], "donor_lead range [5]"),
        ("donor_lead", [50, 5], "donor_lead range [50, 5]"),
        ("receiver_span", [-10, 5], "receiver_span range [-10, 5]"),
        ("receiver_amount_min", 5000, "receiver amount range [5000, 4000]"),
        ("working_start", -300, "working hours"),
    ], ids=["no-food", "no-lengths", "negative-length", "short-lead", "reversed-lead", "negative-span",
            "reversed-amounts", "negative-start"])
    def test_unusable_generator_config_exits_one(self, which, key, value, message, small_scenario, tmp_path, capsys):
        payload = json.loads(small_scenario.read_text())
        payload["config"][key] = value
        small_scenario.write_text(json.dumps(payload))
        out = tmp_path / which
        assert run_cli("experiment", which, "--scenario", str(small_scenario), "--seeds", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: infeasible scenario: {message}"]
        assert not (out / f"{which}.csv").exists()

    def test_fig8b_outputs(self, small_scenario, tmp_path):
        out = tmp_path / "fig8b"
        assert run_cli(
            "experiment", "fig8b", "--scenario", str(small_scenario),
            "--seeds", "2", "--out", str(out), "--tick", "10",
        ) == 0
        rows = (out / "fig8b.csv").read_text().strip().splitlines()
        assert rows[0] == "seed,start_sort_pct,end_sort_pct"
        assert len(rows) == 3

    def test_fig8d_outputs(self, small_scenario, tmp_path):
        out = tmp_path / "fig8d"
        assert run_cli(
            "experiment", "fig8d", "--scenario", str(small_scenario),
            "--fraction", "25", "--out", str(out), "--tick", "10",
        ) == 0
        assert (out / "fig8d.csv").exists() and (out / "fig8d.svg").exists()
        header = (out / "fig8d.csv").read_text().splitlines()[0]
        assert header == "agent_id,role,truthful_rank,manipulated_rank,gain,exception"


class TestOracleCommands:
    def test_pareto_ok_instance(self, tmp_path, capsys):
        instance = {
            "config": {},
            "at": 580,
            "requests": [
                {"type": "donation", "agent_id": 1, "submit_at": 0, "window": [700, 720],
                 "location": [10, 10], "food": "packaged_solid", "amount": 1000},
                {"type": "requirement", "agent_id": 2, "submit_at": 0, "window": [760, 800],
                 "location": [12, 10], "food": "packaged_solid", "amount": 1000},
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(instance))
        assert run_cli("oracle", "pareto", "--instance", str(path)) == 0
        assert "pareto-ok" in capsys.readouterr().out

    def test_strategyproof_instance(self, tmp_path, capsys):
        instance = {
            "config": {},
            "at": 580,
            "requests": [
                {"type": "donation", "agent_id": 1, "submit_at": 0, "window": [700, 720],
                 "location": [10, 10], "food": "packaged_solid", "amount": 1000,
                 "preferred": [2]},
                {"type": "requirement", "agent_id": 2, "submit_at": 0, "window": [760, 800],
                 "location": [12, 10], "food": "packaged_solid", "amount": 1000,
                 "preferred": [1]},
            ],
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(instance))
        assert run_cli("oracle", "strategyproof", "--instance", str(path)) == 0
        assert "hard violations" in capsys.readouterr().out

    def test_missing_instance_exits_one(self, tmp_path):
        assert run_cli("oracle", "pareto", "--instance", str(tmp_path / "nope.json")) == 1

    VOLUNTEER = {"type": "volunteer", "agent_id": 3, "submit_at": 0, "window": [700, 800],
                 "route": [[9, 10], [13, 10]], "motored": True, "ac": False, "payload": 5000}

    def test_minute_defaults_to_the_latest_gate_opening(self, tmp_path):
        donor = _valid_record()  # window [700, 720]: opens at 700 - t_d = 580
        requirement = {"type": "requirement", "agent_id": 2, "submit_at": 0, "window": [760, 800],
                       "location": [12, 10], "food": "packaged_solid", "amount": 1000}
        path = tmp_path / "tiny.json"
        # a volunteer has no lead; counting it would move the minute to 700
        path.write_text(json.dumps({"config": {}, "requests": [donor, requirement, self.VOLUNTEER]}))
        assert load_instance(str(path)).now == 580
        requirement["window"] = [775, 800]
        path.write_text(json.dumps({"config": {}, "requests": [donor, requirement]}))
        assert load_instance(str(path)).now == 595

    @pytest.mark.parametrize("which", ["pareto", "strategyproof"])
    def test_repeated_request_id_exits_one(self, which, tmp_path, capsys):
        # a second record for donation 1.1, not a false counterexample
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"config": {}, "requests": [_valid_record(), _valid_record(location=[11, 10])]}))
        assert run_cli("oracle", which, "--instance", str(path)) == 1
        assert capsys.readouterr().err.splitlines() == ["error: request 1: duplicate request 1.1"]

    def test_volunteer_only_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "volunteers.json"
        path.write_text(json.dumps({"config": {}, "requests": [self.VOLUNTEER]}))
        assert run_cli("oracle", "pareto", "--instance", str(path)) == 1
        assert capsys.readouterr().err.splitlines() == ["error: empty instance"]


class TestCheckGamma:
    def test_clean_run_exits_zero(self, small_scenario, capsys):
        assert run_cli("check-gamma", "--scenario", str(small_scenario), "--tick", "10") == 0
        assert "violations 0" in capsys.readouterr().out


class TestSettingFlags:
    """The threshold, policy and tick flags keep the types and checks of the
    settings they derive from."""

    def test_threshold_flag_equals_embedded_threshold(self, small_scenario, tmp_path):
        scenario = load_scenario(small_scenario)
        thresholds = replace(scenario.config.thresholds, t_l=40.0)
        embedded = tmp_path / "embedded.json"
        save_scenario(Scenario(config=replace(scenario.config, thresholds=thresholds), requests=scenario.requests),
                      embedded)
        outs = {name: tmp_path / name for name in ("flag", "embedded", "default")}
        assert run_cli("run", "--scenario", str(small_scenario), "--out", str(outs["flag"]), "--t-l", "40") == 0
        assert run_cli("run", "--scenario", str(embedded), "--out", str(outs["embedded"])) == 0
        assert run_cli("run", "--scenario", str(small_scenario), "--out", str(outs["default"])) == 0
        for name in ("report.csv", "deliveries.csv", "report.json"):
            assert (outs["flag"] / name).read_bytes() == (outs["embedded"] / name).read_bytes(), name
        assert (outs["flag"] / "deliveries.csv").read_bytes() != (outs["default"] / "deliveries.csv").read_bytes()

    # an integer threshold stays integer-typed; a policy takes only the engine's modes
    @pytest.mark.parametrize("flag", [("--t-o", "1.5"), ("--receiver-sort", "middle"), ("--preferences", "sorted")])
    def test_value_outside_the_setting_exits_one(self, flag, small_scenario, tmp_path, capsys):
        assert run_cli("run", "--scenario", str(small_scenario), "--out", str(tmp_path / "out"), *flag) == 1
        assert f"argument {flag[0]}: invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_one(self, value, small_scenario, tmp_path, capsys):
        # refused before anything is written, not by the next command that reads it
        for argv in (
            ("generate", "--requests", "30", "--out", str(tmp_path / "out.json")),
            ("run", "--scenario", str(small_scenario), "--out", str(tmp_path / "out")),
        ):
            assert run_cli(*argv, f"--t-l={value}") == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: threshold t_l must be positive and finite"), err
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "out").exists()

    def test_float_threshold_takes_a_fraction(self, small_scenario, tmp_path):
        assert run_cli("run", "--scenario", str(small_scenario), "--out", str(tmp_path / "out"), "--t-l", "7.5") == 0

    # fig8b with --seeds 0 runs no simulation, so only the CLI's own check refuses it
    @pytest.mark.parametrize(
        "command", [["run"], ["experiment", "fig8a"], ["experiment", "fig8b", "--seeds", "0"], ["check-gamma"]]
    )
    def test_zero_tick_exits_one(self, command, small_scenario, tmp_path, capsys):
        argv = [*command, "--scenario", str(small_scenario), "--tick", "0"]
        if command != ["check-gamma"]:
            argv += ["--out", str(tmp_path / "out")]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: tick_minutes must be at least 1"]
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def _valid_record(**changes):
    record = {"type": "donation", "agent_id": 1, "submit_at": 0, "window": [700, 720],
              "location": [10, 10], "food": "packaged_solid", "amount": 1000}
    record.update(changes)
    return record


MALFORMED = {
    "top_level_array": ("[]", "JSON object"),
    "unknown_config_key": (json.dumps({"config": {"bogus": 1}, "requests": [_valid_record()]}), "bogus"),
    "missing_window": (
        json.dumps({"requests": [_valid_record(), {k: v for k, v in _valid_record().items() if k != "window"}]}),
        "request 1: missing field 'window'",
    ),
    "string_coordinates": (json.dumps({"requests": [_valid_record(location=["a", "b"])]}), "request 0: location"),
    "nan_coordinates": (json.dumps({"requests": [_valid_record(location=[float("nan"), 1.0])]}), "request 0: location must be finite"),
    "huge_int_coordinates": (json.dumps({"requests": [_valid_record(location=[10 ** 400, 1])]}), "request 0: location must be finite"),
    "window_past_working_day": (
        json.dumps({"requests": [_valid_record(window=[500, 10_000_000])]}),
        "request 0: window ends at minute 10000000, past working_end 1439",
    ),
    "negative_submit_at": (
        json.dumps({"requests": [_valid_record(), _valid_record(agent_id=2, submit_at=-5)]}),
        "request 1: minutes must not be negative",
    ),
    "negative_window_start": (json.dumps({"requests": [_valid_record(window=[-10, 720])]}), "request 0: minutes must not be negative"),
    "duplicate_preferred_donors": (
        json.dumps({"requests": [_valid_record(), _valid_record(
            type="requirement", agent_id=2, window=[760, 800], preferred=[5, 7, 5])]}),
        "request 1: duplicate entries in preferred donors",
    ),
}


class TestMalformedInput:
    """A broken scenario or instance file exits 1 with one line on stderr."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_line_error_and_exit_one(self, case, tmp_path, capsys):
        text, expected = MALFORMED[case]
        path = tmp_path / "broken.json"
        path.write_text(text)
        for argv in (
            ("run", "--scenario", str(path), "--out", str(tmp_path / "out")),
            ("oracle", "pareto", "--instance", str(path)),
        ):
            assert run_cli(*argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and expected in err[0], err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["generate_into_missing_dir", "run_out_is_a_file", "pareto_over_cap"])
    def test_io_and_over_cap_errors_exit_one(self, case, small_scenario, tmp_path, capsys):
        if case == "generate_into_missing_dir":
            argv = ("generate", "--requests", "30", "--out", str(tmp_path / "missing" / "x.json"))
            expected = "No such file or directory"
        elif case == "run_out_is_a_file":
            taken = tmp_path / "taken"
            taken.write_text("")
            argv = ("run", "--scenario", str(small_scenario), "--out", str(taken), "--tick", "10")
            expected = "File exists"
        else:
            path = tmp_path / "big.json"
            path.write_text(json.dumps({"requests": [_valid_record(agent_id=i) for i in range(1, 7)]}))
            argv = ("oracle", "pareto", "--instance", str(path))
            expected = "instance too large for exhaustive enumeration"
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and expected in err[0], err

    def test_string_threshold_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"config": {"thresholds": {"t_o": "15"}}, "requests": [_valid_record()]}))
        assert run_cli("oracle", "pareto", "--instance", str(path)) == 1
        assert capsys.readouterr().err.splitlines() == ["error: config.thresholds.t_o must be an integer, got '15'"]
