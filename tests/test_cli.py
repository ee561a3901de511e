"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import gc
import json
import weakref
from dataclasses import replace

import pytest

from foodmatch import cli, experiments, pool
from foodmatch import scenario as scenario_module
from foodmatch.cli import load_instance, main
from foodmatch.model import Match, RequestId
from foodmatch.oracles import sized_instance
from foodmatch.scenario import Scenario, TimedRequest, _request_to_record, load_scenario, save_scenario


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

    BAD_MIXES = {
        "0.9,0.9,0.9": "infeasible scenario: mix fractions must sum to 1",
        "inf,-inf,1": "infeasible scenario: mix fractions must sum to 1",
        "nan,nan,nan": "infeasible scenario: mix fractions must sum to 1",
        "inf,0,0": "infeasible scenario: mix fractions must sum to 1",
        "0.5,0.5": "mix must have three comma-separated fractions",
    }

    @pytest.mark.parametrize("mix", list(BAD_MIXES))
    def test_bad_mix_exits_one(self, mix, tmp_path, capsys):
        assert run_cli("generate", "--mix", mix, "--requests", "20", "--out", str(tmp_path / "x.json")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {self.BAD_MIXES[mix]}"]
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

    @pytest.mark.parametrize("mix", ["0.3,0.4,0.3", "0.5"])
    @pytest.mark.parametrize("preset", ["corridor", "deadlines"])
    def test_mix_under_a_preset_exits_one(self, preset, mix, tmp_path, capsys):
        # a preset fixes its own mix, so --mix would be ignored
        out = tmp_path / "x.json"
        assert run_cli("generate", "--preset", preset, "--mix", mix, "--requests", "20", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --mix applies only to the uniform city, not --preset {preset}"]
        assert not out.exists()

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

    def test_fig8a_pool_past_the_bound_exits_one_before_any_run(self, small_scenario, tmp_path, capsys, monkeypatch):
        # the largest pool is checked before the first point runs; the
        # generator's first random stream would fail the test
        monkeypatch.setattr(scenario_module, "random", None)
        runs = []
        monkeypatch.setattr(experiments, "run_simulation", lambda *args, **kwargs: runs.append(args))
        n_d, _, _ = load_scenario(small_scenario).config.counts()
        multiple = (10 ** 7 + 1) / n_d
        assert round(multiple * n_d) == 10 ** 7 + 1
        out = tmp_path / "fig8a"
        assert run_cli("experiment", "fig8a", "--scenario", str(small_scenario),
                       "--multiples", f"1,{multiple!r}", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: infeasible scenario: more than 10000000 requests or agents of one role"]
        assert runs == []
        assert not (out / "fig8a.csv").exists()

    # fig8a-c build their own populations from the file's config
    @pytest.mark.parametrize("which, flags", [
        ("fig8a", ["--multiples", "1"]), ("fig8b", ["--seeds", "1"]), ("fig8c", ["--seeds", "1"]),
    ])
    def test_file_scenario_released_before_the_first_run(self, which, flags, small_scenario, tmp_path, monkeypatch):
        loaded, alive = [], []

        def load(path):
            scenario = load_scenario(path)
            loaded.append(weakref.ref(scenario))
            return scenario

        run = experiments.run_simulation

        def run_simulation(*args, **kwargs):
            if not alive:
                gc.collect()
                alive.append(loaded[0]() is not None)
            return run(*args, **kwargs)

        monkeypatch.setattr(cli, "load_scenario", load)
        monkeypatch.setattr(experiments, "run_simulation", run_simulation)
        out = tmp_path / which
        assert run_cli("experiment", which, "--scenario", str(small_scenario), *flags,
                       "--out", str(out), "--tick", "10") == 0
        assert (len(loaded), alive) == (1, [False])

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
        ("city_width", 0, "empty city"),
        ("n_donors", 5, "explicit counts must set all three roles"),
        ("n_requests", -10, "negative role count"),
    ], ids=["no-food", "no-lengths", "negative-length", "short-lead", "reversed-lead", "negative-span",
            "reversed-amounts", "negative-start", "empty-city", "one-explicit-count", "negative-requests"])
    def test_unusable_generator_config_exits_one(self, which, key, value, message, small_scenario, tmp_path, capsys):
        payload = json.loads(small_scenario.read_text())
        payload["config"][key] = value
        small_scenario.write_text(json.dumps(payload))
        out = tmp_path / which
        seeds = ["--seeds", "1"] if which == "fig8b" else []
        assert run_cli("experiment", which, "--scenario", str(small_scenario), *seeds, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: infeasible scenario: {message}"]
        assert not (out / f"{which}.csv").exists()

    # each figure takes only the flags it reads
    @pytest.mark.parametrize("which, flag", [
        ("fig8a", ("--seed", "3")), ("fig8a", ("--seeds", "1")), ("fig8a", ("--fraction", "5")),
        ("fig8b", ("--multiples", "1")), ("fig8c", ("--fraction", "5")),
        ("fig8d", ("--multiples", "1")), ("fig8d", ("--seed", "3")),
    ])
    def test_flag_the_figure_does_not_read_exits_one(self, which, flag, small_scenario, tmp_path, capsys):
        out = tmp_path / which
        assert run_cli("experiment", which, "--scenario", str(small_scenario), "--out", str(out), *flag) == 1
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

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


    def test_fig8d_with_no_manipulators(self, small_scenario, tmp_path, capsys):
        # an empty report has a mean gain and an exception rate of zero
        out = tmp_path / "fig8d"
        assert run_cli(
            "experiment", "fig8d", "--scenario", str(small_scenario),
            "--fraction", "0", "--out", str(out), "--tick", "10",
        ) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out}/fig8d.csv, fig8d.svg: 0 manipulators, mean gain 0.0000, "
            "exception rate 0.00%, hard violations 0"
        ]
        assert (out / "fig8d.csv").read_text().splitlines() == [
            "agent_id,role,truthful_rank,manipulated_rank,gain,exception"]
        assert "<polyline" not in (out / "fig8d.svg").read_text()


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

    def test_pareto_judges_an_instance_of_any_size(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"requests": [_valid_record(agent_id=i) for i in range(1, 7)]}))
        assert run_cli("oracle", "pareto", "--instance", str(path)) == 0
        assert capsys.readouterr() == ("pareto-ok\n", "")

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

    def test_strategyproof_prints_each_hard_violation(self, tmp_path, capsys):
        instance = sized_instance(194878866301001, 4, 4, 2)
        records = [_request_to_record(TimedRequest(0, r)) for r in instance.donors + instance.receivers + instance.vols]
        path = tmp_path / "sized.json"
        path.write_text(json.dumps({"at": 600, "requests": records}))
        assert run_cli("oracle", "strategyproof", "--instance", str(path)) == 2
        gains = [(202, 204), (204, 202), (201, 202, 204), (201, 204, 202), (202, 201, 204), (202, 204, 201),
                 (204, 201, 202), (204, 202, 201), (202, 204, 203), (204, 202, 203), (201, 202, 204, 203),
                 (201, 204, 202, 203), (202, 201, 204, 203), (202, 204, 201, 203), (202, 204, 203, 201),
                 (204, 201, 202, 203), (204, 202, 201, 203), (204, 202, 203, 201)]
        assert capsys.readouterr().out.splitlines() == [
            "misreports: 512 cases, 18 improvements, 0 availability exceptions, 18 hard violations",
            *(f"  agent 104 (donor) gained 1 via {misreport}: rank 2 -> 1" for misreport in gains),
        ]

    def test_pareto_prints_the_violation(self, tmp_path, monkeypatch, capsys):
        # a produced pair naming a receiver the instance does not have
        path = tmp_path / "tiny.json"
        path.write_text(_requests(_valid_record()))
        produced = [Match(RequestId(1, 1), None, RequestId(9, 1), 5.0, 1000)]
        monkeypatch.setattr(cli, "run_instance", lambda instance: (produced, None))
        assert run_cli("oracle", "pareto", "--instance", str(path)) == 2
        assert capsys.readouterr().out == (
            "violation: produced pair is infeasible :: {'donor': '1.1', 'receiver': '9.1'}\n"
        )

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

    @pytest.mark.parametrize("flags, message", [
        (("--reject-prob", "1.5"), "rejection_probability out of range"),
        (("--no-response-prob", "-0.1"), "no_response_probability out of range"),
        (("--reject-prob", "0.6", "--no-response-prob", "0.6"), "decision probabilities exceed 1"),
    ], ids=["reject-above-one", "no-response-below-zero", "sum-above-one"])
    def test_decision_probability_outside_range_exits_one(self, flags, message, small_scenario, tmp_path, capsys):
        assert run_cli("run", "--scenario", str(small_scenario), "--out", str(tmp_path / "out"), *flags) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("which", ["fig8b", "fig8c"])
    def test_negative_seed_count_exits_one(self, which, small_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("experiment", which, "--scenario", str(small_scenario), "--seeds", "-1", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == ["error: seeds must not be negative"]
        assert not out.exists()

    def test_zero_seed_count_runs_nothing(self, small_scenario, tmp_path):
        out = tmp_path / "out"
        assert run_cli("experiment", "fig8b", "--scenario", str(small_scenario), "--seeds", "0", "--out", str(out)) == 0
        assert (out / "fig8b.csv").read_text().splitlines() == ["seed,start_sort_pct,end_sort_pct"]


def _valid_record(**changes):
    record = {"type": "donation", "agent_id": 1, "submit_at": 0, "window": [700, 720],
              "location": [10, 10], "food": "packaged_solid", "amount": 1000}
    record.update(changes)
    return record


def _valid_volunteer(**changes):
    record = {"type": "volunteer", "agent_id": 3, "submit_at": 0, "window": [600, 900],
              "route": [[0, 0], [5, 5]], "motored": True, "ac": False, "payload": 5000}
    record.update(changes)
    return record


def _requests(*records, **top_level):
    return json.dumps(dict(top_level, requests=list(records)))


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
    "unknown_record_key": (
        json.dumps({"requests": [_valid_record(), _valid_record(agent_id=2, preffered=[2, 3])]}),
        "request 1: unknown keys ['preffered']",
    ),
    "duplicate_preferred_donors": (
        json.dumps({"requests": [_valid_record(), _valid_record(
            type="requirement", agent_id=2, window=[760, 800], preferred=[5, 7, 5])]}),
        "request 1: duplicate entries in preferred donors",
    ),
    "three_number_location": (_requests(_valid_record(location=[1, 2, 3])), "request 0: location must be a list of 2 numbers"),
    "string_location": (_requests(_valid_record(location="here")), "request 0: location must be a list of 2 numbers"),
    "number_packaging": (_requests(_valid_record(packaging=5)), "request 0: packaging must be a str"),
    "string_motored": (_requests(_valid_volunteer(motored="yes")), "request 0: motored must be a bool"),
    "string_route": (_requests(_valid_volunteer(route="a-b")), "request 0: route must be a list"),
    "three_point_route": (_requests(_valid_volunteer(route=[[0, 0], [1, 1], [2, 2]])), "request 0: route must hold 2 locations"),
    "config_not_an_object": (_requests(_valid_record(), config=[1]), "config must be an object"),
    "thresholds_not_an_object": (_requests(_valid_record(), config={"thresholds": 5}), "config.thresholds must be an object"),
    "food_types_not_a_list": (_requests(_valid_record(), config={"food_types": "mixed"}), "must be a list of food types"),
    "zero_payload": (_requests(_valid_volunteer(payload=0)), "request 0: invalid payload capacity"),
    "record_not_an_object": ('{"requests": [5]}', "request 0: expected an object, got int"),
    "unknown_top_level_key": (
        json.dumps({"config": {}, "reqests": [_valid_record()]}),
        "scenario: unknown keys ['reqests']",
    ),
    "zero_requirement_amount": (
        _requests(_valid_record(type="requirement", amount=0)),
        "request 0: invalid amount",
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

    @pytest.mark.parametrize("case", ["generate_into_missing_dir", "run_out_is_a_file"])
    def test_io_errors_exit_one(self, case, small_scenario, tmp_path, capsys):
        if case == "generate_into_missing_dir":
            argv = ("generate", "--requests", "30", "--out", str(tmp_path / "missing" / "x.json"))
            expected = "No such file or directory"
        else:
            taken = tmp_path / "taken"
            taken.write_text("")
            argv = ("run", "--scenario", str(small_scenario), "--out", str(taken), "--tick", "10")
            expected = "File exists"
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and expected in err[0], err

    @pytest.mark.parametrize("depth", [1000, 200_000])
    @pytest.mark.parametrize("where", ["requests", "config"])
    def test_deeply_nested_file_exits_one(self, where, depth, tmp_path, capsys):
        # too deep for json.loads, which raises RecursionError
        nested = "[" * depth + "]" * depth
        path = tmp_path / "deep.json"
        if where == "requests":
            path.write_text('{"requests": [%s]}' % nested)
        else:
            path.write_text('{"config": {"donor_lead": %s}, "requests": []}' % nested)
        for argv in (
            ("run", "--scenario", str(path), "--out", str(tmp_path / "out")),
            ("oracle", "pareto", "--instance", str(path)),
        ):
            assert run_cli(*argv) == 1
            assert capsys.readouterr().err.splitlines() == ["error: JSON nested too deeply"]
        assert not (tmp_path / "out").exists()

    # a file's integers are unbounded; these are too large to use, and fail at once
    @pytest.mark.parametrize("command, message", [
        (["run"], "donation 1.1 splits into more than 1000000 meals"),
        (["oracle", "pareto"], "donation 1.1 splits into more than 1000000 meals"),
        (["experiment", "fig8a"], "int too large to convert to float"),
        (["experiment", "fig8b", "--seeds", "1"], "int too large to convert to float"),
    ], ids=["run-amount", "pareto-amount", "fig8a-n-requests", "fig8b-n-requests"])
    def test_integer_too_large_exits_one(self, command, message, small_scenario, tmp_path, capsys):
        path = tmp_path / "huge.json"
        if command[0] == "experiment":
            payload = json.loads(small_scenario.read_text())
            payload["config"]["n_requests"] = 10 ** 400
            path.write_text(json.dumps(payload))
        else:
            path.write_text(_requests(_valid_record(amount=10 ** 400)))
        out = tmp_path / "out"
        argv = [*command, "--instance", str(path)] if command[0] == "oracle" else [
            *command, "--scenario", str(path), "--out", str(out)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", [["run"], ["oracle", "pareto"], ["oracle", "strategyproof"]])
    @pytest.mark.parametrize("streamed", [True, False], ids=["stream", "whole-text"])
    def test_donation_past_the_meal_bound_exits_one(self, command, streamed, tmp_path, capsys, monkeypatch):
        # one meal past the bound, in the writer's layout and in a layout the
        # reader parses whole; a piece built would mean the bound let it by
        monkeypatch.setattr(pool, "replace", lambda *args, **kwargs: pytest.fail("a meal was split"))
        parses = []
        loads = scenario_module.json.loads
        monkeypatch.setattr(scenario_module.json, "loads", lambda text: parses.append(text) or loads(text))
        records = json.dumps([_valid_record(amount=(pool.MAX_MEALS + 1) * 500)])
        config = json.dumps({"thresholds": {"t_m": 500}})
        path = tmp_path / "huge.json"
        layout = '{"config": %s, "requests": %s}' if streamed else '{"requests": %s, "config": %s}'
        path.write_text(layout % ((config, records) if streamed else (records, config)))
        out = tmp_path / "out"
        argv = [*command, "--instance", str(path)] if command[0] == "oracle" else [
            *command, "--scenario", str(path), "--out", str(out)]
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: donation 1.1 splits into more than 1000000 meals"]
        assert (len(parses), out.exists()) == (0 if streamed else 1, False)

    @pytest.mark.parametrize("counts", [
        {"n_requests": 10 ** 7 + 1},
        {"n_donors": 10 ** 7 + 1, "n_receivers": 1, "n_volunteers": 1},
        {"n_donors": 1, "n_receivers": 10 ** 7 + 1, "n_volunteers": 1},
        {"n_donors": 1, "n_receivers": 1, "n_volunteers": 10 ** 7 + 1},
    ], ids=["requests", "donors", "receivers", "volunteers"])
    @pytest.mark.parametrize("streamed", [True, False], ids=["stream", "whole-text"])
    def test_counts_past_the_bound_exit_one(self, streamed, counts, tmp_path, capsys, monkeypatch):
        # fig8b regenerates the file's config; without the bound the
        # generator's first random stream would fail the test
        monkeypatch.setattr(scenario_module, "random", None)
        records = json.dumps([_valid_record()])
        config = json.dumps(counts)
        path = tmp_path / "huge.json"
        path.write_text('{"config": %s, "requests": %s}' % (config, records) if streamed
                        else '{"requests": %s, "config": %s}' % (records, config))
        out = tmp_path / "out"
        assert run_cli("experiment", "fig8b", "--scenario", str(path), "--out", str(out), "--seeds", "1") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: infeasible scenario: more than 10000000 requests or agents of one role"]

    def test_generate_past_the_request_bound_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenario_module, "random", None)
        out = tmp_path / "s.json"
        assert run_cli("generate", "--requests", str(10 ** 7 + 1), "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: infeasible scenario: more than 10000000 requests or agents of one role"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run"], ["check-gamma"], ["experiment", "fig8a"], ["experiment", "fig8d"], ["oracle", "pareto"],
    ], ids=lambda command: "-".join(command))
    def test_repeated_request_id_exits_one_before_any_run(self, command, tmp_path, capsys, monkeypatch):
        # the city's last record, donation 129.1 submitted at minute 1280,
        # appears twice; the pool would refuse it only when the run got there
        path = tmp_path / "city.json"
        assert run_cli("generate", "--seed", "3", "--requests", "300", "--out", str(path)) == 0
        scenario = json.loads(path.read_text())
        scenario["requests"].append(scenario["requests"][-1])
        path.write_text(json.dumps(scenario))
        runs = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "run_simulation", lambda *args, **kwargs: runs.append(args))
        monkeypatch.setattr(cli, "run_instance", lambda *args: runs.append(args))
        out = tmp_path / "out"
        argv = [*command, "--instance", str(path)] if command[0] == "oracle" else [*command, "--scenario", str(path)]
        assert run_cli(*argv, *(["--out", str(out)] if command[0] in ("run", "experiment") else [])) == 1
        assert capsys.readouterr().err.splitlines() == ["error: request 300: duplicate request 129.1"]
        assert (runs, out.exists()) == ([], False)

    def test_string_threshold_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"config": {"thresholds": {"t_o": "15"}}, "requests": [_valid_record()]}))
        assert run_cli("oracle", "pareto", "--instance", str(path)) == 1
        assert capsys.readouterr().err.splitlines() == ["error: config.thresholds.t_o must be an integer, got '15'"]
