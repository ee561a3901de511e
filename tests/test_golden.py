"""Golden digests of the matcher's and the analysis layer's outputs.

The matcher digests were recorded with a matcher that rescanned the whole
market on every round of every receiver. Any rewrite of the class round must
reproduce them exactly: they pin who is matched with whom, through which
volunteer and with which reach, and which partners each agent saw as
eligible, on instances far larger than the oracles' random ones of at most
5/5/3 agents.

The analysis digests were recorded while the misreport probe and the fig8d
manipulation experiment each kept their own scorer and fig8b and fig8c each
their own loop. They pin every fig8d outcome row with its summary figures,
every case the exhaustive misreport probe tries (seeds 0-5 have no gainful
misreport under any policy, so "raw-gains" adds three of the five 4/4/2
instances among seeds 0-24 that have one, all availability exceptions under
raw preferences; "sized" holds the known hard gain), and the paired
fig8b/fig8c allocation rows.

The Pareto verdict digest was recorded while the assignment oracle still
tested a (donor, receiver) pair afresh in each of its checks. It pins the
verdict, reason and counterexample of every judgement in a sweep of random
instances under both preference modes: the produced matching and three
seeded corruptions of it (a match moved to a random receiver or none, a
receiver handed to another donor, a match dropped), which reach all five
reasons.

The figure digests were recorded while the experiment command still wrote
each figure's CSV and SVG with its own block of code. They pin the file
bytes of fig8a, fig8b, fig8c and fig8d on a small desk-policy city.

The scenario-file digests were recorded while the writer still built every
request record and the whole JSON string before writing a byte. They pin the
generated populations and the file bytes of uniform cities at the benchmark's
size, both desk presets, a multi-hub city and an empty scenario.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from foodmatch.engine import MatchPolicy
from foodmatch.cli import PAIRED_EXPERIMENTS, main
from foodmatch.experiments import (
    desk_policy_config,
    desk_volunteer_sweep_config,
    experiment_manipulation,
    experiment_paired_policies,
)
from foodmatch.oracles import (
    brute_force_pareto_oracle,
    exhaustive_misreports,
    random_instance,
    run_instance,
    sized_instance,
)
from foodmatch.pool import split_into_meals
from foodmatch.scenario import ScenarioConfig, generate_scenario, save_scenario
from foodmatch.simulate import AcceptanceModel, run_simulation

POLICIES = {
    "default": MatchPolicy(),
    "raw": MatchPolicy(preferences="raw"),
    "start": MatchPolicy(receiver_sort="start"),
}

INSTANCE_DIGESTS = {
    ("default", 0): "06e08eae5174233b2cc077d4ebb60f50eee0d997fb11d975869a6e3de5c073a8",
    ("default", 1): "de2bc5276c381f35f5f98251df7afea2dff17d8ca8a1c638e8bb656ae4d15444",
    ("default", 2): "d2f768bcee656efe4a54ffcee74a871ca0648818f1ccc9430e890927a79163b8",
    ("raw", 0): "e0a35a0b8445deef5bdf096ab60c4fc9984b28a2b1b3ff6f46002fc8fa0ce779",
    ("raw", 1): "509643574a20710a6e6ba908fd2a279fd5fc0ba5408a708733a213a45dbc5420",
    ("raw", 2): "7e4408152adde2f41c9a60e5ea9d6400cec75c4b11186b427f32b211c3bfbcf3",
    ("start", 0): "49d289ef33c43c3eead5f9a50007dfbcd6afd0f02af0f48a2394b4be7a3b674c",
    ("start", 1): "ffb111c110353b7fd1aa0d0d4912f7d599fbfb510dc9310e0022833c45d026ce",
    ("start", 2): "78664c0adc6462aac9f04468e6d92f8ffa425b601d2f6d630987bce16b0b276b",
}

SIMULATION_DIGEST = "96078749b77c230cdfb8baf4f4abb46f45880597495dbba048e74e52abf33aa1"

# (desk-policy city seed, manipulated percentage)
MANIPULATION_DIGESTS = {
    (6, 50.0): "72e20c7387f672f8b52e8f01d4e7a721afdcc604b535e435747674ff9cd7d26b",
    (10, 100.0): "530cbbf4557a6d75613a816f49d9302a6022d8c578491905f7099bf5fa165c3e",
}

MISREPORT_DIGESTS = {
    "default": "879c1a46c8111c83d9495c55bed3c730f74a37e11b06fe144d7ae8f4a74b9bb3",
    "raw": "8fac3eb550f733db752d791febdf5be9d2b91ba80c49227b5c8a75fb5be91d38",
    "raw-gains": "416359454cbf8a39a137d163bd0a542271e4d682dc943e63286b44a011ff5998",
    "sized": "9100603b7edd84ba0e4f214e40be6d60a4ada68aaadac53512d1b70de57b0b9c",
    "start": "879c1a46c8111c83d9495c55bed3c730f74a37e11b06fe144d7ae8f4a74b9bb3",
}

PARETO_VERDICT_DIGEST = "c5565066d9e646daf0c7842d45e21aee655c9631389e1eade5b70ef5d47016a2"

PAIRED_DIGESTS = {
    "fig8b": "5a31d7744c22522f1cf3132d4808af691050c857f3d6e362daa2bb2eb1d79a1e",
    "fig8c": "efe815cdade8840ccb57cc37a61a8853967d0ca7de73fd0aba50d2180e42de44",
}

# figure -> the experiment flags it runs with on the desk-policy city below
FIGURE_FLAGS = {
    "fig8a": ("--multiples", "0.5,1,2"),
    "fig8b": ("--seeds", "2"),
    "fig8c": ("--seeds", "2"),
    "fig8d": ("--fraction", "50"),
}

FIGURE_DIGESTS = {
    "fig8a": {
        "csv": "ba3bd0fbdb6b72cf1dded43f9fc46f53daae4e6b31cff3e53ec8a74ce56ac263",
        "svg": "441458f2fa0aaa3e0c546a418c007009d9cf71dd8af155645812097bc9d1f893",
    },
    "fig8b": {
        "csv": "19cdf73927f3fc12191584660e790b5c8baa82e438dac8f25fc779318d527853",
        "svg": "c9a2fee367301d1df144b1f4358753c04100b339e1b87b4ddf3debda99bd1828",
    },
    "fig8c": {
        "csv": "4ba62ccb83a9ece2da41315c6de6e9462ac474a85ab649092b5d4db7972d23f1",
        "svg": "e05b98d961a048ae132afd0f4a0355e8aa2a62977311a656e4279b7aef36be37",
    },
    "fig8d": {
        "csv": "f93720f86a9552b0bbd68f1d555dead9be2991c18d03bebfcecc12cea5201781",
        "svg": "c1290590ee7a29992a920f936a7911751d0f78fe6dbab9ffc3da4300e4f97990",
    },
}

SCENARIO_CONFIGS = {
    "uniform-0": ScenarioConfig(n_requests=5000, seed=0),
    "uniform-1": ScenarioConfig(n_requests=5000, seed=1),
    "uniform-2": ScenarioConfig(n_requests=5000, seed=2),
    "corridor-4": desk_volunteer_sweep_config(seed=4),
    "deadlines-4": desk_policy_config(seed=4),
    "hubs-7": ScenarioConfig(n_requests=1000, seed=7, donor_hubs=2, receiver_hubs=3),
    "empty": ScenarioConfig(n_requests=0),
}

SCENARIO_FILE_DIGESTS = {
    "uniform-0": "e4b2dc6af0530f9f94c34408c45201647e1ec956c44f86b1ca122b5fbdaa3fec",
    "uniform-1": "581463768d4b5678b284166f19ade1286c6ebd83a7c27e52721645cba67817ac",
    "uniform-2": "9ae7cd40fab6b8281966d4d5594f9ef139d8d1a4000d940297c040367f00cbaa",
    "corridor-4": "b404073b1279ee09d7ec9543bffae1e7507a0706177b49b2d904030aecb9d93b",
    "deadlines-4": "c4fe68f7e9f5d4db8b40a728bf31874ccdb6939176ad7472f038f69c8c9960b9",
    "hubs-7": "f82fd1053f9d5b9de08736e1ddb3effbc397891da4985545427eca828ce20442",
    "empty": "4a15ce2c5fa7f1fc3e49aacc37b6bc6dd998b323a1bb6baea1ddf53f795b3002",
}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _universes(seen: dict[int, set[int]]) -> list:
    return sorted([agent, sorted(agents)] for agent, agents in seen.items())


def instance_payload(policy: str, seed: int) -> dict:
    instance = sized_instance(seed, 60, 120, 30, policy=POLICIES[policy], city=30.0)
    matches, trace = run_instance(instance)
    rows = [
        [str(m.donor), str(m.volunteer), str(m.receiver), m.delivered_amount, m.vicinity]
        for m in matches
    ]
    return {"rows": rows, "universes": _universes(trace)}


def simulation_payload() -> dict:
    scenario = generate_scenario(ScenarioConfig(n_requests=600, seed=5))
    acceptance = AcceptanceModel(rejection_probability=0.3, no_response_probability=0.1, seed=5)
    report = run_simulation(scenario, acceptance=acceptance, trace=True)
    return {
        "accepted_groups": report.accepted_groups,
        "terminal_states": report.terminal_states,
        "universes": _universes(report.eligibility_universes),
    }


def manipulation_payload(seed: int, fraction: float) -> dict:
    report = experiment_manipulation(generate_scenario(desk_policy_config(seed=seed, n_requests=200)), fraction)
    rows = [
        [o.agent_id, o.role, o.truthful_rank, o.misreport_rank, o.gain, o.exception]
        for o in report.outcomes
    ]
    return {"rows": rows, "mean_gain": report.mean_gain, "exception_rate_pct": report.exception_rate_pct}


def misreport_payload(which: str) -> list:
    if which == "sized":
        instances = [sized_instance(194878866301001, 4, 4, 2)]
    elif which == "raw-gains":
        instances = [random_instance(seed, 4, 4, 2, policy=POLICIES["raw"]) for seed in (8, 11, 13)]
    else:
        instances = [random_instance(seed, 4, 4, 2, policy=POLICIES[which]) for seed in range(6)]
    return [
        [
            [c.agent_id, c.role, list(c.misreport), c.truthful_rank, c.misreport_rank, c.exception]
            for c in exhaustive_misreports(instance).outcomes
        ]
        for instance in instances
    ]


def corruptions(instance, matches: list, seed: int) -> list[list]:
    """Three seeded corruptions of a produced matching: a left-out donor's
    match moved to a served receiver with its meal's full amount, a served
    receiver handed from its donor to a left-out one, and one match
    dropped."""
    rng = random.Random(f"corrupt:{seed}")
    if not matches:
        return []
    meals = {m.id: m.amount for d in instance.donors for m in split_into_meals(d, instance.thresholds.t_m)}

    def assign(m, receiver):
        return replace(m, receiver=receiver, delivered_amount=meals[m.donor] if receiver else 0)

    left_out = [j for j, m in enumerate(matches) if m.receiver is None] or range(len(matches))
    served = [j for j, m in enumerate(matches) if m.receiver is not None] or range(len(matches))
    moved, handed, dropped = list(matches), list(matches), list(matches)
    i, k = rng.choice(left_out), rng.choice(served)
    moved[i] = assign(matches[i], matches[k].receiver)
    i, j = rng.choice(served), rng.choice(left_out)
    handed[j] = assign(matches[j], matches[i].receiver)
    if i != j:
        handed[i] = assign(matches[i], None)
    i = rng.randrange(len(matches))
    dropped[i] = assign(matches[i], None)
    return [moved, handed, dropped]


def pareto_verdict_payload() -> list:
    rows = []
    for mode in ("default", "raw"):
        for seed in range(300):
            instance = random_instance(seed, policy=POLICIES[mode])
            matches, _ = run_instance(instance)
            for k, matching in enumerate([matches] + corruptions(instance, matches, seed)):
                verdict = brute_force_pareto_oracle(instance, matching)
                rows.append([mode, seed, k, verdict.ok, verdict.reason, verdict.counterexample])
    return rows


def paired_payload(which: str) -> list:
    (baseline, variant), _, _ = PAIRED_EXPERIMENTS[which]
    rows = experiment_paired_policies(desk_policy_config(n_requests=200), [0, 1], baseline, variant)
    return [[r.seed, r.baseline_pct, r.variant_pct] for r in rows]


@pytest.mark.parametrize("policy, seed", sorted(INSTANCE_DIGESTS))
def test_sized_instance_outputs(policy, seed):
    assert _digest(instance_payload(policy, seed)) == INSTANCE_DIGESTS[policy, seed]


def test_simulation_outputs():
    assert _digest(simulation_payload()) == SIMULATION_DIGEST


@pytest.mark.parametrize("seed, fraction", sorted(MANIPULATION_DIGESTS))
def test_manipulation_outputs(seed, fraction):
    assert _digest(manipulation_payload(seed, fraction)) == MANIPULATION_DIGESTS[seed, fraction]


@pytest.mark.parametrize("which", sorted(MISREPORT_DIGESTS))
def test_misreport_outputs(which):
    assert _digest(misreport_payload(which)) == MISREPORT_DIGESTS[which]


def test_pareto_verdicts():
    rows = pareto_verdict_payload()
    assert len({row[4] for row in rows}) == 5
    # insertion order kept: a counterexample assignment lists the produced
    # pairs first
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PARETO_VERDICT_DIGEST


@pytest.mark.parametrize("which", sorted(PAIRED_DIGESTS))
def test_paired_policy_outputs(which):
    assert _digest(paired_payload(which)) == PAIRED_DIGESTS[which]


@pytest.fixture(scope="module")
def figure_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("figures") / "scenario.json"
    save_scenario(generate_scenario(desk_policy_config(seed=3, n_requests=200)), path)
    return path


@pytest.mark.parametrize("which", sorted(FIGURE_DIGESTS))
def test_figure_file_bytes(which, figure_scenario, tmp_path):
    out = tmp_path / which
    argv = ["experiment", which, "--scenario", str(figure_scenario), "--out", str(out), *FIGURE_FLAGS[which]]
    assert main(argv) == 0
    digests = {kind: hashlib.sha256((out / f"{which}.{kind}").read_bytes()).hexdigest() for kind in ("csv", "svg")}
    assert digests == FIGURE_DIGESTS[which]


@pytest.mark.parametrize("which", sorted(SCENARIO_FILE_DIGESTS))
def test_scenario_file_bytes(which, tmp_path):
    scenario = generate_scenario(SCENARIO_CONFIGS[which])
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENARIO_FILE_DIGESTS[which]


@pytest.mark.parametrize("preset, requests", [("corridor", 400), ("deadlines", 600)])
def test_generate_preset_file_bytes(preset, requests, tmp_path):
    """`generate --preset` writes the desk cities the benchmark reads."""
    path = tmp_path / "scenario.json"
    assert main(["generate", "--preset", preset, "--requests", str(requests), "--seed", "4", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENARIO_FILE_DIGESTS[f"{preset}-4"]
