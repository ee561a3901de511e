"""Golden digests of the matcher's and the analysis layer's outputs.

The matcher digests were recorded with a matcher that rescanned the whole
market on every round of every receiver. Any rewrite of the class round must
reproduce them exactly: they pin who is matched with whom, through which
volunteer and with which reach, and which partners each agent saw as
eligible, on instances far past the exhaustive oracles' 5/5/3 caps.

The analysis digests were recorded while the misreport probe and the fig8d
manipulation experiment each kept their own scorer and fig8b and fig8c each
their own loop. They pin every fig8d outcome row with its summary figures,
every case the exhaustive misreport probe tries (seeds 0-5 have no gainful
misreport under any policy, so "raw-gains" adds three of the five 4/4/2
instances among seeds 0-24 that have one, all availability exceptions under
raw preferences; "sized" holds the known hard gain), and the paired
fig8b/fig8c allocation rows.

The scenario-file digests were recorded while the writer still built every
request record and the whole JSON string before writing a byte. They pin the
generated populations and the file bytes of uniform cities at the benchmark's
size, both desk presets, a multi-hub city and an empty scenario.
"""

import hashlib
import json

import pytest

from foodmatch.engine import MatchPolicy
from foodmatch.cli import PAIRED_EXPERIMENTS
from foodmatch.experiments import (
    desk_policy_config,
    desk_volunteer_sweep_config,
    experiment_manipulation,
    experiment_paired_policies,
)
from foodmatch.oracles import exhaustive_misreports, random_instance, run_instance, sized_instance
from foodmatch.scenario import ScenarioConfig, generate_scenario, save_scenario, scenario_to_json
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

PAIRED_DIGESTS = {
    "fig8b": "5a31d7744c22522f1cf3132d4808af691050c857f3d6e362daa2bb2eb1d79a1e",
    "fig8c": "efe815cdade8840ccb57cc37a61a8853967d0ca7de73fd0aba50d2180e42de44",
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
    return {"rows": rows, "universes": _universes(trace.seen)}


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
    report = experiment_manipulation(desk_policy_config(seed=seed, n_requests=200), fraction)
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


@pytest.mark.parametrize("which", sorted(PAIRED_DIGESTS))
def test_paired_policy_outputs(which):
    assert _digest(paired_payload(which)) == PAIRED_DIGESTS[which]


@pytest.mark.parametrize("which", sorted(SCENARIO_FILE_DIGESTS))
def test_scenario_file_bytes(which, tmp_path):
    scenario = generate_scenario(SCENARIO_CONFIGS[which])
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SCENARIO_FILE_DIGESTS[which]
    assert scenario_to_json(scenario).encode() == data
