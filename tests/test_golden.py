"""Golden digests of the matcher's outputs.

The digests were recorded with a matcher that rescanned the whole market on
every round of every receiver. Any rewrite of the class round must reproduce
them exactly: they pin who is matched with whom, through which volunteer and
with which reach, and which partners each agent saw as eligible, on
instances far past the exhaustive oracles' 5/5/3 caps.
"""

import hashlib
import json

import pytest

from foodmatch.engine import MatchPolicy
from foodmatch.oracles import run_instance, sized_instance
from foodmatch.scenario import ScenarioConfig, generate_scenario
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


@pytest.mark.parametrize("policy, seed", sorted(INSTANCE_DIGESTS))
def test_sized_instance_outputs(policy, seed):
    assert _digest(instance_payload(policy, seed)) == INSTANCE_DIGESTS[policy, seed]


def test_simulation_outputs():
    assert _digest(simulation_payload()) == SIMULATION_DIGEST
