"""Ceilings on the engine's deterministic work.

Two seeded runs, the desk-policy city under raw preferences and a churned
1,500-request city, count the geometry calls the engine makes through the
same module names the traced benchmark wraps, its off_route_allowance calls
(one per market volunteer on each class round that gates a donor), the
provisional and completed matches of its rounds, and the Python-level
RequestId hashes of the whole run. Each count must stay at or under its ceiling. Each run's served grams
and a digest of its accepted groups are pinned next to the counts, so a
lower count cannot come from doing different work. A third test counts the
copies the misreport probe makes per one-shot run.

A change that lowers a count lowers its ceiling to the new value and records
old -> new in CHANGES.md; a ceiling is never raised to let more work pass.
"""

import hashlib
import json
import types
from collections import Counter

import pytest

from foodmatch import engine, oracles
from foodmatch.engine import MatchPolicy
from foodmatch.experiments import desk_policy_config
from foodmatch.model import RequestId
from foodmatch.oracles import exhaustive_misreports, sized_instance
from foodmatch.scenario import ScenarioConfig, generate_scenario
from foodmatch.simulate import AcceptanceModel, run_simulation

WORKLOADS = {
    "raw-desk": (
        desk_policy_config(seed=0), MatchPolicy(preferences="raw"), AcceptanceModel(),
        {
            "distance": 4_682,
            "within_pickup_radius": 62_516,
            "within_dropoff_band": 1_194,
            "off_route_allowance": 24_569,
            "provisional_matches": 1_923,
            "completed_matches": 21,
            "RequestId.__hash__": 3_243,
        },
        29_117, "c0d71e16f9c5af0246144d9cfa508927f6d36483eede0ca4abe1140852d235a5",
    ),
    "churned-city": (
        ScenarioConfig(n_requests=1500, seed=1), MatchPolicy(), AcceptanceModel(0.3, 0.1, seed=1),
        {
            "distance": 171_176,
            "within_pickup_radius": 16_308,
            "within_dropoff_band": 37_848,
            "off_route_allowance": 118_968,
            "provisional_matches": 8_629,
            "completed_matches": 821,
            "RequestId.__hash__": 95_352,
        },
        578_676, "d947cfcf37c946ed7346f5f17d6d0c69bf3f38660cd66d3876c655bd49905c30",
    ),
}


def count_calls(monkeypatch, counts: Counter, owner, name, key=None, amount=lambda result: 1) -> None:
    """Replace owner.name in place with a wrapper that adds amount(result)
    to counts[key or name] after the real call."""
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        result = real(*args, **kwargs)
        counts[key or name] += amount(result)
        return result
    monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seeded_run_stays_under_its_ceilings(workload, monkeypatch):
    config, policy, acceptance, ceilings, served_grams, digest = WORKLOADS[workload]
    scenario = generate_scenario(config)
    counts: Counter = Counter()
    for name in ("distance", "within_pickup_radius", "within_dropoff_band", "off_route_allowance"):
        count_calls(monkeypatch, counts, engine, name)
    count_calls(monkeypatch, counts, engine, "assign_volunteers", "provisional_matches", lambda result: len(result[0]))
    count_calls(monkeypatch, counts, engine, "ca_dtb", "completed_matches", lambda result: len(result.completed()))
    count_calls(monkeypatch, counts, RequestId, "__hash__", "RequestId.__hash__")
    report = run_simulation(scenario, policy, acceptance)
    monkeypatch.undo()
    print({name: counts[name] for name in ceilings})

    accepted = hashlib.sha256(json.dumps(report.accepted_groups, sort_keys=True).encode()).hexdigest()
    assert (report.served_grams, accepted) == (served_grams, digest)
    over = {name: (counts[name], ceiling) for name, ceiling in ceilings.items() if counts[name] > ceiling}
    assert not over, f"(count, ceiling) above the ceiling: {over}"


def test_misreport_probe_copies_only_what_a_round_writes(monkeypatch):
    counts: Counter = Counter()
    # the oracles' own view of copy, as perfbench wraps the simulator's
    monkeypatch.setattr(oracles, "copy", types.SimpleNamespace(deepcopy=oracles.copy.deepcopy))
    for owner, name in ((oracles, "run_instance"), (oracles.copy, "deepcopy"), (oracles.Instance, "clone")):
        count_calls(monkeypatch, counts, owner, name)
    report = exhaustive_misreports(sized_instance(42, 4, 4, 2))

    # one truthful run plus one per scored case; each copies its receivers
    # and volunteers in one deepcopy and clones no instance
    assert report.cases == 512
    assert dict(counts) == {"run_instance": 513, "deepcopy": 513}
