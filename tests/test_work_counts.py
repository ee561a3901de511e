"""Ceilings on the engine's deterministic work.

One seeded desk-policy run under raw preferences counts the geometry calls
the engine makes, through the same module names the traced benchmark wraps.
Each count must stay at or under its ceiling. The run's served grams and a
digest of its accepted groups are pinned next to the counts, so a lower count
cannot come from doing different work.

A change that lowers a count lowers its ceiling to the new value and records
old -> new in CHANGES.md; a ceiling is never raised to let more work pass.
"""

import hashlib
import json
from collections import Counter

from foodmatch import engine
from foodmatch.engine import MatchPolicy
from foodmatch.experiments import desk_policy_config
from foodmatch.scenario import generate_scenario
from foodmatch.simulate import run_simulation

CEILINGS = {
    "distance": 4_682,
    "within_pickup_radius": 62_516,
    "within_dropoff_band": 1_194,
}
SERVED_GRAMS = 29_117
ACCEPTED_DIGEST = "c0d71e16f9c5af0246144d9cfa508927f6d36483eede0ca4abe1140852d235a5"


def test_raw_desk_run_stays_under_its_geometry_ceilings(monkeypatch):
    counts: Counter = Counter()

    def counted(name):
        real = getattr(engine, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapped

    for name in CEILINGS:
        monkeypatch.setattr(engine, name, counted(name))
    report = run_simulation(generate_scenario(desk_policy_config(seed=0)), MatchPolicy(preferences="raw"))
    print({name: counts[name] for name in CEILINGS})

    digest = hashlib.sha256(json.dumps(report.accepted_groups, sort_keys=True).encode()).hexdigest()
    assert (report.served_grams, digest) == (SERVED_GRAMS, ACCEPTED_DIGEST)
    over = {name: (counts[name], ceiling) for name, ceiling in CEILINGS.items() if counts[name] > ceiling}
    assert not over, f"(count, ceiling) above the ceiling: {over}"
