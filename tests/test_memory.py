"""Memory guards on the two short-lived copies of data in a city-sized run:
reading the scenario file and copying the run's requests. Each guard bounds
what the step holds at its peak beyond what it keeps, measured with
tracemalloc on a 5,000-request city."""

import copy
import gc
import json
import tracemalloc
import types

import pytest

from foodmatch import simulate
from foodmatch.scenario import ScenarioConfig, generate_scenario, load_scenario, save_scenario

MB = 1_000_000


@pytest.fixture(scope="module")
def city():
    return generate_scenario(ScenarioConfig(n_requests=5000, seed=11))


def transient(call):
    """The call's result, and the bytes it held at its peak beyond those
    still held when it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


# the writer's file, and the copy that json.tool-style reindenting makes
@pytest.mark.parametrize("indent", [None, 2])
def test_load_holds_one_record_at_a_time(city, indent, tmp_path):
    path = tmp_path / "city.json"
    save_scenario(city, path)
    if indent is not None:
        path.write_text(json.dumps(json.loads(path.read_text()), indent=indent))
    loaded, extra = transient(lambda: load_scenario(path))
    assert len(loaded.requests) == 5000
    assert extra < 1.5 * MB, f"loading held {extra / MB:.2f} MB beyond the scenario"


class _Copied(Exception):
    """Ends the run once its schedule is copied."""


def test_schedule_copy_holds_little_beyond_the_copy(city, monkeypatch):
    extras = []

    def measured(value):
        _, extra = transient(lambda: copy.deepcopy(value))
        extras.append(extra)
        raise _Copied

    monkeypatch.setattr(simulate, "copy", types.SimpleNamespace(deepcopy=measured))
    with pytest.raises(_Copied):
        simulate.run_simulation(city)
    assert extras[0] < 1.0 * MB, f"the copy held {extras[0] / MB:.2f} MB beyond itself"
