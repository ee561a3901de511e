"""The benchmark under perfbench/ wraps program names from outside. Installing
and removing its wrappers here fails fast when a refactor drops or renames a
name it wraps, instead of failing a traced benchmark run."""

import sys
from pathlib import Path

import pytest

from foodmatch import engine
from foodmatch.scenario import ScenarioConfig, generate_scenario
from foodmatch.simulate import run_simulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def installed():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracer import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    original = engine.ca_dtb
    tracer = Tracer()
    try:
        layers.install(tracer)
        yield tracer, original
    finally:
        tracer.uninstall()
    assert engine.ca_dtb is original


def test_benchmark_wraps_every_name_it_needs(installed):
    _, original = installed
    assert engine.ca_dtb.__wrapped__ is original


def test_schedule_copy_is_seen_once_per_run(installed):
    tracer, _ = installed
    run_simulation(generate_scenario(ScenarioConfig(n_requests=60, seed=2)))
    assert [span[0] for span in tracer.spans].count("simulate.schedule_copy") == 1


def test_engine_layers_are_counted(installed):
    tracer, _ = installed
    run_simulation(generate_scenario(ScenarioConfig(n_requests=120, seed=2)))
    assert tracer.counts["geometry.distance_calls"] > 0
    assert tracer.counts["geometry.dropoff_band_calls"] > 0
    # counted from the shapes of assign_volunteers' arguments and result
    # and of CaDtbResult.matches
    assert tracer.counts["engine.gated_donors"] > 0
    assert tracer.counts["engine.provisional_matches"] > 0
    assert tracer.counts["engine.completed_matches"] > 0
    assert "engine.match_receivers" in {span[0] for span in tracer.spans}
