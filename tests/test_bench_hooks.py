"""The benchmark under perfbench/ wraps program names from outside. Installing
and removing its wrappers here fails fast when a refactor drops or renames a
name it wraps, instead of failing a traced benchmark run."""

import sys
from pathlib import Path

import pytest

from foodmatch import cli, engine
from foodmatch.oracles import run_instance, sized_instance
from foodmatch.scenario import ScenarioConfig, generate_scenario, load_scenario
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


def test_classification_is_traced_in_runs_and_oracles(installed):
    # the simulator's engine and the oracles' one-shot run each call their
    # module's trifurcate, with the carry as its second argument
    tracer, _ = installed
    run_simulation(generate_scenario(ScenarioConfig(n_requests=120, seed=2)))
    assert "classify.trifurcate" in {span[0] for span in tracer.spans}
    assert tracer.counts["classify.carried_requests"] > 0
    before = len(tracer.spans)
    run_instance(sized_instance(3, 4, 4, 2))
    assert {"classify.trifurcate", "engine.ca_dtb"} <= {span[0] for span in tracer.spans[before:]}


def test_traced_dump_counts_the_written_file(installed, tmp_path):
    tracer, _ = installed
    out = tmp_path / "scenario.json"
    assert cli.main(["generate", "--seed", "3", "--requests", "80", "--out", str(out)]) == 0
    assert [span[0] for span in tracer.spans].count("scenario.dump") == 1
    # the size is read once save_scenario returns, so the file must be
    # complete by then
    assert tracer.counts["scenario.json_bytes"] == out.stat().st_size
    assert len(load_scenario(out).requests) == 80
