"""Which program names the traced run wraps, and how its spans and counters
become the per-layer metrics named in BENCHMARK.json.

Each wrapper replaces one attribute in the namespace its caller reads, so a
name is seen from one layer only: ``distance`` is counted as the engine calls
it, ``copy.deepcopy`` as the simulator calls it, and ``generate_scenario``
separately from the CLI (set-up) and from the experiments (inside the op).
"""

from __future__ import annotations

import os
import types
from collections import Counter

from foodmatch import cli, engine, experiments, oracles, pool, simulate
from foodmatch.model import DonationRequest

from tracer import Tracer


def _add(key, amount):
    def count(counts: Counter, args: tuple, kwargs: dict, result) -> None:
        counts[key] += amount(args, result)

    return count


def _carried(args, result) -> int:
    carry = args[1]
    return len(carry.v) + len(carry.pfd) + len(carry.pfr) + len(carry.npfd) + len(carry.npfr)


def _file_size(index):
    return lambda args, result: os.path.getsize(args[index])


def install(tracer: Tracer) -> None:
    def span(owner, attr, name, *counts):
        tracer.patch(owner, attr, tracer.spanned(name, getattr(owner, attr), *counts))

    span(cli, "generate_scenario", "scenario.generate")
    span(cli, "save_scenario", "scenario.dump", _add("scenario.json_bytes", _file_size(1)))
    span(cli, "load_scenario", "scenario.load")

    span(simulate, "submit_request", "pool.submit", _add(
        "pool.meals_split",
        lambda args, ids: len(ids) if isinstance(args[0], DonationRequest) else 0,
    ))
    span(pool.ActivePool, "drain", "pool.drain", _add("pool.drained_requests", lambda args, batch: len(batch)))
    span(engine, "requeue_rejected", "pool.requeue")
    span(engine, "expire_stale_matches", "pool.expire", _add("pool.expired_matches", lambda args, gone: len(gone)))

    for owner in (engine, oracles):
        span(owner, "trifurcate", "classify.trifurcate", _add("classify.carried_requests", _carried))
        span(owner, "ca_dtb", "engine.ca_dtb", _add(
            "engine.completed_matches",
            lambda args, result: sum(1 for m in result.matches if m.receiver is not None),
        ))
    span(engine.MatchingEngine, "iterate", "engine.iterate")
    span(engine, "assign_volunteers", "engine.assign_volunteers",
         _add("engine.gated_donors", lambda args, result: len(args[0])),
         _add("engine.provisional_matches", lambda args, result: len(result[0])))
    span(engine, "match_receivers", "engine.match_receivers")
    span(engine.MatchingEngine, "apply_decisions", "engine.apply_decisions",
         _add("engine.decisions", lambda args, result: len(args[1])))
    for attr, key in (
        ("distance", "geometry.distance_calls"),
        ("within_pickup_radius", "geometry.pickup_radius_calls"),
        ("within_dropoff_band", "geometry.dropoff_band_calls"),
    ):
        tracer.patch(engine, attr, tracer.counted(key, getattr(engine, attr)))

    span(cli, "run_simulation", "simulate.run")
    span(experiments, "run_simulation", "simulate.run", _add("experiments.sim_runs", lambda args, result: 1))
    copier = types.SimpleNamespace(deepcopy=tracer.spanned("simulate.schedule_copy", simulate.copy.deepcopy))
    tracer.patch(simulate, "copy", copier)

    span(cli, "write_csv", "output.write_csv", _add("output.csv_bytes", _file_size(0)))
    span(cli, "render_line_chart", "output.svg")
    span(cli, "write_svg", "output.svg")
    span(experiments, "generate_scenario", "experiments.generate")

    span(oracles, "run_instance", "oracles.run_instance")
    span(oracles, "brute_force_pareto_oracle", "oracles.pareto")
    span(oracles, "exhaustive_misreports", "oracles.misreport",
         _add("oracles.misreport_cases", lambda args, report: report.cases))
    span(oracles.Instance, "clone", "oracles.clone")


# metric name -> (source, key): "busy"/"self" seconds or "calls" of a span
# name, or a "count" from the counters
METRICS = {
    "scenario.generate_s": ("busy", "scenario.generate"),
    "scenario.dump_s": ("busy", "scenario.dump"),
    "scenario.load_s": ("busy", "scenario.load"),
    "scenario.json_bytes": ("count", "scenario.json_bytes"),
    "pool.submit_calls": ("calls", "pool.submit"),
    "pool.submit_s": ("busy", "pool.submit"),
    "pool.meals_split": ("count", "pool.meals_split"),
    "pool.drain_s": ("busy", "pool.drain"),
    "pool.drained_requests": ("count", "pool.drained_requests"),
    "pool.requeue_calls": ("calls", "pool.requeue"),
    "pool.requeue_s": ("busy", "pool.requeue"),
    "pool.expired_matches": ("count", "pool.expired_matches"),
    "classify.trifurcate_calls": ("calls", "classify.trifurcate"),
    "classify.trifurcate_s": ("busy", "classify.trifurcate"),
    "classify.carried_requests": ("count", "classify.carried_requests"),
    "engine.iterate_s": ("busy", "engine.iterate"),
    "engine.ca_dtb_s": ("busy", "engine.ca_dtb"),
    "engine.assign_volunteers_s": ("busy", "engine.assign_volunteers"),
    "engine.gated_donors": ("count", "engine.gated_donors"),
    "engine.provisional_matches": ("count", "engine.provisional_matches"),
    "engine.completed_matches": ("count", "engine.completed_matches"),
    "engine.match_receivers_s": ("busy", "engine.match_receivers"),
    "engine.apply_decisions_s": ("busy", "engine.apply_decisions"),
    "engine.decisions": ("count", "engine.decisions"),
    "geometry.distance_calls": ("count", "geometry.distance_calls"),
    "geometry.pickup_radius_calls": ("count", "geometry.pickup_radius_calls"),
    "geometry.dropoff_band_calls": ("count", "geometry.dropoff_band_calls"),
    "simulate.run_s": ("busy", "simulate.run"),
    "simulate.schedule_copy_s": ("busy", "simulate.schedule_copy"),
    "simulate.self_s": ("self", "simulate.run"),
    "simulate.iterations": ("calls", "engine.iterate"),
    "output.write_csv_s": ("busy", "output.write_csv"),
    "output.csv_bytes": ("count", "output.csv_bytes"),
    "output.svg_s": ("busy", "output.svg"),
    "experiments.sim_runs": ("count", "experiments.sim_runs"),
    "experiments.generate_s": ("busy", "experiments.generate"),
    "oracles.run_instance_calls": ("calls", "oracles.run_instance"),
    "oracles.run_instance_s": ("busy", "oracles.run_instance"),
    "oracles.pareto_s": ("busy", "oracles.pareto"),
    "oracles.misreport_s": ("busy", "oracles.misreport"),
    "oracles.misreport_cases": ("count", "oracles.misreport_cases"),
    "oracles.clone_s": ("busy", "oracles.clone"),
}


def layer_metrics(tracer: Tracer, setup_counts: Counter, ops: int) -> dict[str, float]:
    """Per-layer figures for one traced set-up plus one traced op.

    The traced process sets up its first input once and then repeats the op
    on it, so op figures are averaged over the ops and set-up figures are
    taken as they are.
    """
    setup, op = tracer.totals("setup"), tracer.totals("op")
    op_counts = tracer.counts - setup_counts
    values: dict[str, float] = {}
    for metric, (source, key) in METRICS.items():
        if source == "count":
            values[metric] = setup_counts[key] + op_counts[key] / ops
        else:
            values[metric] = setup[source].get(key, 0) + op[source].get(key, 0) / ops
    provisional = values["engine.provisional_matches"]
    values["engine.match_useful_ratio"] = values["engine.completed_matches"] / provisional if provisional else 0.0
    return values


UNITS = {"_ms": "ms", "_s": "s", "_bytes": "bytes", "_ratio": "ratio", "_pct": "%"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"
