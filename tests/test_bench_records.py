"""Committed benchmark records.

Every ``BENCH_<n>.json`` at the root of the repository must parse and name
only workloads and metrics that ``BENCHMARK.json`` declares, and
``tools/bench_pairs.py`` must build its entries as its docstring says.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text())
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert record["entries"]
    for entry in record["entries"]:
        assert entry["workload"] in workloads
        assert entry["metric"] in metrics
        for side in ("parent", "change"):
            assert {"commit", "median", "iqr", "values", "failed_ops", "machine"} <= set(entry[side])
        assert isinstance(entry["all_correct"], bool)


def _run(value):
    return {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": value, "unit": "s"}},
            "machine": {"nproc": 2}}


def test_entry_counts_wins_over_pairs_where_both_sides_ran():
    runs = {
        "parent": [_run(1.0), _run(2.0), {"correct": False, "error": ["exit 1"]}],
        "change": [_run(0.5), _run(3.0), _run(0.1)],
    }
    commits = {"parent": {"commit": "a"}, "change": {"commit": "b", "dirty": False}}
    metric = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    entry = _bench_pairs().entry("city-5k", metric, runs, commits)
    assert (entry["change_wins"], entry["pairs"], entry["bound"]) == (1, 2, 0.25)
    assert entry["parent"]["values"] == [1.0, 2.0, None]
    assert entry["parent"]["median"] == 1.5 and entry["change"]["median"] == 0.5
    assert entry["parent"]["commit"] == "a" and entry["change"]["machine"] == [{"nproc": 2}] * 3
    assert entry["all_correct"] is False
