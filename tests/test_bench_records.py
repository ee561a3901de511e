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


# the benchmark of the fake repository that tools/bench_pairs.py main runs on
BENCH = {"paths": ["perfbench"], "run_seconds": 1, "workloads": [{"name": "oracle-probe"}],
         "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
         "per_layer": [{"name": "geometry.distance_calls", "unit": "count", "better": "lower"},
                       {"name": "run_wall_s", "unit": "s", "better": "lower"}]}


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


def _tree(root, extra=None):
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"paths": ["perfbench"]}))
    (root / "perfbench" / "expected.json").write_text('{"digest": "abc"}')
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    if extra:
        (root / extra).write_text("")
    return root


def _fake_repository(bench_pairs, tmp_path, monkeypatch, changed=None):
    """Point main at a repository of the ``BENCH`` benchmark whose parent and
    working trees are copied from ``_tree``; ``changed`` maps a file of the
    working tree to its new text."""
    def tree(dest, files):
        _tree(dest)
        (dest / "BENCHMARK.json").write_text(json.dumps(BENCH))
        for name, text in files.items():
            (dest / name).write_text(text)

    tree(tmp_path / "root", {})
    replies = {"rev-parse": b"abc\n", "status": b""}
    monkeypatch.setattr(bench_pairs, "git", lambda root, *args: (
        str(tmp_path / "root").encode() if "--show-toplevel" in args else replies[args[0]]))
    monkeypatch.setattr(bench_pairs, "copy_ref", lambda root, ref, dest: tree(dest, {}))
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda root, dest: tree(dest, changed or {}))


def test_benchmark_difference_names_the_first_differing_file(tmp_path):
    difference = _bench_pairs().benchmark_difference
    parent = _tree(tmp_path / "parent")
    assert difference(parent, _tree(tmp_path / "same")) is None
    changed = _tree(tmp_path / "changed")
    (changed / "perfbench" / "expected.json").write_text('{"digest": "abd"}')
    assert difference(parent, changed) == "perfbench/expected.json"
    extra = _tree(tmp_path / "extra", extra="perfbench/workload_new.py")
    assert difference(parent, extra) == "perfbench/workload_new.py"
    assert difference(extra, parent) == "perfbench/workload_new.py"


@pytest.mark.parametrize("flag", [[], ["--expected-differs"]], ids=["no-flag", "flag"])
@pytest.mark.parametrize("changed", [
    {"perfbench/expected.json": '{"digest": "abd"}'},
    {"perfbench/expected.json": '{"digest": "abd"}', "perfbench/run.py": "print('moved')\n"},
    {"perfbench/expected.json": '{"digest": "abd"}', "perfbench/workload_new.py": ""},
    {"BENCHMARK.json": json.dumps(dict(BENCH, run_seconds=2))},
], ids=["digests", "digests-and-runner", "digests-and-new-file", "benchmark-json"])
def test_pairs_across_a_digest_re_record_only_with_the_flag(flag, changed, tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()
    _fake_repository(bench_pairs, tmp_path, monkeypatch, changed)
    runs = []
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda tree, workload, seed, seconds, trace: runs.append(tree.name) or _run(1.0))
    record = tmp_path / "record.json"
    code = bench_pairs.main([*flag, "--pairs", "1", "--json", str(record)])
    differing = sorted(set(changed) - ({"perfbench/expected.json"} if flag else set()))
    if differing:
        assert (code, runs, record.exists()) == (2, [], False)
        assert capsys.readouterr().err == f"{differing[0]} differs between HEAD and the working tree\n"
    else:
        assert (code, runs) == (0, ["parent", "change"])
        assert json.loads(record.read_text())["expected_differs"] is True


def _traced_run(distance_calls, correct=True):
    return {"correct": correct, "attempted": 3, "failed": 0 if correct else 3, "machine": {"nproc": 2},
            "metrics": {"geometry.distance_calls": {"value": distance_calls, "unit": "count"},
                        "run_wall_s": {"value": 0.5, "unit": "s"}}}


def test_traced_entry_has_no_bound_and_marks_differing_counts():
    bench_pairs = _bench_pairs()
    commits = {"parent": {"commit": "a"}, "change": {"commit": "b", "dirty": False}}
    metric = {"name": "geometry.distance_calls", "unit": "count", "better": "lower"}
    same = bench_pairs.entry("oracle-probe", metric, {"parent": [_traced_run(7)] * 2, "change": [_traced_run(7)] * 2},
                             commits)
    assert (same["bound"], same["all_correct"], bench_pairs.counts_differ(same)) == (None, True, False)
    moved = bench_pairs.entry("oracle-probe", metric,
                              {"parent": [_traced_run(7)] * 2, "change": [_traced_run(7), _traced_run(8)]}, commits)
    assert bench_pairs.counts_differ(moved)
    timing = bench_pairs.entry("oracle-probe", {"name": "run_wall_s", "unit": "s", "better": "lower"},
                               {"parent": [_traced_run(7)], "change": [_traced_run(8)]}, commits)
    assert not bench_pairs.counts_differ(timing)


def test_traced_pairs_keep_a_failed_run_and_exit_one(tmp_path, monkeypatch, capsys):
    # the change's second run failed its self-time check: its values stay in
    # the record, its ops count as failed, and the exit status is 1
    bench_pairs = _bench_pairs()
    _fake_repository(bench_pairs, tmp_path, monkeypatch)
    # pair 0 runs the parent first, pair 1 the change
    traces, results = [], iter([_traced_run(7), _traced_run(7), _traced_run(9, correct=False), _traced_run(7)])
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda tree, workload, seed, seconds, trace: traces.append(trace) or next(results))
    record = tmp_path / "traced.json"
    assert bench_pairs.main(["--trace", "1", "--pairs", "2", "--json", str(record)]) == 1
    assert traces == [1, 1, 1, 1]
    traced = json.loads(record.read_text())
    assert traced["expected_differs"] is False
    calls, wall = traced["entries"]
    assert (calls["metric"], calls["bound"], calls["all_correct"]) == ("geometry.distance_calls", None, False)
    assert (calls["parent"]["values"], calls["change"]["values"]) == ([7, 7], [7, 9])
    assert (calls["parent"]["failed_ops"], calls["change"]["failed_ops"]) == (0, 3)
    summary = capsys.readouterr().out.splitlines()
    assert [line.endswith("counts differ") for line in summary[1:]] == [True, False]
