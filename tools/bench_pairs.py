"""Alternating parent/change pairs of the benchmark's end-to-end or per-layer
metrics.

Copies a git ref (the parent, default HEAD) and the working tree (the
change) into fresh temporary directories, without ``__pycache__`` or other
ignored files, and runs ``perfbench/run.py --trace 0`` in each for N pairs
per workload; with ``--trace 1`` it runs ``perfbench/run.py --trace 1``
instead and records the per-layer metrics. Pair k runs both sides on seed k,
and the side that goes first alternates from pair to pair. Runs use
``PYTHONDONTWRITEBYTECODE=1``, so every set-up compiles the sources afresh.
Workloads, metrics, their directions and bounds (a per-layer metric has
none), and the run length come from ``BENCHMARK.json``. Each side runs its
own copy of the benchmark, so the script refuses to run when the two copies
differ in ``BENCHMARK.json`` or in any file under its ``paths``: both sides
must be judged by the same benchmark. The one exception is a change that
re-records output digests: with ``--expected-differs`` the two copies may
also differ in ``perfbench/expected.json``, each side then checks its ops
against its own copy, and the record says so.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --workload gate-slice --pairs 10
    python3 tools/bench_pairs.py --parent HEAD~1 --workload city-5k --pairs 5
    python3 tools/bench_pairs.py --parent HEAD~1 --json BENCH_13.json
    python3 tools/bench_pairs.py --parent HEAD~1 --trace 1 --workload oracle-probe
    python3 tools/bench_pairs.py --parent HEAD~1 --expected-differs --json BENCH_<n>.json

Each run prints one progress line on stderr. The summary gives, per workload
and metric, each side's median, the change's median minus the parent's, the
parent's interquartile range, the benchmark's bound, and the pairs the change
won (ties count for neither side); a count metric whose values by pair differ
between the sides is marked ``counts differ``. ``--json PATH`` also writes
the record: one entry per workload and recorded metric, holding each side's
commit, values by pair, median, interquartile range, failed ops and machine
state per run (as ``perfbench/run.py`` prints it), the change's wins, the
bound, and whether every run was correct; its ``expected_differs`` says
whether the flag was given. The exit status is 1 if any run
failed or reported ``"correct": false``, as a traced run does whose spans'
self times do not add up to its ops' time; such a run's values stay in the
record. The exit status is 2, naming the first differing file, if the two
benchmarks differ.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# the recorded output digests, which a change that moves them re-records
EXPECTED = "perfbench/expected.json"


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], check=True, capture_output=True).stdout


def copy_ref(root: Path, ref: str, dest: Path) -> None:
    archive = tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", ref)))
    for member in archive.getmembers():
        if member.isfile():
            target = dest / member.name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(archive.extractfile(member).read())


def copy_working_tree(root: Path, dest: Path) -> None:
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        if source.is_file():  # a deleted tracked file is still listed
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _differs(a: Path, b: Path, name: str) -> bool:
    return not ((a / name).is_file() and (b / name).is_file() and (a / name).read_bytes() == (b / name).read_bytes())


def benchmark_difference(a: Path, b: Path, expected_differs: bool = False) -> str | None:
    """The first file, ``BENCHMARK.json`` or one under the paths it lists,
    that differs between two trees or exists in one only; None if none.
    With expected_differs, ``perfbench/expected.json`` may differ."""
    if _differs(a, b, "BENCHMARK.json"):
        return "BENCHMARK.json"
    names = set()
    for path in json.loads((a / "BENCHMARK.json").read_text())["paths"]:
        for tree in (a, b):
            root = tree / path
            files = [root] if root.is_file() else root.rglob("*")
            names.update(f.relative_to(tree).as_posix() for f in files if f.is_file())
    if expected_differs:
        names.discard(EXPECTED)
    return next((name for name in sorted(names) if _differs(a, b, name)), None)


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its result line with the machine state of the
    record line before it, or why it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    record = json.loads(lines[-2])
    return dict(json.loads(lines[-1]), machine={key: record.get(key) for key in ("nproc", "python", "start", "end")})


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def entry(workload: str, metric: dict, runs: dict[str, list[dict]], commits: dict[str, dict]) -> dict:
    """The record of one workload's end-to-end metric; runs[side][k] is that
    side's run of pair k, and a pair counts towards the wins only when both
    of its runs gave the metric."""
    name = metric["name"]
    sides = {}
    for side, side_runs in runs.items():
        by_pair = [run.get("metrics", {}).get(name, {}).get("value") for run in side_runs]
        values = [v for v in by_pair if v is not None]
        sides[side] = dict(
            commits[side], values=by_pair, median=statistics.median(values) if values else None, iqr=iqr(values),
            failed_ops=sum(run.get("failed", 0) for run in side_runs),
            machine=[run.get("machine") for run in side_runs],
        )
    sign = 1.0 if metric["better"] == "lower" else -1.0
    both = [(p, c) for p, c in zip(sides["parent"]["values"], sides["change"]["values"]) if None not in (p, c)]
    return {
        "workload": workload, "metric": name, "unit": metric["unit"], "better": metric["better"],
        "bound": metric.get("bound"), "parent": sides["parent"], "change": sides["change"],
        "change_wins": sum(1 for p, c in both if sign * (c - p) < 0), "pairs": len(both),
        "all_correct": all(run["correct"] is True for side_runs in runs.values() for run in side_runs),
    }


def counts_differ(entry: dict) -> bool:
    """Whether a count metric's values by pair differ between the sides."""
    return entry["unit"] == "count" and entry["parent"]["values"] != entry["change"]["values"]


def main(argv=None) -> int:
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="git ref to compare the working tree against")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                        help="repeat for several; default every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 records the per-layer metrics of traced runs")
    parser.add_argument("--expected-differs", action="store_true",
                        help=f"let the two trees differ in {EXPECTED}, each side checking its ops against its own")
    parser.add_argument("--json", metavar="PATH", help="also write the record here, e.g. BENCH_<n>.json")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    commits = {
        "parent": {"commit": git(root, "rev-parse", args.parent).decode().strip()},
        "change": {"commit": git(root, "rev-parse", "HEAD").decode().strip(),
                   "dirty": bool(git(root, "status", "--porcelain").strip())},
    }

    entries = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        copy_ref(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])
        differing = benchmark_difference(trees["parent"], trees["change"], args.expected_differs)
        if differing is not None:
            print(f"{differing} differs between {args.parent} and the working tree", file=sys.stderr)
            return 2
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in trees}
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, k, bench["run_seconds"], args.trace)
                    shown = " ".join(f"{name}={m['value']:.4f}" for name, m in result.get("metrics", {}).items())
                    line = f"{workload} pair {k} {side}: correct={result['correct']} {shown} {result.get('error', '')}"
                    print(line.rstrip(), file=sys.stderr)
                    runs[side].append(result)
            entries.extend(entry(workload, m, runs, commits) for m in metrics)

    header = ("workload", "metric", "parent_median", "change_median", "delta", "parent_iqr", "bound", "change_wins")
    print("  ".join(f"{h:>14}" for h in header))
    for e in entries:
        parent, change = e["parent"]["median"], e["change"]["median"]
        delta = change - parent if None not in (parent, change) else None
        row = (e["workload"], e["metric"], parent, change, delta, e["parent"]["iqr"], e["bound"],
               f"{e['change_wins']}/{e['pairs']}")
        line = "  ".join(f"{v:>14.4f}" if isinstance(v, float) else f"{v!s:>14}" for v in row)
        print(line + ("  counts differ" if counts_differ(e) else ""))
    if args.json:
        record = {"parent_ref": args.parent, "pairs": args.pairs, "run_seconds": bench["run_seconds"],
                  "trace": args.trace, "expected_differs": args.expected_differs, "entries": entries}
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(e["all_correct"] for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
