"""Alternating parent/change pairs of the benchmark's end-to-end metrics.

Copies a git ref (the parent, default HEAD) and the working tree (the
change) into fresh temporary directories, without ``__pycache__`` or other
ignored files, and runs ``perfbench/run.py --trace 0`` in each for N pairs
per workload. Pair k runs both sides on seed k, and the side that goes first
alternates from pair to pair. Runs use ``PYTHONDONTWRITEBYTECODE=1``, so every
set-up compiles the sources afresh. Workloads, end-to-end metrics, their
directions and bounds, and the run length come from ``BENCHMARK.json``; the
script refuses to run when the ref's copy and the working tree's differ, so
both sides are judged by the same benchmark.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --workload gate-slice --pairs 10
    python3 tools/bench_pairs.py --parent HEAD~1 --workload city-5k --pairs 5

Each run prints one progress line on stderr. The summary gives, per workload
and metric, each side's median, the change's median minus the parent's, the
parent's interquartile range, the benchmark's bound, and the pairs the change
won (ties count for neither side). The exit status is 1 if any run failed or
reported ``"correct": false``, and 2 if the two ``BENCHMARK.json`` differ.
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


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; its result line, or why it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="git ref to compare the working tree against")
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                        help="repeat for several; default every workload")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if git(root, "show", f"{args.parent}:BENCHMARK.json") != (root / "BENCHMARK.json").read_bytes():
        print(f"BENCHMARK.json differs between {args.parent} and the working tree", file=sys.stderr)
        return 2
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        copy_ref(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])
        for workload in workloads:
            samples = {side: {m["name"]: [] for m in metrics} for side in trees}
            for k in range(args.pairs):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, k, bench["run_seconds"])
                    values = {name: entry["value"] for name, entry in result.get("metrics", {}).items()}
                    shown = " ".join(f"{name}={value:.4f}" for name, value in values.items())
                    line = f"{workload} pair {k} {side}: correct={result['correct']} {shown} {result.get('error', '')}"
                    print(line.rstrip(), file=sys.stderr)
                    ok = ok and result["correct"] is True
                    for name, series in samples[side].items():
                        if name in values:
                            series.append(values[name])
            for m in metrics:
                parent, change = samples["parent"][m["name"]], samples["change"][m["name"]]
                if not (parent and change):
                    continue
                sign = 1.0 if m["better"] == "lower" else -1.0
                wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
                rows.append((workload, m["name"], statistics.median(parent), statistics.median(change),
                             statistics.median(change) - statistics.median(parent), iqr(parent),
                             m.get("bound"), f"{wins}/{min(len(parent), len(change))}"))

    header = ("workload", "metric", "parent_median", "change_median", "delta", "parent_iqr", "bound", "change_wins")
    print("  ".join(f"{h:>14}" for h in header))
    for row in rows:
        print("  ".join(f"{v:>14.4f}" if isinstance(v, float) else f"{v!s:>14}" for v in row))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
