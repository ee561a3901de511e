"""Self-test of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, at tiny input sizes:

1. traced and untraced runs print, as their last line, a result with
   ``correct`` true and exactly the metrics BENCHMARK.json names, each with
   its unit;
2. a run checked against a deliberately wrong recorded digest counts the
   ops on that input as failed, so the output check can fail.

It also checks that a set ``FDRM_SEED`` makes the benchmark refuse to run.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def bench(workload: str, trace: int, *extra: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env=env,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (1, 0):
            result = result_of(bench(workload, trace))
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics {units} != {wanted[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")

        # the untraced run just wrote what it saw; record one digest wrong
        observed = json.loads((OUT / workload / "digests.json").read_text())
        label, digests = next(iter(sorted(observed.items())))
        name = next(iter(sorted(digests)))
        wrong = {label: {name: "0" * 64}}
        expected = OUT / f"selftest-{workload}.json"
        expected.write_text(json.dumps({"tiny": {workload: wrong}}))
        result = result_of(bench(workload, 0, "--expected", str(expected)))
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{workload}: a wrong {name} digest for input {label} went unnoticed")
        print(f"{workload}: ok" if not problems else f"{workload}: {problems}", flush=True)

    refused = bench("city-5k", 0, env=dict(os.environ, FDRM_SEED="3"))
    if refused.returncode == 0 or refused.stdout.strip():
        problems.append("the benchmark ran with FDRM_SEED set")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
