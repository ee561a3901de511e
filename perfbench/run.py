"""Seeded end-to-end and per-layer benchmark of foodmatch.

Run from the root of a checkout:

    python3 perfbench/run.py --workload city-5k --seed 1 --seconds 20 --trace 0

The benchmark imports ``foodmatch`` from the checkout's ``src/``. Each run is
one process, one thread, and a closed loop: the op runs back to back until
``--seconds`` have passed (at least once). Set-up makes the workload's inputs
from ``--seed``; every op's outputs are checked, and an op that raises, exits
non-zero or fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
several set-ups, and the process's peak resident memory over set-up and the
op loop. ``--trace 1`` first runs one untraced op with only the mechanism
iterations timed (engine ``iterate``, or ``run_instance`` on oracle-probe),
which gives ``run_wall_s``, ``iter_p50_ms`` and ``iter_p95_ms``; then it
wraps the program's public names (see layers.py) and repeats the op on the
same input, reporting the per-layer metrics; spans go to
``.perfbench_out/<workload>/spans.jsonl`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the commit and the machine. Output digests observed for
each input go to ``.perfbench_out/<workload>/digests.json``; the recorded
ones in ``perfbench/expected.json`` are checked on every run (copy entries
from a trusted run's ``digests.json`` to record more seeds).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="recorded output digests to check against")
    return parser.parse_args(argv)


def import_program():
    if "FDRM_SEED" in os.environ:
        fail("FDRM_SEED is set and would replace the seeds the benchmark passes; unset it")
    if not (SRC / "foodmatch" / "__init__.py").is_file():
        fail(f"no foodmatch sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import foodmatch

    if Path(foodmatch.__file__).resolve().parent != (SRC / "foodmatch").resolve():
        fail(f"foodmatch imported from {foodmatch.__file__}, not from {SRC}")


def git_state() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT.resolve():
            return {"commit": None, "dirty": None}
        return {
            "commit": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain").stdout.strip()),
        }
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def machine_state() -> dict:
    return {
        "time": time.time(),
        "loadavg": Path("/proc/loadavg").read_text().split()[:3] if Path("/proc/loadavg").exists() else None,
    }


def import_in_fresh_interpreter() -> None:
    """What a user's ``foodmatch`` invocation pays before it starts working."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import foodmatch.cli"], env=env, check=True, timeout=60)


def hook(owner, attr: str, sink) -> None:
    """Replace ``owner.attr`` with a call that hands (args, result) to sink."""
    original = getattr(owner, attr)

    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        sink(args, result)
        return result

    setattr(owner, attr, hooked)


def time_calls(owner, attr: str, marks: list[float]):
    """Append the start and end time of every call of ``owner.attr`` until
    the returned function is called, which restores the attribute."""
    original = getattr(owner, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        marks.append(clock())
        result = original(*args, **kwargs)
        marks.append(clock())
        return result

    setattr(owner, attr, timed)
    return lambda: setattr(owner, attr, original)


class Runner:
    """Runs ops of one workload, checks each one and keeps the digests."""

    def __init__(self, workload, expected: dict):
        self.workload = workload
        self.expected = expected
        self.observed: dict[str, dict[str, str]] = {}
        self.attempted = 0
        self.failed = 0

    def run_op(self, k: int, wrap=None) -> tuple[float, float]:
        """One timed op on input k, checked; returns its start and end time."""
        workload = self.workload
        workload.captured.clear()
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            if wrap is None:
                result = workload.op(k)
            else:
                with wrap:
                    result = workload.op(k)
        except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
            stop = time.perf_counter()
            self._failed(k, [f"raised {type(exc).__name__}: {exc}"])
            return start, stop
        stop = time.perf_counter()
        try:
            digests, problems = workload.check(k, result)
        except Exception as exc:  # missing or unreadable outputs
            digests, problems = {}, [f"output check raised {type(exc).__name__}: {exc}"]
        label = str(workload.input_seed(k))
        seen = self.observed.setdefault(label, {})
        recorded = self.expected.get(label, {})
        for name, digest in digests.items():
            if seen.setdefault(name, digest) != digest:
                problems.append(f"{name} differs from an earlier op on the same input")
            if name in recorded and recorded[name] != digest:
                problems.append(f"{name} digest {digest[:12]} != recorded {recorded[name][:12]}")
        if problems:
            self._failed(k, problems)
        workload.captured.clear()
        return start, stop

    def _failed(self, k: int, problems: list[str]) -> None:
        self.failed += 1
        label = self.workload.input_seed(k)
        for problem in problems:
            print(f"op on input {label} failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_start = time.perf_counter()
    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload}; choose from {', '.join(workloads.NAMES)}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    expected_path = Path(args.expected)
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}
    expected = expected.get(args.scale, {}).get(args.workload, {})

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "git": git_state(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "start": machine_state(),
    }
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    workload = workloads.make(args.workload, args.seed, args.scale, out)
    for owner, attr in workload.capture_points():
        hook(owner, attr, lambda call_args, result: workload.captured.append((call_args[0], result)))
    runner = Runner(workload, expected)
    in_process_import_s = time.perf_counter() - import_start

    if args.trace:
        metrics = traced_run(args, workload, runner, out)
    else:
        metrics = untraced_run(args, workload, runner, workloads.INPUTS, workloads.SETUP_REPEATS)
    metrics_units = {name: {"value": value, "unit": unit} for name, value, unit in metrics}

    record.update(
        end=machine_state(), in_process_import_s=in_process_import_s,
        attempted=runner.attempted, failed=runner.failed, inputs=sorted(runner.observed),
        findings=workload.findings,
    )
    (out / "digests.json").write_text(json.dumps(runner.observed, indent=1, sort_keys=True) + "\n")
    (out / "run.json").write_text(json.dumps(dict(record, metrics=metrics_units), indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics_units,
    }))
    return 0


def untraced_run(args, workload, runner: Runner, inputs: int, repeats: int) -> list[tuple[str, float, str]]:
    setup = []
    for rep in range(repeats):
        start = time.perf_counter()
        import_in_fresh_interpreter()
        workload.prepare(rep % inputs)
        setup.append(time.perf_counter() - start)

    ops = 0
    deadline = time.perf_counter() + args.seconds
    while not ops or time.perf_counter() < deadline:
        runner.run_op(ops % inputs)
        ops += 1
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{repeats} set-ups, {ops} ops", file=sys.stderr)
    return [(name, values[name], unit) for name, unit in END_TO_END_UNITS.items()]


def percentile(samples: list[float], share: float) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(100 * share) - 1]


def traced_run(args, workload, runner: Runner, out: Path) -> list[tuple[str, float, str]]:
    import layers
    from tracer import Tracer

    workload.prepare(0)
    marks: list[float] = []
    restore = time_calls(*workload.iteration_owner, marks)
    start, stop = runner.run_op(0)
    restore()
    reference = stop - start
    # calls the output check made come after stop and are not the op's
    iterations = [end - begin for begin, end in zip(marks[::2], marks[1::2]) if end <= stop] or [reference]

    tracer = Tracer()
    layers.install(tracer)
    with tracer.span("setup"):
        workload.prepare(0)
    setup_counts = tracer.counts.copy()
    walls = []
    while not walls or time.perf_counter() < start + args.seconds:
        op_start, op_stop = runner.run_op(0, wrap=tracer.span("op"))
        walls.append(op_stop - op_start)
    tracer.uninstall()

    # every op-second is some span's self time, or the trace lost time
    covered = sum(tracer.totals("op")["self"].values())
    if abs(covered - sum(walls)) > 1e-3 * sum(walls) + 1e-3:
        runner.failed = min(runner.attempted, runner.failed + len(walls))
        print(f"traced self times sum to {covered:.6f}s, ops took {sum(walls):.6f}s", file=sys.stderr)
    tracer.write(out / "spans.jsonl")

    values = layers.layer_metrics(tracer, setup_counts, len(walls))
    values.update(
        run_wall_s=reference,
        iter_p50_ms=1000.0 * statistics.median(iterations),
        iter_p95_ms=1000.0 * percentile(iterations, 0.95),
        trace_overhead_pct=100.0 * (statistics.median(walls) / reference - 1.0),
    )
    print(f"1 reference op with {len(iterations)} timed iterations, {len(walls)} traced ops, "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    return [(name, value, layers.unit_of(name)) for name, value in values.items()]


if __name__ == "__main__":
    sys.exit(main())
