"""The benchmark's workloads: how each makes its inputs, runs one op and
checks the op's outputs.

Every workload derives ``INPUTS`` distinct inputs from the run seed
(input seed ``100 * seed + k``). Set-up runs ``SETUP_REPEATS`` times, cycling
through the inputs, so its median has enough samples; the op loop cycles
through them too, so a run checks the outputs of more than one random input.
The program receives only the generated inputs.

Calls into the program go through module attributes at call time
(``oracles.run_instance(...)``, ``cli.main(...)``) so that the tracer's
wrappers, installed by replacing those attributes, see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from foodmatch import cli, engine, experiments, oracles
from foodmatch.model import DonationRequest

INPUTS = 3
SETUP_REPEATS = 5

SCALES = {
    "full": {
        "city_requests": 5000,
        "corridor_requests": 400,
        "policy_requests": 600,
        "pareto_instances": 100,
        "misreport_instances": 3,
        "misreport_shape": (4, 4, 2),
        "sized_instances": 2,
        "sized_receivers": (200, 400),
    },
    "tiny": {
        "city_requests": 300,
        "corridor_requests": 60,
        "policy_requests": 90,
        "pareto_instances": 4,
        "misreport_instances": 1,
        "misreport_shape": (2, 2, 1),
        "sized_instances": 1,
        "sized_receivers": (20, 40),
    },
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_cli(argv: list[str]) -> int:
    """Run the in-process CLI with its progress line swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def report_problems(scenario, report) -> list[str]:
    """Invariants every simulation report must meet, whatever the seed.

    The grams check compares two report paths: accepted display groups
    against accepted matches, bounded by what the scenario donated.
    """
    problems = []
    if not report.lifecycle_consistent:
        problems.append("lifecycle not consistent")
    bad = oracles.gamma_violations(report.deliveries, scenario.config.thresholds)
    if bad:
        problems.append(f"{len(bad)} off-routing bound violations")
    group_grams = sum(group["grams"] for group in report.accepted_groups)
    if group_grams != report.served_grams:
        problems.append(f"accepted-group grams {group_grams} != served_grams {report.served_grams}")
    donated = sum(t.request.amount for t in scenario.requests if isinstance(t.request, DonationRequest))
    if report.served_grams > donated:
        problems.append(f"served_grams {report.served_grams} > donated {donated}")
    return problems


class Workload:
    """One benchmark workload. ``op`` is the only timed call."""

    name = ""
    # the call that is one mechanism iteration, timed in untraced runs
    iteration_owner: tuple[object, str]

    def __init__(self, seed: int, scale: str, out: Path):
        self.seed = seed
        self.size = SCALES[scale]
        self.out = out
        self.captured: list[tuple[object, object]] = []
        # what the ops found out about the program, recorded with the run
        self.findings: dict[str, object] = {}

    def input_seed(self, k: int) -> int:
        return 100 * self.seed + k

    def capture_points(self) -> list[tuple[object, str]]:
        """Module attributes whose (first argument, result) the checks read."""
        return []

    def prepare(self, k: int) -> None:
        raise NotImplementedError

    def op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> tuple[dict[str, str], list[str]]:
        """Digests of the op's outputs and the invariants it broke."""
        raise NotImplementedError


class City(Workload):
    """``foodmatch run`` on a generated uniform city, through the CLI."""

    iteration_owner = (engine.MatchingEngine, "iterate")

    def __init__(self, seed: int, scale: str, out: Path, name: str, run_flags: list[str]):
        super().__init__(seed, scale, out)
        self.name = name
        self.run_flags = run_flags

    def capture_points(self):
        return [(cli, "run_simulation")]

    def _scenario(self, k: int) -> Path:
        return self.out / f"scenario{k}.json"

    def prepare(self, k: int) -> None:
        code = quiet_cli([
            "generate", "--seed", str(self.input_seed(k)),
            "--requests", str(self.size["city_requests"]), "--out", str(self._scenario(k)),
        ])
        if code != 0:
            raise RuntimeError(f"generate exited {code}")

    def op(self, k: int) -> int:
        return quiet_cli([
            "run", "--scenario", str(self._scenario(k)), "--out", str(self.out / "op"),
            "--seed", str(self.input_seed(k)), *self.run_flags,
        ])

    def check(self, k: int, code: int):
        problems = [] if code == 0 else [f"run exited {code}"]
        folder = self.out / "op"
        digests = {name: sha256(folder / name) for name in ("report.csv", "deliveries.csv")}
        if len(self.captured) != 1:
            return digests, problems + [f"{len(self.captured)} simulations captured, expected 1"]
        scenario, report = self.captured[0]
        problems += report_problems(scenario, report)
        with open(folder / "report.csv", newline="") as handle:
            rows = dict(csv.reader(handle))
        if rows.get("served_grams") != str(report.served_grams):
            problems.append("report.csv served_grams differs from the run's report")
        if not json.loads((folder / "report.json").read_text())["lifecycle_consistent"]:
            problems.append("report.json says lifecycle not consistent")
        return digests, problems


class GateSlice(Workload):
    """Acceptance criteria 2-4 for one seed, through ``foodmatch experiment``:
    the volunteer sweep at multiples 0.25-4 on the corridor city, and the
    receiver-sorting and preference-updating pairs on the deadlines city."""

    name = "gate-slice"
    iteration_owner = (engine.MatchingEngine, "iterate")

    def capture_points(self):
        return [(experiments, "run_simulation")]

    def _files(self, k: int) -> tuple[Path, Path]:
        return self.out / f"corridor{k}.json", self.out / f"deadlines{k}.json"

    def prepare(self, k: int) -> None:
        seed = str(self.input_seed(k))
        corridor, deadlines = self._files(k)
        for preset, size, path in (
            ("corridor", self.size["corridor_requests"], corridor),
            ("deadlines", self.size["policy_requests"], deadlines),
        ):
            code = quiet_cli(["generate", "--preset", preset, "--seed", seed,
                              "--requests", str(size), "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"generate --preset {preset} exited {code}")

    def op(self, k: int) -> list[int]:
        corridor, deadlines = self._files(k)
        folder = str(self.out / "op")
        seed = str(self.input_seed(k))
        return [
            quiet_cli(["experiment", "fig8a", "--scenario", str(corridor),
                       "--multiples", "0.25,0.5,1,2,4", "--out", folder]),
            quiet_cli(["experiment", "fig8b", "--scenario", str(deadlines),
                       "--seeds", "1", "--seed", seed, "--out", folder]),
            quiet_cli(["experiment", "fig8c", "--scenario", str(deadlines),
                       "--seeds", "1", "--seed", seed, "--out", folder]),
        ]

    def check(self, k: int, codes: list[int]):
        problems = [f"experiment exited {code}" for code in codes if code != 0]
        folder = self.out / "op"
        digests = {name: sha256(folder / name) for name in ("fig8a.csv", "fig8b.csv", "fig8c.csv")}
        # five sweep points plus two paired policy runs of two simulations each
        if len(self.captured) != 9:
            problems.append(f"{len(self.captured)} simulations captured, expected 9")
        for scenario, report in self.captured:
            problems += report_problems(scenario, report)
        return digests, problems


def misreport_count(instance) -> int:
    """How many misreports ``exhaustive_misreports`` must try: for each agent,
    every ordered subset of the other side's first four agents, less the
    agent's true list."""
    total = 0
    for agents, others, listed in (
        (instance.donors, instance.receivers, "preferred_receivers"),
        (instance.receivers, instance.donors, "preferred_donors"),
    ):
        ids = {other.id.agent_id for other in others[:4]}
        orderings = sum(math.perm(len(ids), size) for size in range(len(ids) + 1))
        total += sum(orderings - (set(getattr(agent, listed)) <= ids) for agent in agents)
    return total


def true_ranks(instance, case) -> tuple[int, int]:
    """The case's agent's rank by its true list when it reports truthfully
    and when it reports ``case.misreport``, each from a fresh engine run."""
    donor = case.role == "donor"
    listed = "preferred_receivers" if donor else "preferred_donors"
    ranks = []
    for report in (None, case.misreport):
        variant = instance.clone()
        for request in variant.donors if donor else variant.receivers:
            if request.id.agent_id == case.agent_id:
                true_list = getattr(request, listed)
                if report is not None:
                    setattr(request, listed, report)
        matches, _ = oracles.run_instance(variant)
        partners = [(m.receiver if donor else m.donor).agent_id for m in matches
                    if m.receiver is not None and (m.donor if donor else m.receiver).agent_id == case.agent_id]
        ranks.append(oracles.true_rank(true_list, partners))
    return ranks[0], ranks[1]


class OracleProbe(Workload):
    """One-shot engine iterations judged by the brute-force oracles:
    criterion 6's Pareto oracle on random instances, criterion 5's
    exhaustive misreports on 4-donor, 4-receiver, 2-volunteer instances and
    criterion 7's sized instances.

    The Pareto oracle checks the engine's matches, so a failed verdict fails
    the op. A hard misreport gain is a counterexample to strategyproofness
    that the probe found, which is the probe's job, not a wrong output: each
    one is re-run from scratch and must reproduce, or the op fails; it is then
    reported on stderr and kept in ``findings``, and on recorded inputs the
    digest pins it. The op also fails if the probe skipped misreports it must
    try.
    """

    name = "oracle-probe"
    iteration_owner = (oracles, "run_instance")

    def __init__(self, seed: int, scale: str, out: Path):
        super().__init__(seed, scale, out)
        self.batches: dict[int, dict[str, list]] = {}
        # inputs whose misreport gains were re-run; later ops on the same
        # input must give the same digest, so they need not be re-run
        self.confirmed: set[int] = set()

    def prepare(self, k: int) -> None:
        base = 1000 * self.input_seed(k)
        size = self.size
        self.batches[k] = {
            "pareto": [oracles.random_instance(base + i) for i in range(size["pareto_instances"])],
            # fixed donor, receiver and volunteer counts (criterion 5's largest):
            # random counts would make op cost vary thirtyfold between batches
            "misreport": [
                oracles.sized_instance(base + i, *size["misreport_shape"])
                for i in range(size["misreport_instances"])
            ],
            "sized": [
                oracles.sized_instance(base + j, n_r // 2, n_r, n_r // 4, city=30.0)
                for n_r in size["sized_receivers"]
                for j in range(size["sized_instances"])
            ],
        }

    def op(self, k: int):
        batch = self.batches[k]
        pareto = []
        for instance in batch["pareto"]:
            matches, _ = oracles.run_instance(instance)
            pareto.append((oracles.brute_force_pareto_oracle(instance, matches), matches))
        probes = [oracles.exhaustive_misreports(instance) for instance in batch["misreport"]]
        sized = [oracles.run_instance(instance)[0] for instance in batch["sized"]]
        return pareto, probes, sized

    def check(self, k: int, result):
        pareto, probes, sized = result

        def rows(matches):
            return [[str(m.donor), str(m.volunteer), str(m.receiver), m.delivered_amount, m.vicinity]
                    for m in matches]

        summary = {
            "pareto": [[verdict.ok, verdict.reason, rows(matches)] for verdict, matches in pareto],
            "misreport": [[p.cases, len(p.improvements), len(p.exceptions), len(p.hard_violations)]
                          for p in probes],
            "sized": [rows(matches) for matches in sized],
        }
        digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
        problems = [f"pareto oracle: {verdict.describe()}" for verdict, _ in pareto if not verdict.ok]
        for instance, probe in zip(self.batches[k]["misreport"], probes):
            if probe.cases != misreport_count(instance):
                problems.append(f"misreport probe tried {probe.cases} cases, expected {misreport_count(instance)}")
        if k not in self.confirmed:
            self.confirmed.add(k)
            problems += self._confirm_gains(k, probes)
        return {"verdicts": digest}, problems

    def _confirm_gains(self, k: int, probes) -> list[str]:
        problems = []
        gains = []
        for index, (instance, probe) in enumerate(zip(self.batches[k]["misreport"], probes)):
            for case in probe.hard_violations:
                truthful, misreported = true_ranks(instance, case)
                if (truthful, misreported) != (case.truthful_rank, case.misreport_rank):
                    problems.append(f"misreport instance {index}: {case} re-runs to ranks {truthful}, {misreported}")
                gains.append(f"instance {index} {case.role} {case.agent_id} reports {list(case.misreport)}: "
                             f"true rank {case.truthful_rank} -> {case.misreport_rank}")
        if gains:
            self.findings.setdefault("hard_misreport_gains", {})[str(self.input_seed(k))] = gains
            print(f"finding: input {self.input_seed(k)}: {len(gains)} hard misreport gains, "
                  f"first: {gains[0]}", file=sys.stderr)
        return problems


def make(name: str, seed: int, scale: str, out: Path) -> Workload:
    if name == "city-5k":
        return City(seed, scale, out, name, ["--reject-prob", "0"])
    if name == "city-5k-churn":
        return City(seed, scale, out, name, ["--reject-prob", "0.3", "--no-response-prob", "0.1"])
    if name == "gate-slice":
        return GateSlice(seed, scale, out)
    if name == "oracle-probe":
        return OracleProbe(seed, scale, out)
    raise ValueError(f"unknown workload {name}")


NAMES = ("city-5k", "city-5k-churn", "gate-slice", "oracle-probe")
