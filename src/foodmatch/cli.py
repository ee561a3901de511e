"""Command-line interface.

Subcommands: generate, run, experiment {fig8a,fig8b,fig8c,fig8d},
oracle {pareto,strategyproof}, check-gamma. Exit codes: 0 success,
1 usage or validation error, 2 a declared property was violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

from .engine import PREFERENCE_MODES, RECEIVER_SORT_MODES, MatchPolicy
from .experiments import (
    desk_policy_config,
    desk_volunteer_sweep_config,
    experiment_allocation_vs_volunteers,
    experiment_manipulation,
    experiment_paired_policies,
)
from .model import DonationRequest, RequestId, RequirementRequest, Thresholds
from .oracles import (
    Instance,
    brute_force_pareto_oracle,
    exhaustive_misreports,
    gamma_violations,
    run_instance,
)
from .output import render_line_chart, write_csv, write_svg
from .scenario import (
    Scenario,
    ScenarioConfig,
    generate_scenario,
    load_scenario,
    read_scenario,
    save_scenario,
)
from .simulate import AcceptanceModel, SimReport, run_simulation

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


# fig8b and fig8c: (baseline policy, variant policy), CSV column labels, chart title
PAIRED_EXPERIMENTS = {
    "fig8b": (
        (MatchPolicy(receiver_sort="start"), MatchPolicy(receiver_sort="end")),
        ("start_sort_pct", "end_sort_pct"),
        "Start vs End Sorting for Receivers",
    ),
    "fig8c": (
        (MatchPolicy(preferences="raw"), MatchPolicy(preferences="eligible")),
        ("raw_preferences_pct", "eligible_preferences_pct"),
        "Original vs Eligible Preferences",
    ),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _refuse_repeated_ids(scenario: Scenario) -> Scenario:
    """The scenario itself, once no record repeats an earlier record's
    request id; else ValueError naming the first that does."""
    seen: set[RequestId] = set()
    for index, timed in enumerate(scenario.requests):
        if timed.request.id in seen:
            raise ValueError(f"request {index}: duplicate request {timed.request.id}")
        seen.add(timed.request.id)
    return scenario


def build_parser() -> _Parser:
    parser = _Parser(prog="foodmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a scenario file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--requests", type=int, default=5000)
    gen.add_argument("--mix", help="donor,receiver,volunteer fractions of the uniform city (default 0.3,0.4,0.3)")
    gen.add_argument(
        "--preset",
        choices=("uniform", "corridor", "deadlines"),
        default="uniform",
        help="uniform city, the volunteer-sweep rescue corridor, or the "
        "tight-deadline policy city",
    )
    gen.add_argument("--out", required=True)
    # the one place thresholds are set: one flag per threshold, --t-p-nm for
    # t_p_nm, parsed as its default's type; every other command reads the file's
    for f in fields(Thresholds):
        gen.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--scenario", required=True)
    run.add_argument("--receiver-sort", choices=RECEIVER_SORT_MODES, default=MatchPolicy.receiver_sort)
    run.add_argument("--preferences", choices=PREFERENCE_MODES, default=MatchPolicy.preferences)
    run.add_argument("--reject-prob", type=float, default=0.0)
    run.add_argument("--no-response-prob", type=float, default=0.0)
    run.add_argument("--seed", type=int, default=0, help="acceptance-model seed")
    run.add_argument("--out", required=True, help="output directory")

    exp = sub.add_parser("experiment", help="reproduce one simulation experiment")
    figures = exp.add_subparsers(dest="which", required=True)
    for which in ("fig8a", "fig8b", "fig8c", "fig8d"):
        # each figure takes only the flags it reads
        fig = figures.add_parser(which)
        fig.add_argument("--scenario", required=True)
        fig.add_argument("--out", required=True, help="output directory")
        if which == "fig8a":
            fig.add_argument("--multiples", default="0.25,0.5,1,2,4")
        elif which == "fig8d":
            fig.add_argument("--fraction", type=float, default=20.0)
        else:
            fig.add_argument("--seeds", type=int, default=20)
            fig.add_argument("--seed", type=int, default=0)

    oracle = sub.add_parser("oracle", help="run a brute-force property check")
    oracle.add_argument("which", choices=("pareto", "strategyproof"))
    oracle.add_argument("--instance", required=True)

    gamma = sub.add_parser("check-gamma", help="verify the off-routing bound on a full run")
    gamma.add_argument("--scenario", required=True)

    return parser


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.mix is not None and args.preset != "uniform":
        raise ValueError(f"--mix applies only to the uniform city, not --preset {args.preset}")
    if args.preset == "corridor":
        config = desk_volunteer_sweep_config(seed=args.seed, n_requests=args.requests)
    elif args.preset == "deadlines":
        config = desk_policy_config(seed=args.seed, n_requests=args.requests)
    else:
        config = ScenarioConfig(n_requests=args.requests, seed=args.seed)
        if args.mix is not None:
            fractions = tuple(float(f) for f in args.mix.split(","))
            if len(fractions) != 3:
                raise ValueError("mix must have three comma-separated fractions")
            config = replace(config, donor_fraction=fractions[0], receiver_fraction=fractions[1],
                             volunteer_fraction=fractions[2])
    overrides = {f.name: getattr(args, f.name) for f in fields(Thresholds) if getattr(args, f.name) is not None}
    config = replace(config, thresholds=replace(config.thresholds, **overrides))
    scenario = generate_scenario(config)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}: {len(scenario.requests)} requests")
    return EXIT_OK


def _report_rows(report: SimReport) -> list[tuple]:
    rows = [
        ("donors", report.counts["donors"]),
        ("receivers", report.counts["receivers"]),
        ("volunteers", report.counts["volunteers"]),
        ("meals", report.counts["meals"]),
        ("allocation_donors_pct", round(report.allocation["donors"], 4)),
        ("allocation_receivers_pct", round(report.allocation["receivers"], 4)),
        ("allocation_volunteers_pct", round(report.allocation["volunteers"], 4)),
        ("allocation_overall_pct", round(report.allocation["overall"], 4)),
        ("allocation_food_requests_pct", round(report.allocation["food_requests"], 4)),
        ("receiver_fulfillment_pct", round(report.fulfillment_pct, 4)),
        ("served_grams", report.served_grams),
        ("requested_grams", report.requested_grams),
        ("deliveries", len(report.deliveries)),
        ("max_overhead_pct", round(max((d.overhead_pct for d in report.deliveries), default=0.0), 6)),
    ]
    rows.extend((f"matches_{status}", count) for status, count in sorted(report.match_counts.items()))
    return rows


def _cmd_run(args) -> int:
    scenario = _refuse_repeated_ids(load_scenario(args.scenario))
    report = run_simulation(
        scenario,
        policy=MatchPolicy(receiver_sort=args.receiver_sort, preferences=args.preferences),
        acceptance=AcceptanceModel(
            rejection_probability=args.reject_prob,
            no_response_probability=args.no_response_prob,
            seed=args.seed,
        ),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "report.csv", ("metric", "value"), _report_rows(report))
    write_csv(
        out / "deliveries.csv",
        ("route_km", "pickup_km", "dropoff_km", "overhead_km", "overhead_pct"),
        [
            (round(d.route_length, 6), round(d.pickup_km, 6), round(d.dropoff_km, 6),
             round(d.overhead_km, 6), round(d.overhead_pct, 6))
            for d in report.deliveries
        ],
    )
    (out / "report.json").write_text(
        json.dumps(
            {
                "counts": report.counts,
                "allocation": {k: round(v, 6) for k, v in report.allocation.items()},
                "fulfillment_pct": round(report.fulfillment_pct, 6),
                "match_counts": report.match_counts,
                "lifecycle_consistent": report.lifecycle_consistent,
                "terminal_state_totals": Counter(report.terminal_states.values()),
            },
            indent=1,
            sort_keys=True,
        )
    )
    print(f"wrote {out}/report.csv, deliveries.csv, report.json")
    return EXIT_OK


def _write_figure(out: Path, name: str, header: Sequence[str], rows: Sequence[Sequence], series: list,
                  title: str, x_label: str, y_label: str = "allocation (% of food requests)") -> None:
    """Write one figure's rows as <name>.csv and its line chart as <name>.svg."""
    write_csv(out / f"{name}.csv", header, rows)
    write_svg(out / f"{name}.svg", render_line_chart(series, title, x_label, y_label))


def _cmd_experiment(args) -> int:
    scenario = _refuse_repeated_ids(load_scenario(args.scenario))
    config = scenario.config
    # fig8a-c build their populations from the config alone, so the file's
    # requests are not held through their runs; only fig8d runs them
    if args.which != "fig8d":
        scenario = None
    if args.which in PAIRED_EXPERIMENTS and args.seeds < 0:
        raise ValueError("seeds must not be negative")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.which == "fig8a":
        multiples = [float(m) for m in args.multiples.split(",")]
        points = experiment_allocation_vs_volunteers(config, multiples)
        _write_figure(
            out, "fig8a", ("multiple", "volunteers", "allocation_pct", "receiver_fulfillment_pct"),
            [(p.multiple, p.n_volunteers, round(p.allocation_pct, 4), round(p.receiver_fulfillment_pct, 4))
             for p in points],
            [("allocation", [(p.multiple, p.allocation_pct) for p in points])],
            "Agent Allocation vs Volunteer Availability", "volunteers (multiples of donors)",
        )
        print(f"wrote {out}/fig8a.csv, fig8a.svg ({len(points)} points)")
        return EXIT_OK

    if args.which == "fig8d":
        report = experiment_manipulation(scenario, args.fraction)
        _write_figure(
            out, "fig8d", ("agent_id", "role", "truthful_rank", "manipulated_rank", "gain", "exception"),
            [(o.agent_id, o.role, o.truthful_rank, o.misreport_rank, o.gain, int(o.exception))
             for o in report.outcomes],
            [("rank gain", [(i, o.gain) for i, o in enumerate(report.outcomes)])],
            "Results of Manipulation of Agent Preferences", "manipulator", "true-preference rank gain",
        )
        print(
            f"wrote {out}/fig8d.csv, fig8d.svg: {report.cases} manipulators, "
            f"mean gain {report.mean_gain:.4f}, exception rate {report.exception_rate_pct:.2f}%, "
            f"hard violations {len(report.hard_violations)}"
        )
        return EXIT_VIOLATION if report.hard_violations else EXIT_OK

    name = args.which
    (baseline, variant), labels, title = PAIRED_EXPERIMENTS[name]
    rows = experiment_paired_policies(config, range(args.seed, args.seed + args.seeds), baseline, variant)
    _write_figure(
        out, name, ("seed",) + labels,
        [(r.seed, round(r.baseline_pct, 4), round(r.variant_pct, 4)) for r in rows],
        [(labels[0], [(r.seed, r.baseline_pct) for r in rows]), (labels[1], [(r.seed, r.variant_pct) for r in rows])],
        title, "seed",
    )
    wins = sum(1 for r in rows if r.variant_pct >= r.baseline_pct)
    print(f"wrote {out}/{name}.csv, {name}.svg: variant >= baseline on {wins}/{len(rows)} seeds")
    return EXIT_OK


def load_instance(path: str) -> Instance:
    """Read a one-shot oracle instance from a scenario-format JSON file.

    The optional top-level "at" key fixes the iteration minute; without it,
    the latest gate-opening minute is used.
    """
    scenario, now = read_scenario(path)
    _refuse_repeated_ids(scenario)
    thresholds = scenario.config.thresholds
    donors, receivers, vols = [], [], []
    for arrival, timed in enumerate(scenario.requests, start=1):
        request = timed.request
        request.arrival = arrival
        if isinstance(request, DonationRequest):
            donors.append(request)
        elif isinstance(request, RequirementRequest):
            receivers.append(request)
        else:
            vols.append(request)
    if now is None:
        # volunteers are left out: their lead is 0, so they would move the minute
        if not (donors or receivers):
            raise ValueError("empty instance")
        now = max([d.window.start - thresholds.t_d for d in donors]
                  + [r.window.start - thresholds.t_r for r in receivers])
    return Instance(donors=donors, receivers=receivers, vols=vols, now=now, thresholds=thresholds)


def _cmd_oracle(args) -> int:
    instance = load_instance(args.instance)
    if args.which == "pareto":
        matches, _ = run_instance(instance)
        verdict = brute_force_pareto_oracle(instance, matches)
        print(verdict.describe())
        return EXIT_OK if verdict.ok else EXIT_VIOLATION
    report = exhaustive_misreports(instance)
    print(
        f"misreports: {report.cases} cases, {len(report.improvements)} improvements, "
        f"{len(report.exceptions)} availability exceptions, "
        f"{len(report.hard_violations)} hard violations"
    )
    for case in report.hard_violations:
        print(
            f"  agent {case.agent_id} ({case.role}) gained {case.gain} "
            f"via {case.misreport}: rank {case.truthful_rank} -> {case.misreport_rank}"
        )
    return EXIT_VIOLATION if report.hard_violations else EXIT_OK


def _cmd_check_gamma(args) -> int:
    scenario = _refuse_repeated_ids(load_scenario(args.scenario))
    report = run_simulation(scenario)
    bad = gamma_violations(report.deliveries, scenario.config.thresholds)
    bound = 4.0 * scenario.config.thresholds.t_l
    worst = max((d.overhead_pct for d in report.deliveries), default=0.0)
    print(
        f"deliveries: {len(report.deliveries)}, bound {bound:.2f}%, "
        f"worst {worst:.4f}%, violations {len(bad)}"
    )
    return EXIT_VIOLATION if bad else EXIT_OK


COMMANDS = {
    "generate": _cmd_generate,
    "run": _cmd_run,
    "experiment": _cmd_experiment,
    "oracle": _cmd_oracle,
    "check-gamma": _cmd_check_gamma,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # the parser is garbage before the command runs, not held through it
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        # bad input, integers too large to use, and unwritable outputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
