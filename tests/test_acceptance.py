"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with -s to watch them).

The desk-scale experiment criteria use the reference configurations from
foodmatch.experiments and fixed seed ranges, so every verdict here is
deterministic.
"""

import statistics
import time

from foodmatch.cli import main as cli_main
from foodmatch.engine import MatchPolicy, ca_dtb, collapse_ranks
from foodmatch.experiments import (
    desk_policy_config,
    desk_volunteer_sweep_config,
    experiment_allocation_vs_volunteers,
    experiment_manipulation,
    experiment_paired_policies,
)
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    Perishability,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
)
from foodmatch.oracles import (
    brute_force_pareto_oracle,
    exhaustive_misreports,
    gamma_violations,
    random_instance,
    run_instance,
    sized_instance,
)
from foodmatch.pool import ActivePool, submit_request
from foodmatch.scenario import ScenarioConfig, generate_scenario
from foodmatch.simulate import AcceptanceModel, run_simulation

from test_oracles import table5_instance

REFERENCE_THRESHOLDS = Thresholds()  # the documented operating values


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gamma_bound_at_scale():
    t0 = time.perf_counter()
    scenario = generate_scenario(ScenarioConfig(n_requests=5000, seed=42, thresholds=REFERENCE_THRESHOLDS))
    run_report = run_simulation(scenario)
    elapsed = time.perf_counter() - t0
    bad = gamma_violations(run_report.deliveries, REFERENCE_THRESHOLDS)
    worst = max((d.overhead_pct for d in run_report.deliveries), default=0.0)
    ok = not bad and elapsed <= 60.0 and len(run_report.deliveries) > 0
    report_line(
        "criterion 1 (off-routing bound, 5000 requests)",
        ok,
        f"{len(run_report.deliveries)} deliveries, worst {worst:.3f}% of bound 20%, "
        f"{len(bad)} violations, runtime {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_allocation_vs_volunteers_shape():
    multiples = (0.25, 0.5, 1.0, 2.0, 4.0)
    good = 0
    for seed in range(100):
        points = experiment_allocation_vs_volunteers(
            desk_volunteer_sweep_config(seed=seed), multiples
        )
        curve = [p.allocation_pct for p in points]
        non_decreasing = all(curve[i + 1] >= curve[i] - 1.0 for i in range(len(curve) - 1))
        plateau = (curve[4] - curve[3]) < (curve[1] - curve[0])
        good += non_decreasing and plateau
    ok = good >= 90
    report_line(
        "criterion 2 (allocation vs volunteers: rise then plateau)",
        ok,
        f"shape holds on {good}/100 seeds (needs >= 90)",
    )


def test_criterion_3_end_sorting_dominates():
    rows = experiment_paired_policies(
        desk_policy_config(), range(100), MatchPolicy(receiver_sort="start"), MatchPolicy(receiver_sort="end")
    )
    wins = sum(1 for r in rows if r.variant_pct >= r.baseline_pct - 0.5)
    ok = wins >= 95
    report_line(
        "criterion 3 (end-sorting >= start-sorting)",
        ok,
        f"end-sort within tolerance on {wins}/100 seeds (needs >= 95)",
    )


def test_criterion_4_eligible_preferences_dominate():
    rows = experiment_paired_policies(
        desk_policy_config(), range(100), MatchPolicy(preferences="raw"), MatchPolicy(preferences="eligible")
    )
    wins = sum(1 for r in rows if r.variant_pct >= r.baseline_pct)
    ok = wins >= 95
    report_line(
        "criterion 4 (eligibility-updated >= raw preferences)",
        ok,
        f"eligible >= raw on {wins}/100 seeds (needs >= 95)",
    )


def test_criterion_5_misreports_never_help():
    cases = improvements = hard = 0
    for seed in range(25):
        instance = random_instance(seed, max_donors=4, max_receivers=4, max_vols=2)
        probe = exhaustive_misreports(instance)
        cases += probe.cases
        improvements += len(probe.improvements)
        hard += len(probe.hard_violations)

    bulk = experiment_manipulation(ScenarioConfig(n_requests=5000, seed=11), fraction=20.0)
    ok = (
        hard == 0
        and bulk.exception_rate_pct < 5.0
        and bulk.mean_gain <= 0.0
        and not bulk.hard_violations
    )
    report_line(
        "criterion 5 (strategyproofness)",
        ok,
        f"exhaustive: {cases} misreports, {improvements} improvements, {hard} hard violations; "
        f"bulk: {bulk.cases} manipulators, mean gain {bulk.mean_gain:.4f}, "
        f"exception rate {bulk.exception_rate_pct:.2f}% (needs < 5%)",
    )


def test_criterion_6_assignment_oracle():
    failures = []
    for seed in range(200):
        instance = random_instance(seed)
        matches, _ = run_instance(instance)
        verdict = brute_force_pareto_oracle(instance, matches)
        if not verdict.ok:
            failures.append((seed, verdict.reason))

    instance = table5_instance()
    matches, _ = run_instance(instance)
    tracked = next(m for m in matches if m.receiver and m.receiver.agent_id == 206)
    table5_ok = tracked.donor.agent_id == 102 and brute_force_pareto_oracle(instance, matches).ok

    ok = not failures and table5_ok
    report_line(
        "criterion 6 (assignment oracle)",
        ok,
        f"pareto-ok on {200 - len(failures)}/200 random instances; "
        f"worked best-match instance selects donor 102 and verifies: {table5_ok}",
    )


def test_criterion_7_iteration_scaling():
    def median_iteration_time(n_r: int) -> float:
        times = []
        for k in range(20):
            instance = sized_instance(9000 + k, n_r // 2, n_r, n_r // 4, city=30.0)
            t0 = time.perf_counter()
            run_instance(instance)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    small = median_iteration_time(200)
    large = median_iteration_time(400)
    ratio = large / small
    ok = ratio <= 10.0
    report_line(
        "criterion 7 (per-iteration scaling)",
        ok,
        f"median iteration {small * 1000:.1f} ms at r=200 vs {large * 1000:.1f} ms at r=400, "
        f"ratio {ratio:.2f} (limit 10)",
    )


def test_criterion_8_conservation_lifecycle_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    assert cli_main(["generate", "--seed", "8", "--requests", "400", "--out", str(scenario_path)]) == 0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main([
            "run", "--scenario", str(scenario_path), "--out", str(out),
            "--reject-prob", "0.1", "--seed", "8",
        ])
        assert code == 0
    identical = (
        (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        and (out_a / "deliveries.csv").read_bytes() == (out_b / "deliveries.csv").read_bytes()
    )

    scenario = generate_scenario(ScenarioConfig(n_requests=400, seed=8))
    sim = run_simulation(scenario, acceptance=AcceptanceModel(rejection_probability=0.1, seed=8))
    states = set(sim.terminal_states.values())
    donated = sum(t.request.amount for t in scenario.requests if isinstance(t.request, DonationRequest))
    conserved = (
        sim.served_grams == sim.credited_grams
        and sim.served_grams == sum(g["grams"] for g in sim.accepted_groups)
        and sim.served_grams <= donated
        and sim.carried_grams == sum(g["grams"] for g in sim.accepted_groups if g["volunteer_agent"] != "")
    )
    n_requests_tracked = len(sim.terminal_states)
    ok = (
        identical
        and sim.lifecycle_consistent
        and conserved
        and states <= {"accepted", "unmatched", "served", "partially_served", "unserved", "assigned", "unused"}
    )
    report_line(
        "criterion 8 (conservation, lifecycle, determinism)",
        ok,
        f"{n_requests_tracked} tracked requests each in one terminal state "
        f"(lifecycle consistent: {sim.lifecycle_consistent}); grams conserved: {conserved} "
        f"({sim.served_grams} g); CSV reruns byte-identical: {identical}",
    )


def test_criterion_9_worked_examples():
    # priority extraction & augmentation
    arrivals = iter(range(1, 10))
    eligible = [
        DonationRequest(id=RequestId(a, 1), arrival=next(arrivals), location=Location(0, 0),
                        food=FoodType.PACKAGED_SOLID, amount=1000, window=TimeWindow(700, 720))
        for a in (101, 102, 103, 104)  # p, q, r, s
    ]
    ranks, tail = collapse_ranks([102, 100, 101], {d.id.agent_id for d in eligible})
    ordered = sorted(eligible, key=lambda d: (ranks.get(d.id.agent_id, tail), d.arrival))
    entries = [(d.id.agent_id, ranks.get(d.id.agent_id, tail)) for d in ordered]
    extraction_ok = entries == [(102, 1), (101, 2), (103, 3), (104, 3)] and tail == 3

    # best-match selection at positions 5, 2, 2, 4
    instance = table5_instance()
    matches, _ = run_instance(instance)
    tracked = next(m for m in matches if m.receiver and m.receiver.agent_id == 206)
    selection_ok = tracked.donor.agent_id == 102

    # two receivers, one two-meal donor, earliest end served first
    meals = [
        DonationRequest(id=RequestId(1, 1, k), arrival=k, location=Location(10, 10),
                        food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(700, 860))
        for k in (1, 2)
    ]
    r1 = RequirementRequest(id=RequestId(201, 1), arrival=11, location=Location(11, 10),
                            food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(820, 1000))
    r2 = RequirementRequest(id=RequestId(202, 1), arrival=12, location=Location(11, 10),
                            food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(860, 880))
    result = ca_dtb(meals, [r1, r2], [], Perishability.PERISHABLE, 690, REFERENCE_THRESHOLDS,
                    policy=MatchPolicy(receiver_sort="end"))
    by_meal = {m.donor.meal_seq: m.receiver for m in result.matches}
    end_sort_ok = by_meal[1] == r2.id and by_meal[2] == r1.id

    # meal split guard
    pool = ActivePool()
    unsplit = submit_request(
        DonationRequest(id=RequestId(7, 1), arrival=-1, location=Location(0, 0),
                        food=FoodType.MIXED, amount=1999, window=TimeWindow(0, 10)),
        pool, REFERENCE_THRESHOLDS,
    )
    split = submit_request(
        DonationRequest(id=RequestId(8, 1), arrival=-1, location=Location(0, 0),
                        food=FoodType.MIXED, amount=2000, window=TimeWindow(0, 10)),
        pool, REFERENCE_THRESHOLDS,
    )
    split_ok = (
        unsplit == [RequestId(7, 1, 0)]
        and split == [RequestId(8, 1, 1), RequestId(8, 1, 2)]
        and [pool.lookup(i).amount for i in split] == [1000, 1000]
    )

    ok = extraction_ok and selection_ok and end_sort_ok and split_ok
    report_line(
        "criterion 9 (worked examples)",
        ok,
        f"extraction {extraction_ok}, best-match {selection_ok}, "
        f"end-sort two-receiver {end_sort_ok}, split guard {split_ok}",
    )
