"""End-to-end simulation: toy markets, acceptance paths, conservation."""

import pytest

from foodmatch import simulate
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from foodmatch.scenario import Scenario, ScenarioConfig, TimedRequest, generate_scenario
from foodmatch.simulate import AcceptanceModel, run_simulation

TH = Thresholds()


def toy_scenario():
    """One compatible donor / receiver / volunteer triple."""
    donor = DonationRequest(
        id=RequestId(1, 1), arrival=-1, location=Location(10, 10),
        food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(700, 800),
    )
    receiver = RequirementRequest(
        id=RequestId(2, 1), arrival=-1, location=Location(20, 10.5),
        food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(820, 980),
    )
    volunteer = VolunteerRequest(
        id=RequestId(3, 1), arrival=-1, route_start=Location(9.5, 10), route_end=Location(30, 10),
        motored=True, ac=False, payload_capacity=5000, window=TimeWindow(600, 800),
    )
    config = ScenarioConfig(n_requests=3, n_donors=1, n_receivers=1, n_volunteers=1, seed=0)
    return Scenario(
        config=config,
        requests=[
            TimedRequest(400, donor),
            TimedRequest(405, receiver),
            TimedRequest(410, volunteer),
        ],
    )


class TestToyRuns:
    def test_all_accept_full_allocation(self):
        report = run_simulation(toy_scenario())
        assert report.allocation == {
            "donors": 100.0, "receivers": 100.0, "volunteers": 100.0,
            "overall": 100.0, "food_requests": 100.0,
        }
        assert report.match_counts["accepted"] == 1
        assert len(report.deliveries) == 1
        assert report.served_grams == 1000

    def test_all_reject_zero_allocation_terminates(self):
        report = run_simulation(
            toy_scenario(), acceptance=AcceptanceModel(rejection_probability=1.0)
        )
        assert report.allocation["overall"] == 0.0
        assert report.match_counts["accepted"] == 0
        assert report.match_counts["rejected"] >= 1
        assert report.lifecycle_consistent

    def test_no_response_expires_and_requeues(self):
        report = run_simulation(
            toy_scenario(), acceptance=AcceptanceModel(no_response_probability=1.0)
        )
        assert report.match_counts["accepted"] == 0
        assert report.match_counts["expired"] >= 1
        assert report.lifecycle_consistent

    def test_max_iterations_guard(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_ITERATIONS", 3)
        with pytest.raises(RuntimeError, match="did not settle"):
            run_simulation(toy_scenario())


class TestSeededRuns:
    def test_determinism(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=150, seed=21))
        acceptance = AcceptanceModel(rejection_probability=0.1, seed=21)
        a = run_simulation(scenario, acceptance=acceptance)
        b = run_simulation(scenario, acceptance=acceptance)
        assert a.allocation == b.allocation
        assert a.match_counts == b.match_counts
        assert a.terminal_states == b.terminal_states
        assert [g["group_id"] for g in a.accepted_groups] == [g["group_id"] for g in b.accepted_groups]

    def test_run_does_not_mutate_scenario(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=100, seed=4))
        before = [
            (t.request.arrival, getattr(t.request, "remaining_amount", None))
            for t in scenario.requests
        ]
        run_simulation(scenario)
        after = [
            (t.request.arrival, getattr(t.request, "remaining_amount", None))
            for t in scenario.requests
        ]
        assert before == after

    def test_grams_conserved_under_rejection(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=300, seed=8))
        report = run_simulation(scenario, acceptance=AcceptanceModel(rejection_probability=0.1, seed=8))
        donated = sum(t.request.amount for t in scenario.requests if isinstance(t.request, DonationRequest))
        assert report.served_grams == report.credited_grams
        assert report.served_grams == sum(g["grams"] for g in report.accepted_groups)
        assert report.served_grams <= donated
        assert report.carried_grams == sum(g["grams"] for g in report.accepted_groups if g["volunteer_agent"] != "")
        assert report.lifecycle_consistent

    def test_terminal_states_partition_all_requests(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=200, seed=9))
        report = run_simulation(scenario, acceptance=AcceptanceModel(rejection_probability=0.1, seed=9))
        meal_states = [s for s in report.terminal_states.values()]
        assert meal_states
        allowed = {"accepted", "unmatched", "served", "partially_served", "unserved", "assigned", "unused"}
        assert set(meal_states) <= allowed

    def test_perishable_groups_displayed_before_non_perishable_each_tick(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=300, seed=14))
        report = run_simulation(scenario)
        by_tick: dict[int, list[str]] = {}
        for g in report.accepted_groups:
            by_tick.setdefault(g["created_at"], []).append(g["food"])
        for foods in by_tick.values():
            if "non_perishable" in foods and "perishable" in foods:
                assert foods.index("perishable") < foods.index("non_perishable")
                last_p = max(i for i, f in enumerate(foods) if f == "perishable")
                first_np = min(i for i, f in enumerate(foods) if f == "non_perishable")
                assert last_p < first_np

    def test_gamma_bound_on_all_deliveries(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=400, seed=16))
        report = run_simulation(scenario)
        assert report.deliveries
        bound = 4 * scenario.config.thresholds.t_l + 1e-9
        assert all(d.overhead_pct <= bound for d in report.deliveries)

    @pytest.mark.xfail(
        strict=True,
        reason="known lifecycle fault: a rejected or expired sibling group requeues the "
        "volunteer of an accepted group, which then serves another donor; volunteer agents "
        "3741, 4453 and 3657 are each accepted for two donor agents in this run",
    )
    def test_volunteer_accepted_for_one_donor_agent(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=5000, seed=1))
        report = run_simulation(scenario, acceptance=AcceptanceModel(0.3, 0.1, seed=1))
        donors_of: dict[int, set[int]] = {}
        for g in report.accepted_groups:
            if g["volunteer_agent"] != "":
                donors_of.setdefault(g["volunteer_agent"], set()).add(g["donor_agent"])
        assert donors_of
        shared = {v: sorted(d) for v, d in donors_of.items() if len(d) > 1}
        assert not shared, f"volunteers accepted for several donor agents: {shared}"
