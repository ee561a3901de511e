"""End-to-end simulation: toy markets, acceptance paths, conservation."""

from dataclasses import fields

import pytest

from foodmatch import engine as engine_module
from foodmatch import simulate
from foodmatch.geometry import off_route_overhead
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    MatchStatus,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from foodmatch.scenario import Scenario, ScenarioConfig, TimedRequest, generate_scenario
from foodmatch.simulate import AcceptanceModel, SimReport, run_simulation

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

    def test_empty_scenario_ticks_through_the_working_day(self, monkeypatch):
        # with nothing scheduled the clock starts at working_start and runs
        # to working_end, matching nothing
        minutes = []
        iterate = simulate.MatchingEngine.iterate
        monkeypatch.setattr(simulate.MatchingEngine, "iterate",
                            lambda engine, now: minutes.append(now) or iterate(engine, now))
        config = ScenarioConfig(n_requests=0, working_start=600, working_end=660)
        report = run_simulation(Scenario(config=config, requests=[]))
        assert minutes == list(range(600, 661, 5))
        assert report.counts == {"donors": 0, "receivers": 0, "volunteers": 0, "meals": 0}
        assert set(report.allocation.values()) == {0.0}
        assert (report.served_grams, report.requested_grams, report.fulfillment_pct) == (0, 0, 0.0)
        assert (report.deliveries, report.terminal_states, report.accepted_groups) == ([], {}, [])
        assert report.lifecycle_consistent

    def test_max_iterations_guard(self, monkeypatch):
        # the toy's clock span passes the up-front check, but its one group,
        # never answered and never expired, keeps the clock running
        monkeypatch.setattr(simulate, "MAX_ITERATIONS", 200)
        monkeypatch.setattr(engine_module, "expire_stale_matches", lambda *args: [])
        with pytest.raises(RuntimeError, match="did not settle within 200 iterations"):
            run_simulation(toy_scenario(), acceptance=AcceptanceModel(no_response_probability=1.0))

    # each ticked for about a million iterations before the loop guard stopped it
    @pytest.mark.parametrize("case", ["long_working_day", "late_submission", "long_acceptance_deadline"])
    def test_clock_that_cannot_settle_refused_before_the_first_tick(self, case, monkeypatch):
        monkeypatch.setattr(engine_module.MatchingEngine, "iterate", lambda *args: pytest.fail("a tick ran"))
        donor = toy_scenario().requests[0]
        if case == "long_working_day":
            donor.request.window = TimeWindow(500, 20_000_000)
            scenario = Scenario(config=ScenarioConfig(working_end=20_000_000), requests=[TimedRequest(0, donor.request)])
        elif case == "late_submission":
            scenario = Scenario(config=ScenarioConfig(), requests=[TimedRequest(99_999_999, donor.request)])
        else:
            scenario = generate_scenario(ScenarioConfig(n_requests=120, seed=42, thresholds=Thresholds(t_w=100_000_000)))
        with pytest.raises(ValueError, match=f"needs more than {simulate.MAX_ITERATIONS} ticks"):
            run_simulation(scenario, acceptance=AcceptanceModel(no_response_probability=1.0))


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
        raises=AssertionError,
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


def reference_report(engine) -> SimReport:
    """The report built the plain way: sets of accepted ids and of accepted
    (agent, request) pairs, one walk over the groups per output."""
    pool, eligibility = engine.pool, engine.trace
    match_counts = {status.value: 0 for status in MatchStatus}
    accepted_meals, accepted_receivers, accepted_volunteers = set(), set(), set()
    served = 0
    for group in engine.groups:
        match_counts[group.status.value] += len(group.matches)
        if group.status is MatchStatus.ACCEPTED:
            accepted_meals.update(m.donor for m in group.matches)
            accepted_receivers.add(group.receiver)
            if group.volunteer is not None:
                accepted_volunteers.add(group.volunteer)
            served += group.total_amount
    accepted_donor_requests = {(rid.agent_id, rid.request_seq) for rid in accepted_meals}
    accepted_receiver_requests = {(rid.agent_id, rid.request_seq) for rid in accepted_receivers}

    active = set(engine.carry.all_ids()) | pool.queued_ids()
    terminal = {}
    consistent = True
    n_d = n_r = n_v = requested = meal_count = credited = carried = 0
    for request in pool.registered():
        rid = request.id
        if isinstance(request, DonationRequest):
            if rid.meal_seq <= 1:
                n_d += 1
            meal_count += 1
            if rid in accepted_meals:
                terminal[str(rid)] = "accepted"
                consistent = consistent and rid not in active
            else:
                terminal[str(rid)] = "unmatched"
        elif isinstance(request, RequirementRequest):
            n_r += 1
            requested += request.amount
            credited += request.amount - request.remaining_amount
            if request.remaining_amount <= 0:
                terminal[str(rid)] = "served"
                consistent = consistent and rid not in active
            elif rid in accepted_receivers:
                terminal[str(rid)] = "partially_served"
            else:
                terminal[str(rid)] = "unserved"
        else:
            n_v += 1
            carried += request.payload_capacity - request.remaining_payload
            terminal[str(rid)] = "assigned" if rid in accepted_volunteers else "unused"

    def pct(part, whole):
        return 100.0 * part / whole if whole else 0.0

    allocation = {
        "donors": pct(len(accepted_donor_requests), n_d),
        "receivers": pct(len(accepted_receiver_requests), n_r),
        "volunteers": pct(len(accepted_volunteers), n_v),
        "overall": pct(
            len(accepted_donor_requests) + len(accepted_receiver_requests) + len(accepted_volunteers),
            n_d + n_r + n_v,
        ),
        "food_requests": pct(len(accepted_donor_requests) + len(accepted_receiver_requests), n_d + n_r),
    }
    accepted = [g for g in engine.groups if g.status is MatchStatus.ACCEPTED]
    deliveries = []
    for g in accepted:
        if g.volunteer is not None:
            volunteer = pool.lookup(g.volunteer)
            deliveries.append(off_route_overhead(
                volunteer.route_start, volunteer.route_end,
                pool.lookup(g.matches[0].donor).location, pool.lookup(g.receiver).location,
            ))
    accepted_groups = [
        {
            "group_id": g.id,
            "donor_agent": g.donor_agent,
            "volunteer_agent": g.volunteer.agent_id if g.volunteer else "",
            "receiver_agent": g.receiver.agent_id,
            "receiver": str(g.receiver),
            "grams": g.total_amount,
            "created_at": g.created_at,
            "food": g.food.value,
        }
        for g in accepted
    ]
    return SimReport(
        counts={"donors": n_d, "receivers": n_r, "volunteers": n_v, "meals": meal_count},
        allocation=allocation,
        served_grams=served,
        requested_grams=requested,
        credited_grams=credited,
        carried_grams=carried,
        fulfillment_pct=pct(min(served, requested), requested),
        match_counts=match_counts,
        deliveries=deliveries,
        terminal_states=terminal,
        lifecycle_consistent=consistent,
        accepted_groups=accepted_groups,
        eligibility_universes=eligibility if eligibility is not None else {},
    )


class TestReportAgainstReference:
    """The one-pass report equals the set-based reference on the same engine."""

    @pytest.mark.parametrize("seed", [3, 12])
    @pytest.mark.parametrize("rejection, no_response", [(0.0, 0.0), (0.3, 0.1)])
    @pytest.mark.parametrize("trace", [False, True], ids=["trace-off", "trace-on"])
    def test_every_field_matches(self, seed, rejection, no_response, trace, monkeypatch):
        engines = []
        build = simulate._build_report

        def keep(engine):
            engines.append(engine)
            return build(engine)

        monkeypatch.setattr(simulate, "_build_report", keep)
        scenario = generate_scenario(ScenarioConfig(n_requests=1500, seed=seed))
        report = run_simulation(scenario, acceptance=AcceptanceModel(rejection, no_response, seed=seed), trace=trace)
        expected = reference_report(engines[0])
        assert report.match_counts["accepted"] and report.deliveries
        for f in fields(SimReport):
            assert getattr(report, f.name) == getattr(expected, f.name), f.name
