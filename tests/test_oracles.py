"""Brute-force oracles: off-routing bound, assignment checks, misreports,
and the plain volunteer-assignment reference."""

import copy
import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import pytest

from foodmatch import engine, oracles
from foodmatch.engine import MatchingEngine, MatchPolicy, gated
from foodmatch.experiments import desk_policy_config, desk_volunteer_sweep_config
from foodmatch.geometry import DeliveryRecord, distance
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    Match,
    Perishability,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from foodmatch.oracles import (
    Instance,
    brute_force_pareto_oracle,
    exhaustive_misreports,
    gamma_violations,
    partner_index,
    random_instance,
    run_instance,
    score_misreport,
    sized_instance,
    true_rank,
)
from foodmatch.pool import ActivePool, submit_request
from foodmatch.scenario import ScenarioConfig, generate_scenario, with_volunteer_count
from foodmatch.simulate import AcceptanceModel, run_simulation

TH = Thresholds()


def record(pct):
    return DeliveryRecord(route_length=10.0, pickup_km=0.0, dropoff_km=0.0,
                          overhead_km=pct / 10.0, overhead_pct=pct)


class TestGammaBound:
    def test_all_within(self):
        assert gamma_violations([record(19.9), record(20.0)], TH) == []

    def test_empty_vacuous(self):
        assert gamma_violations([], TH) == []

    def test_violation_detected(self):
        assert len(gamma_violations([record(20.5)], TH)) == 1
        assert len(gamma_violations([record(20.5), record(3.0)], TH)) == 1


def table5_instance():
    """Four donors with submitted lists placing the tracked receiver at
    positions 5, 2, 2, 4; four filler receivers keep every listed entry
    ahead of the tracked one eligible."""
    donors = []
    prefs = {
        101: (201, 202, 203, 204, 206),
        102: (201, 206, 203, 204),
        103: (201, 206, 203, 204),
        104: (201, 202, 203, 206),
    }
    arrivals = iter(range(1, 50))
    for agent, pref in prefs.items():
        donors.append(
            DonationRequest(
                id=RequestId(agent, 1), arrival=next(arrivals), location=Location(10 + agent % 4, 10),
                food=FoodType.PACKAGED_SOLID, amount=1000, window=TimeWindow(700, 720),
                preferred_receivers=pref,
            )
        )
    receivers = [
        RequirementRequest(
            id=RequestId(206, 1), arrival=next(arrivals), location=Location(15, 15),
            food=FoodType.PACKAGED_SOLID, amount=1000, window=TimeWindow(760, 800),
            preferred_donors=(102, 100, 101),
        )
    ]
    for agent in (201, 202, 203, 204):
        receivers.append(
            RequirementRequest(
                id=RequestId(agent, 1), arrival=next(arrivals), location=Location(16, 15),
                food=FoodType.PACKAGED_SOLID, amount=1000, window=TimeWindow(760, 900 + agent),
            )
        )
    return Instance(donors=donors, receivers=receivers, vols=[], now=580)


class TestAssignmentOracle:
    def test_produced_table5_matching_is_ok(self):
        instance = table5_instance()
        matches, _ = run_instance(instance)
        tracked = next(m for m in matches if m.receiver and m.receiver.agent_id == 206)
        assert tracked.donor.agent_id == 102
        assert brute_force_pareto_oracle(instance, matches).ok

    def test_corrupted_table5_matching_flagged(self):
        # hand the tracked receiver to the position-5 donor and leave the
        # position-2 winner unmatched: the oracle must produce a better
        # assignment
        instance = table5_instance()
        matches, _ = run_instance(instance)
        tracked = next(m for m in matches if m.receiver and m.receiver.agent_id == 206)
        corrupted = []
        for m in matches:
            if m.donor.agent_id == 102:
                corrupted.append(Match(m.donor, None, None, m.vicinity, 0))
            elif m.donor.agent_id == 101:
                corrupted.append(Match(m.donor, None, tracked.receiver, m.vicinity, tracked.delivered_amount))
            elif m is not tracked:
                corrupted.append(m)
        verdict = brute_force_pareto_oracle(instance, corrupted)
        assert not verdict.ok
        assert "102" in str(verdict.counterexample)

    def test_empty_instance_ok(self):
        instance = Instance(donors=[], receivers=[], vols=[], now=600)
        assert brute_force_pareto_oracle(instance, []).ok

    @pytest.mark.parametrize("policy, served", [
        (MatchPolicy(), 223),
        (MatchPolicy(preferences="raw"), 135),
        (MatchPolicy(receiver_sort="start"), 222),
    ], ids=["eligible", "raw", "start"])
    def test_random_instances_all_ok(self, policy, served):
        # raw preferences run the oracle's raw-mode eligibility and
        # positions; the served-pair count pins what it judged
        pairs = 0
        for seed in range(200):
            instance = random_instance(seed, policy=policy)
            matches, _ = run_instance(instance)
            verdict = brute_force_pareto_oracle(instance, matches)
            assert verdict.ok, f"seed {seed}: {verdict.describe()}"
            pairs += sum(1 for m in matches if m.receiver is not None)
        assert pairs == served

    def test_each_pair_is_tested_once(self, monkeypatch):
        # every check reads one table of feasible pairs: the predicate runs
        # once per (gated donor, gated receiver) pair, on the produced
        # matching and on one with a dropped match alike
        tested = Counter()
        predicate = oracles._OracleWorld.pair_feasible

        def counted(world, d, r, vicinity, volunteer):
            tested[d.id, r.id] += 1
            return predicate(world, d, r, vicinity, volunteer)

        monkeypatch.setattr(oracles._OracleWorld, "pair_feasible", counted)
        judged = 0
        for seed in range(40):
            instance = random_instance(seed)
            matches, _ = run_instance(instance)
            donors = gated(oracles._meals(instance), instance.now, TH)
            receivers = gated(instance.receivers, instance.now, TH)
            for matching in (matches, matches[1:]):
                tested.clear()
                brute_force_pareto_oracle(instance, matching)
                assert tested == Counter({(d.id, r.id): 1 for d in donors for r in receivers}), seed
                judged += len(tested)
        assert judged == 738

    def test_restricted_volunteers_keep_to_their_receivers(self):
        # random_instance never restricts a volunteer; restricting every
        # even-indexed one to the first receiver, with a wide drop-off band
        # so volunteers carry often, makes the oracle judge the rule
        carried = restricted = 0
        for seed in range(200):
            instance = random_instance(seed, thresholds=Thresholds(t_l=40.0))
            first = (instance.receivers[0].id.agent_id,)
            instance.vols = [replace(v, receivers=first) if i % 2 == 0 else v for i, v in enumerate(instance.vols)]
            matches, _ = run_instance(instance)
            verdict = brute_force_pareto_oracle(instance, matches)
            assert verdict.ok, f"seed {seed}: {verdict.describe()}"
            by_id = {v.id: v for v in instance.vols}
            for m in matches:
                if m.receiver is not None and m.volunteer is not None:
                    carried += 1
                    restricted += bool(by_id[m.volunteer].receivers)
        assert (carried, restricted) == (46, 22)

    def test_dropped_pair_breaks_maximality(self):
        for seed in range(40):
            instance = random_instance(seed)
            matches, _ = run_instance(instance)
            completed = [m for m in matches if m.receiver is not None]
            if not completed:
                continue
            corrupted = [m for m in matches if m is not completed[0]]
            world_ok = brute_force_pareto_oracle(instance, corrupted).ok
            if not world_ok:
                return  # at least one detection proves the check bites
        pytest.fail("no dropped-pair corruption was ever detected")

    def test_infeasible_produced_pair_flagged(self):
        # reassign a matched donor to a receiver outside its vicinity: the
        # produced pair is no longer feasible. Under raw preferences the far
        # receiver is on the donor's list, so only the feasibility predicate
        # can catch it.
        for policy in (MatchPolicy(), MatchPolicy(preferences="raw")):
            instance = random_instance(3, policy=policy)
            matches, _ = run_instance(instance)
            match = next(m for m in matches if m.receiver is not None)
            donor = next(d for d in instance.donors if d.id == match.donor)
            far = next(r for r in instance.receivers if distance(r.location, donor.location) > match.vicinity)
            corrupted = [replace(m, receiver=far.id) if m is match else m for m in matches]
            verdict = brute_force_pareto_oracle(instance, corrupted)
            assert not verdict.ok, policy
            assert verdict.reason == "produced pair is infeasible"
            assert verdict.counterexample == {"donor": str(donor.id), "receiver": str(far.id)}


class TestOneShotRun:
    def test_volunteer_past_its_window_carries_nothing(self):
        # the volunteer's window ended at 550: at minute 600 it has left the
        # market in the simulator's iteration, so the donor's own 5 km
        # perishable reach cannot cover the receiver 12 km away
        requests = [
            DonationRequest(id=RequestId(1, 1), arrival=1, location=Location(0, 0), food=FoodType.FRESHLY_COOKED,
                            amount=900, window=TimeWindow(500, 800)),
            RequirementRequest(id=RequestId(2, 1), arrival=2, location=Location(12, 0), food=FoodType.FRESHLY_COOKED,
                               amount=900, window=TimeWindow(700, 900)),
            VolunteerRequest(id=RequestId(3, 1), arrival=3, route_start=Location(0.1, 0), route_end=Location(12, 0.2),
                             motored=True, ac=False, payload_capacity=5000, window=TimeWindow(400, 550)),
        ]
        pool = ActivePool()
        for request in requests:
            submit_request(request, pool, TH)
        assert MatchingEngine(pool, TH).iterate(600) == []
        instance = Instance(donors=requests[:1], receivers=requests[1:2], vols=requests[2:], now=600)
        matches, _ = run_instance(instance)
        assert [m.receiver for m in matches] == [None]
        # with the window reaching minute 600 the volunteer carries it
        instance.vols = [replace(requests[2], window=TimeWindow(400, 600))]
        assert [m.receiver for m in run_instance(instance)[0]] == [RequestId(2, 1)]


    def test_donations_split_into_the_simulators_meals(self):
        def market():
            return [
                DonationRequest(id=RequestId(1, 1), arrival=1, location=Location(0, 0),
                                food=FoodType.FRESHLY_COOKED, amount=2500, window=TimeWindow(700, 800)),
                RequirementRequest(id=RequestId(2, 1), arrival=2, location=Location(1, 0),
                                   food=FoodType.FRESHLY_COOKED, amount=3000, window=TimeWindow(750, 900)),
            ]

        pool = ActivePool()
        for request in market():
            submit_request(request, pool, TH)
        (group,) = MatchingEngine(pool, TH).iterate(600)
        served = [(str(m.donor), m.delivered_amount, m.receiver) for m in group.matches]
        assert served == [("1.1.1", 1000, RequestId(2, 1)), ("1.1.2", 1500, RequestId(2, 1))]
        donation, requirement = market()
        instance = Instance(donors=[donation], receivers=[requirement], vols=[], now=600)
        matches, _ = run_instance(instance)
        assert [(str(m.donor), m.delivered_amount, m.receiver) for m in matches] == served
        assert brute_force_pareto_oracle(instance, matches).describe() == "pareto-ok"


def reference_assign_volunteers(donors, vols, food, thresholds, receiver_universe):
    """Plain volunteer assignment: each donor's (volunteer id or None, reach).

    Every volunteer is scanned in arrival order, with no grid. The four tests
    of volunteer_is_eligible are written out again in geometry's arithmetic
    order, since their boundaries are inclusive. A donor's sticky volunteer
    comes first while it stays eligible; otherwise a taken volunteer is
    skipped and a later one wins only with a strictly longer reach. With no
    eligible volunteer the class default applies, else the reach is the
    candidate's, floored at the chosen transport's default. The scan spends
    payload on its own copies of the volunteers.
    """
    def hypot(a, b):
        return math.hypot(a.x - b.x, a.y - b.y)

    def default(motored):
        if food is Perishability.NON_PERISHABLE:
            return thresholds.t_np
        return thresholds.t_p_m if motored else thresholds.t_p_nm

    def eligible(d, v):
        overlap = max(0, min(v.window.end, d.window.end) - max(v.window.start, d.window.start))
        return (
            v.remaining_payload >= d.amount * (100.0 + thresholds.t_a) / 100.0
            and overlap >= thresholds.t_o
            and v.route_start != v.route_end
            and hypot(d.location, v.route_start) <= thresholds.t_l * hypot(v.route_start, v.route_end) / 100.0
            and (not v.receivers or any(agent in receiver_universe for agent in v.receivers))
        )

    def candidate(d, v):
        if food is Perishability.NON_PERISHABLE or v.ac:
            return hypot(v.route_end, d.location)
        return default(v.motored)

    scan = sorted((copy.copy(v) for v in vols), key=lambda v: v.arrival)
    taken, sticky, rows = set(), {}, []
    for d in donors:
        chosen = sticky.get(d.id.agent_id)
        if chosen is not None and eligible(d, chosen):
            best = candidate(d, chosen)
        else:
            chosen = None
            for v in scan:
                if v.id not in taken and eligible(d, v) and (chosen is None or candidate(d, v) > best):
                    chosen, best = v, candidate(d, v)
        if chosen is None:
            rows.append((None, default(None)))
            continue
        chosen.remaining_payload -= d.amount
        taken.add(chosen.id)
        sticky[d.id.agent_id] = chosen
        rows.append((chosen.id, max(best, default(chosen.motored))))
    return rows


def judge_every_round(monkeypatch, config, policy=MatchPolicy(), acceptance=AcceptanceModel()):
    """Run a seeded city with the Pareto oracle judging every class round and
    the volunteer reference judging every volunteer assignment.

    Each round's market is copied before the round runs, because the round
    removes requests from its lists and lowers remaining_amount in place; a
    receiver enters the copy with its open demand as its amount. The Pareto
    oracle takes transport from the produced matching, so only the reference
    sees a volunteer-assignment fault. Returns the number of rounds, of rounds
    holding a receiver or a gated donor, the oracle's violations, the
    receivers that entered a round with no open demand, the donors that got a
    volunteer, and the donors whose volunteer or reach differs from the
    reference's.
    """
    log = {"rounds": 0, "busy": 0, "violations": [], "starved": [], "carried": 0, "misassigned": []}
    class_round = engine.ca_dtb
    assign = engine.assign_volunteers

    def judged(donors, receivers, vols, food, now, thresholds, policy=MatchPolicy(), trace=None):
        log["starved"].extend(str(r.id) for r in receivers if r.remaining_amount <= 0)
        instance = Instance(
            donors=list(donors),
            receivers=[replace(r, amount=r.remaining_amount) for r in receivers if r.remaining_amount > 0],
            vols=list(vols), now=now, thresholds=thresholds, policy=policy,
        )
        result = class_round(donors, receivers, vols, food, now, thresholds, policy=policy, trace=trace)
        verdict = brute_force_pareto_oracle(instance, result.matches)
        log["rounds"] += 1
        log["busy"] += bool(instance.receivers or result.matches)
        if not verdict.ok:
            log["violations"].append(f"minute {now}: {verdict.describe()}")
        return result

    def judged_assignment(donors, vols, food, thresholds, receiver_universe):
        expected = reference_assign_volunteers(donors, vols, food, thresholds, receiver_universe)
        matches, volunteers = assign(donors, vols, food, thresholds, receiver_universe)
        for d, match, volunteer, row in zip(donors, matches, volunteers, expected):
            if (match.volunteer, match.vicinity) != row or (volunteer and volunteer.id) != match.volunteer:
                log["misassigned"].append(f"donor {d.id}: {match.volunteer} at {match.vicinity}, expected {row}")
        log["carried"] += sum(volunteer is not None for volunteer in volunteers)
        if len(matches) != len(expected):
            log["misassigned"].append(f"{len(matches)} rows for {len(expected)} donors")
        return matches, volunteers

    monkeypatch.setattr(engine, "ca_dtb", judged)
    monkeypatch.setattr(engine, "assign_volunteers", judged_assignment)
    run_simulation(generate_scenario(config), policy=policy, acceptance=acceptance)
    return log


@pytest.fixture(scope="module")
def churned_city_rounds():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return judge_every_round(monkeypatch, ScenarioConfig(n_requests=1500, seed=1),
                                 acceptance=AcceptanceModel(0.3, 0.1, seed=1))


class TestRoundsOfSeededRuns:
    """The oracle judges the engine's real rounds, not one-shot instances.

    It cannot see a swapped rank key in match_receivers (the receiver's own
    order ahead of the donor's position): a passed-over donor is usually
    matched later, so every round passes;
    TestAssignmentOracle::test_random_instances_all_ok[raw] catches it.
    """

    def test_every_churned_city_round_is_pareto_ok(self, churned_city_rounds):
        log = churned_city_rounds
        assert (log["rounds"], log["busy"], log["violations"]) == (432, 383, [])

    def test_every_churned_city_assignment_matches_the_reference(self, churned_city_rounds):
        assert (churned_city_rounds["carried"], churned_city_rounds["misassigned"]) == (6000, [])

    def test_no_receiver_enters_a_round_without_demand(self, churned_city_rounds):
        # a failed meal group must not requeue a receiver that its other
        # meals still cover; without that check 237.1 and 399.1 enter rounds
        assert churned_city_rounds["starved"] == []

    @pytest.mark.parametrize("sort", ["end", "start"])
    @pytest.mark.parametrize("preferences", ["eligible", "raw"])
    def test_every_desk_round_is_pareto_ok(self, sort, preferences, monkeypatch):
        log = judge_every_round(monkeypatch, desk_policy_config(seed=0), MatchPolicy(sort, preferences))
        # donors given a volunteer, counted over every round
        carried = {("end", "eligible"): 347, ("start", "eligible"): 354}.get((sort, preferences), 1923)
        assert log == {"rounds": 432, "busy": 191, "violations": [], "starved": [], "carried": carried,
                       "misassigned": []}


class TestVolunteerReference:
    """reference_assign_volunteers judges the engine's volunteer rounds where
    volunteers crowd the donors: the criterion-2 corridor at its largest
    sweep point, and a dense 4 x 4 km city whose routes are short."""

    def test_every_sweep_point_assignment_matches(self, monkeypatch):
        config = desk_volunteer_sweep_config(seed=0)
        log = judge_every_round(monkeypatch, with_volunteer_count(config, 4 * config.counts()[0]))
        assert log == {"rounds": 432, "busy": 191, "violations": [], "starved": [], "carried": 379,
                       "misassigned": []}

    def test_every_dense_city_assignment_matches(self, monkeypatch):
        log = judge_every_round(monkeypatch, ScenarioConfig(n_requests=1000, seed=3, city_width=4.0, city_height=4.0))
        assert log == {"rounds": 432, "busy": 383, "violations": [], "starved": [], "carried": 990,
                       "misassigned": []}

    def test_restricted_volunteer_waits_for_a_gated_receiver(self):
        # the restricted volunteer offers the longer reach but carries only
        # to receiver 9, gated from minute 640; receiver 50 is gated from 580
        d = DonationRequest(id=RequestId(1, 1), arrival=1, location=Location(10, 10),
                            food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(700, 800))
        receivers = [
            RequirementRequest(id=RequestId(agent, 1), arrival=arrival, location=Location(11, 10),
                               food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(start, 980))
            for agent, arrival, start in ((9, 2, 820), (50, 3, 760))
        ]

        def volunteer(agent, arrival, motored, receivers=()):
            return VolunteerRequest(id=RequestId(agent, 1), arrival=arrival, route_start=Location(9.5, 10),
                                    route_end=Location(30, 10), motored=motored, ac=False,
                                    payload_capacity=5000, window=TimeWindow(600, 800), receivers=receivers)

        restricted, plain = volunteer(90, 4, True, receivers=(9,)), volunteer(91, 5, False)
        for now, chosen, reach in ((600, plain, 5.0), (630, plain, 5.0), (640, restricted, 20.0)):
            universe = {r.id.agent_id for r in gated(receivers, now, TH)}
            donors = gated([d], now, TH)
            (match,), _ = engine.assign_volunteers(donors, [restricted, plain], Perishability.PERISHABLE, TH,
                                                   universe)
            assert (match.volunteer, match.vicinity) == (chosen.id, reach)
            assert reference_assign_volunteers(donors, [restricted, plain], Perishability.PERISHABLE, TH,
                                               universe) == [(chosen.id, reach)]
            # payload spent by the engine is returned, as ca_dtb does for an unserved donor
            chosen.remaining_payload += d.amount


def hand_market(donor_lists, receiver_amounts):
    """Donors of 700 g and receivers at one spot, every pair feasible: the
    donors' submitted lists, receivers by agent id and amount."""
    donors = [
        DonationRequest(
            id=RequestId(agent, 1), arrival=i, location=Location(5, 5), food=FoodType.PACKAGED_SOLID,
            amount=700, window=TimeWindow(700, 760), preferred_receivers=pref,
        )
        for i, (agent, pref) in enumerate(donor_lists.items(), start=1)
    ]
    receivers = [
        RequirementRequest(
            id=RequestId(agent, 1), arrival=10 + i, location=Location(5, 5), food=FoodType.PACKAGED_SOLID,
            amount=amount, window=TimeWindow(760, 800),
        )
        for i, (agent, amount) in enumerate(receiver_amounts.items())
    ]
    return Instance(donors=donors, receivers=receivers, vols=[], now=600)


def hand_matching(pairs):
    """Volunteerless 700 g matches, donor agent -> receiver agent or None."""
    return [
        Match(RequestId(d, 1), None, RequestId(r, 1) if r else None, 100.0, 700 if r else 0)
        for d, r in pairs.items()
    ]


class TestHandBuiltMatchings:
    @pytest.mark.parametrize("policy", [MatchPolicy(), MatchPolicy(preferences="raw")], ids=["eligible", "raw"])
    def test_unjustified_selection_flagged(self, policy):
        # donor 102 lists receiver 201 second, yet keeps it while donor 101,
        # which lists it first, is left out; both receivers are full
        instance = hand_market({101: (201,), 102: (202, 201), 103: (202,)}, {201: 600, 202: 600})
        instance.policy = policy
        verdict = brute_force_pareto_oracle(instance, hand_matching({101: None, 102: 201, 103: 202}))
        assert verdict.reason == "unmatched donor ranked the receiver strictly better"
        assert verdict.counterexample == {
            "receiver": "201.1", "kept_donor": "102.1", "kept_position": 2,
            "better_donor": "101.1", "better_position": 1,
            "assignment": {"103.1": "202.1", "101.1": "201.1"},
        }
        assert brute_force_pareto_oracle(instance, hand_matching({101: 201, 102: None, 103: 202})).ok

    def test_overload_beyond_final_meal_flagged(self):
        # one 700 g meal may overshoot a 600 g requirement; a second may not
        instance = hand_market({101: (), 102: ()}, {201: 600})
        verdict = brute_force_pareto_oracle(instance, hand_matching({101: 201, 102: 201}))
        assert verdict.reason == "receiver overloaded beyond a final-meal overshoot"
        assert verdict.counterexample == {"receiver": "201.1", "meals": [700, 700], "amount": 600}
        assert brute_force_pareto_oracle(instance, hand_matching({101: 201, 102: None})).ok


class TestTrueRank:
    def test_listed_partner(self):
        assert true_rank((5, 7, 9), [7]) == 2

    def test_unlisted_partner_shares_tail(self):
        assert true_rank((5, 7), [42]) == 3

    def test_unmatched_worst(self):
        assert true_rank((5, 7), []) == 4

    def test_best_of_many(self):
        assert true_rank((5, 7, 9), [9, 5]) == 1

    def test_first_listing_counts(self):
        # a partner listed twice ranks at its first entry, as list.index does
        assert true_rank((7, 3, 7), (7, 3)) == 1
        assert true_rank((3, 7, 3), (3,)) == 1


def partners_of(matches):
    return partner_index((m.donor.agent_id, m.receiver.agent_id) for m in matches if m.receiver is not None)


class TestMisreports:
    def test_no_hard_violations_on_small_instances(self):
        for seed in range(12):
            instance = random_instance(seed, max_donors=3, max_receivers=3, max_vols=1)
            report = exhaustive_misreports(instance)
            assert not report.hard_violations, f"seed {seed}: {report.hard_violations}"

    def test_cases_cover_both_sides(self):
        instance = random_instance(2, max_donors=2, max_receivers=2, max_vols=0)
        report = exhaustive_misreports(instance)
        assert report.cases > 0

    # seed offset s of sized_instance(5000 + s, 4, 4, 2, city=6.0) ->
    # (improvements, hard gains, sha256 of the hard-gain cases)
    CONTESTED = {
        6: (18, 18, "e94b221cb400d82b5287d4e3c629c8fb1bf8c03e96062fa2c33b44cc1a13f975"),
        32: (47, 30, "19c4ac1b475c499e95839a5c70d0642dec8bb987ae15834830e805ce5a2dbaae"),
        86: (12, 12, "004f35d4f78e6b30d6564d1b9d6c8294176c0cffc181ab0346a9735959c76f68"),
    }

    @pytest.mark.parametrize("offset", sorted(CONTESTED))
    def test_contested_market_donor_gains_are_pinned(self, offset):
        """On small contested markets donors gain by misreporting: the
        mechanism is not strategyproof for donors there. These are the three
        instances with hard gains among offsets 0-99; a fix of the mechanism,
        or a regression, changes the pinned figures."""
        report = exhaustive_misreports(sized_instance(5000 + offset, 4, 4, 2, city=6.0))
        hard = [
            [c.agent_id, c.role, list(c.misreport), c.truthful_rank, c.misreport_rank]
            for c in report.hard_violations
        ]
        assert {case[1] for case in hard} == {"donor"}
        digest = hashlib.sha256(json.dumps(hard).encode()).hexdigest()
        assert (len(report.improvements), len(hard), digest) == self.CONTESTED[offset]

    # shape of sized_instance(9000 + s, *shape, city=6.0) for s < 200 ->
    # (misreports, hard gains, instances with a hard gain, sha256 of the
    # hard-gain cases)
    ESCAPES = {
        (8, 8, 4): (1054, 36, 16, "59aa508b41b29f516aa259d22558fbb90fc98012976e286b60c398d562626599"),
        (4, 4, 2): (264, 6, 3, "443e1e1a1ad995578d88cd99e4d819827cfd516a8bd36bf4b20af4ff46f67b38"),
    }

    @pytest.mark.parametrize("shape", sorted(ESCAPES), ids=lambda shape: "/".join(map(str, shape)))
    def test_escape_sweep_donor_gains_are_pinned(self, shape):
        """Each donor matched below its first listed choice reruns once with
        that partner dropped from its list and once with it demoted to last.
        On contested markets some of these escapes win the donor a better
        partner by its true list; a fix of the mechanism, or a regression,
        changes the pinned figures."""
        misreports, hard, instances = 0, [], 0
        for s in range(200):
            instance = sized_instance(9000 + s, *shape, city=6.0)
            truthful = partners_of(run_instance(instance)[0])
            gained = len(hard)
            for donor in instance.donors:
                agent, listed = donor.id.agent_id, donor.preferred_receivers
                partners = truthful.get((agent, "donor"), [])
                rank = true_rank(listed, partners)
                if not 1 < rank <= len(listed):
                    continue
                partner = listed[rank - 1]
                dropped = tuple(a for a in listed if a != partner)
                reports = [dropped]
                if listed[-1] != partner:  # demoting the last entry changes nothing
                    reports.append(dropped + (partner,))
                for report in reports:
                    variant = replace(instance, donors=[
                        replace(d, preferred_receivers=report) if d is donor else d for d in instance.donors
                    ])
                    matches, trace = run_instance(variant)
                    case = score_misreport(agent, "donor", report, listed, partners,
                                           partners_of(matches).get((agent, "donor"), []), trace.get(agent, ()))
                    misreports += 1
                    if case.gain > 0 and not case.exception:
                        hard.append([s, agent, list(report), case.truthful_rank, case.misreport_rank])
            instances += len(hard) > gained
        digest = hashlib.sha256(json.dumps(hard).encode()).hexdigest()
        assert (misreports, len(hard), instances, digest) == self.ESCAPES[shape]

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="known strategyproofness defect: donor 104 (true list 204, 203, 201, 202) "
        "moves from true rank 2 to 1 by reporting (202, 204); 18 hard gains in all",
    )
    def test_known_hard_gain_on_sized_instance(self):
        report = exhaustive_misreports(sized_instance(194878866301001, 4, 4, 2))
        assert not report.hard_violations, f"{len(report.hard_violations)} hard gains: {report.hard_violations[0]}"
