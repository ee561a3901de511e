"""Matching engine: gating, volunteer assignment, preference machinery, and
the documented worked examples (priority extraction, best-match selection,
the two-receiver end-sort case)."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from foodmatch import engine
from foodmatch.engine import (
    ClassifiedLists,
    MatchingEngine,
    MatchPolicy,
    assign_volunteers,
    ca_dtb,
    club_matches,
    collapse_ranks,
    expire_stale_matches,
    gated,
    match_receivers,
    trifurcate,
    vicinity_candidate,
    volunteer_is_eligible,
)
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    Match,
    MatchStatus,
    Perishability,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from foodmatch.oracles import Instance, run_instance
from foodmatch.pool import ActivePool, requeue_rejected, submit_request

TH = Thresholds()
P = Perishability.PERISHABLE
NP = Perishability.NON_PERISHABLE

_arrivals = itertools.count(1)


def donor(agent, window=(700, 800), amount=1000, loc=(10, 10), food=FoodType.FRESHLY_COOKED,
          prefs=(), meal=0, arrival=None):
    return DonationRequest(
        id=RequestId(agent, 1, meal), arrival=arrival if arrival is not None else next(_arrivals),
        location=Location(*loc), food=food, amount=amount,
        window=TimeWindow(*window), preferred_receivers=tuple(prefs),
    )


def receiver(agent, window=(820, 980), amount=1000, loc=(11, 10), food=FoodType.FRESHLY_COOKED,
             prefs=(), arrival=None):
    return RequirementRequest(
        id=RequestId(agent, 1), arrival=arrival if arrival is not None else next(_arrivals),
        location=Location(*loc), food=food, amount=amount,
        window=TimeWindow(*window), preferred_donors=tuple(prefs),
    )


def vol(agent, route=((9.5, 10), (30, 10)), window=(600, 800), payload=5000,
        motored=True, ac=False, receivers=(), arrival=None):
    return VolunteerRequest(
        id=RequestId(agent, 1), arrival=arrival if arrival is not None else next(_arrivals),
        route_start=Location(*route[0]), route_end=Location(*route[1]),
        motored=motored, ac=ac, payload_capacity=payload,
        window=TimeWindow(*window), receivers=tuple(receivers),
    )


class TestMatchPolicy:
    @pytest.mark.parametrize("mode", [{"receiver_sort": "middle"}, {"preferences": "none"}])
    def test_unknown_mode_refused(self, mode):
        with pytest.raises(ValueError, match="must be one of"):
            MatchPolicy(**mode)


class TestGating:
    def test_donor_gate(self):
        d = donor(1, window=(600, 720))
        assert gated([d], 480, TH.t_d) == [d]
        assert gated([d], 479, TH.t_d) == []
        assert gated([d], 600, TH.t_d) == [d]
        assert gated([d], 601, TH.t_d) == []

    def test_receiver_gate(self):
        r = receiver(50, window=(900, 1020))
        assert gated([r], 720, TH.t_r) == [r]
        assert gated([r], 719, TH.t_r) == []

    def test_degenerate_receiver_window(self):
        r = receiver(50, window=(900, 900))
        assert gated([r], 720, TH.t_r) == [r]
        assert gated([r], 721, TH.t_r) == []
        assert gated([r], 719, TH.t_r) == []

    def test_each_market_list_retires_at_its_own_lead(self):
        # a volunteer has no lead, a donor t_d = 120 and a receiver t_r = 180;
        # each role has one carried request and one new one
        carry = trifurcate([vol(90, window=(600, 800)), donor(1, window=(600, 700)),
                            receiver(50, window=(820, 900))], ClassifiedLists(), 0, TH)
        snapshot = [vol(91, window=(600, 800)), donor(2, window=(600, 700)), receiver(51, window=(820, 900))]

        def kept(now):
            out = trifurcate(snapshot, carry, now, TH)
            return [sorted(r.id.agent_id for r in lst) for lst in (out.v, out.pfd, out.pfr)]

        assert kept(580) == [[90, 91], [1, 2], [50, 51]]
        assert kept(581) == [[90, 91], [], [50, 51]]
        assert kept(720) == [[90, 91], [], [50, 51]]
        assert kept(721) == [[90, 91], [], []]
        assert kept(800) == [[90, 91], [], []]
        assert kept(801) == [[], [], []]


class TestVolunteerEligibility:
    def test_payload_margin_boundary(self):
        d = donor(1, amount=1000)
        ok = vol(90, payload=1200)
        short = vol(91, payload=1199)
        assert volunteer_is_eligible(d, ok, TH, set())
        assert not volunteer_is_eligible(d, short, TH, set())

    def test_overlap_below_threshold_excluded(self):
        d = donor(1, window=(700, 800))
        v = vol(90, window=(500, 714))  # overlap 14 < 15
        assert not volunteer_is_eligible(d, v, TH, set())
        v2 = vol(91, window=(500, 715))  # overlap exactly 15
        assert volunteer_is_eligible(d, v2, TH, set())

    def test_pickup_radius(self):
        d = donor(1, loc=(9.5 + 1.026, 10))  # just past 5% of 20.5 km
        v = vol(90)
        assert not volunteer_is_eligible(d, v, TH, set())

    def test_restricted_volunteer_needs_universe_overlap(self):
        d = donor(1)
        v = vol(90, receivers=(9,))
        assert not volunteer_is_eligible(d, v, TH, receiver_universe={50, 51})
        assert volunteer_is_eligible(d, v, TH, receiver_universe={9, 50})
        # an unrestricted volunteer needs no gated receiver at all
        assert volunteer_is_eligible(d, vol(91), TH, set())


class TestVicinityCandidate:
    def test_perishable_ac_uses_destination(self):
        d = donor(1, loc=(10, 10))
        v = vol(90, route=((9.5, 10), (22.3, 10)), ac=True)
        assert vicinity_candidate(d, v, P, TH) == pytest.approx(12.3)

    def test_perishable_motored(self):
        assert vicinity_candidate(donor(1), vol(90, motored=True), P, TH) == 20.0

    def test_perishable_non_motored(self):
        assert vicinity_candidate(donor(1), vol(90, motored=False), P, TH) == 5.0

    def test_non_perishable_ignores_transport(self):
        d = donor(1, loc=(10, 10), food=FoodType.PACKAGED_SOLID)
        v = vol(90, route=((9.5, 10), (13, 10)), motored=False, ac=False)
        assert vicinity_candidate(d, v, NP, TH) == pytest.approx(3.0)


def x_sorted(vols):
    """Volunteers in route start x order, the order the engine keeps them in."""
    return sorted(vols, key=lambda v: v.route_start.x)


def assign(donors, vols):
    """assign_volunteers for one perishable round at minute 0 with no gated
    receivers."""
    return assign_volunteers(donors, x_sorted(vols), P, TH, set())


class TestAssignVolunteers:
    def test_maximizer_wins(self):
        d = donor(1, loc=(10, 10))
        strong = vol(90, motored=True)                       # candidate 20
        weak = vol(91, route=((9.5, 10), (22.3, 10)), ac=True)  # candidate 12.3
        (match,), (chosen,) = assign([d], [weak, strong])
        assert match.volunteer == strong.id and chosen is strong
        assert match.vicinity == 20.0

    def test_no_volunteer_falls_back_to_floor(self):
        d = donor(1)
        (match,), (chosen,) = assign([d], [])
        assert match.volunteer is None and chosen is None
        assert match.vicinity == 5.0

    def test_sticky_volunteer_until_payload_exhausted(self):
        meals = [donor(1, amount=1000, meal=k) for k in (1, 2, 3)]
        v = vol(90, payload=2400)
        matches, volunteers = assign(meals, [v])
        assert [m.donor for m in matches] == [m.id for m in meals]
        assert [m.volunteer for m in matches] == [v.id, v.id, None]
        assert volunteers == [v, v, None]
        assert v.remaining_payload == 400

    def test_equal_candidates_earliest_arrival_wins(self):
        d = donor(1)
        first = vol(90, motored=True)
        second = vol(91, motored=True)
        (match,), _ = assign([d], [first, second])
        assert match.volunteer == first.id

    def test_equal_reaches_go_to_the_earliest_arrival_not_the_first_found(self):
        # trifurcate lists volunteers by route start x, so the later arrival,
        # whose start has the smaller x, comes first
        d = donor(1, loc=(11, 11))
        earlier = vol(90, route=((11.5, 11.5), (51.5, 11.5)), arrival=1)
        later = vol(91, route=((9.9, 9.9), (49.9, 9.9)), arrival=2)
        vols = trifurcate([earlier, later], ClassifiedLists(), 0, TH).v
        assert vols == [later, earlier]
        assert vicinity_candidate(d, earlier, P, TH) == vicinity_candidate(d, later, P, TH) == 20.0
        (match,), _ = assign_volunteers([d], vols, P, TH, set())
        assert match.volunteer == earlier.id

    def test_vicinity_floored_at_transport_default(self):
        d = donor(1, loc=(10, 10))
        near_dest = vol(90, route=((9.9, 10), (12, 10)), ac=True, motored=True)  # candidate 2.0
        (match,), _ = assign([d], [near_dest])
        assert match.volunteer == near_dest.id
        assert match.vicinity == 20.0  # floored to motored perishable reach


def _index_probe(rng):
    """A seeded volunteer set at a scale from 1 m to 1,000 km, an allowance
    percentage t_l from 0.1 to 40, and the donor points to probe: random
    ones, plus each volunteer's own allowance along each axis and diagonal,
    scaled by 1 and by 1 +- 1e-15."""
    scale = 10 ** rng.uniform(-3, 3)
    t_l = rng.uniform(0.1, 40)
    vols = []
    for agent in range(rng.randint(1, 12)):
        start = (rng.uniform(0, scale), rng.uniform(0, scale))
        end = start if rng.random() < 0.15 else (rng.uniform(0, scale), rng.uniform(0, scale))
        vols.append(vol(agent, route=(start, end)))
    points = [Location(rng.uniform(0, scale), rng.uniform(0, scale)) for _ in range(8)]
    unit = 0.5 ** 0.5
    directions = [(1, 0), (-1, 0), (0, 1), (0, -1),
                  (unit, unit), (unit, -unit), (-unit, unit), (-unit, -unit)]
    for v in vols:
        allowance = engine.off_route_allowance(v.route_start, v.route_end, t_l)
        for (ux, uy), factor in itertools.product(directions, (1.0, 1 - 1e-15, 1 + 1e-15)):
            step = allowance * factor
            points.append(Location(v.route_start.x + step * ux, v.route_start.y + step * uy))
    return vols, t_l, points


class TestVolunteerSquare:
    def test_square_never_drops_a_volunteer_within_pickup_radius(self, monkeypatch):
        # one donor per call, so neither taken nor a sticky volunteer filters
        # anything: every volunteer tested for eligibility is one the square
        # around the donor handed over
        found = set()
        real = engine.volunteer_is_eligible
        monkeypatch.setattr(engine, "volunteer_is_eligible",
                            lambda d, v, *rest: found.add(v.id) or real(d, v, *rest))
        for seed in range(400):
            vols, t_l, points = _index_probe(random.Random(seed))
            vols = x_sorted(vols)
            thresholds = Thresholds(t_l=t_l)
            for loc in points:
                found.clear()
                assign_volunteers([donor(1, loc=(loc.x, loc.y))], vols, P, thresholds, set())
                missed = [v.id for v in vols if v.id not in found
                          and engine.within_pickup_radius(loc, v.route_start, v.route_end, t_l)]
                assert not missed, (seed, loc, missed)


def round_of(donors, receivers, vols=(), now=660):
    """(donor agent, receiver agent) of every match one class round
    completes, and the reach of each gated donor's provisional match."""
    result = ca_dtb(donors, receivers, x_sorted(vols), P, now, TH)
    served = [(m.donor.agent_id, m.receiver.agent_id) for m in result.completed()]
    return served, [m.vicinity for m in result.matches]


def served_pairs(donors, receivers, vols=(), now=660):
    return round_of(donors, receivers, vols, now)[0]


class TestEligibleDonors:
    def test_end_before_end(self):
        r = receiver(50, window=(820, 980), amount=2000)
        early = donor(1, window=(700, 800))
        late = donor(2, window=(700, 981))
        assert served_pairs([early, late], [r]) == [(1, 50)]

    def test_boundary_equal_ends(self):
        r = receiver(50, window=(820, 980))
        d = donor(1, window=(700, 980))
        assert served_pairs([d], [r]) == [(1, 50)]

    def test_class_separation(self):
        r = receiver(50, food=FoodType.PACKAGED_SOLID, window=(820, 980))
        d = donor(1, food=FoodType.FRESHLY_COOKED, window=(700, 800))
        matches, _ = run_instance(Instance(donors=[d], receivers=[r], vols=[], now=660))
        assert [m for m in matches if m.receiver is not None] == []


class TestDonorNeighbourhood:
    def test_vicinity_and_band(self):
        # both excluded receivers end first, so either would be served first
        d = donor(1, loc=(10, 10))
        inside = receiver(50, loc=(18, 10.5))
        off_band = receiver(51, loc=(18, 12.5), window=(820, 970))
        beyond_reach = receiver(52, loc=(30.5, 10), window=(820, 960))  # 20.5 km, on the band
        assert round_of([d], [inside, off_band, beyond_reach], [vol(90)]) == ([(1, 50)], [20.0])

    def test_volunteerless_skips_band(self):
        d = donor(1, loc=(10, 10))
        edge = receiver(50, loc=(10, 14.9))
        assert round_of([d], [edge]) == ([(1, 50)], [5.0])

    def test_restricted_receiver_list_enforced(self):
        # 50 ends first but is off the volunteer's list; 99 is on it
        d = donor(1, loc=(10, 10))
        r = receiver(50, loc=(18, 10.5))
        listed = receiver(99, loc=(20, 10.5), window=(820, 990))
        v = vol(90, receivers=(99,))
        assert round_of([d], [r, listed], [v]) == ([(1, 99)], [20.0])


def collapsed_entries(preferred, eligible):
    """(agent, rank) of each eligible request, ordered by (rank, arrival), and
    the tail rank."""
    ranks, tail = collapse_ranks(preferred, {e.id.agent_id for e in eligible})
    ordered = sorted(eligible, key=lambda e: (ranks.get(e.id.agent_id, tail), e.arrival))
    return [(e.id.agent_id, ranks.get(e.id.agent_id, tail)) for e in ordered], tail


class TestExtractAugment:
    def test_priority_extraction_and_augmentation(self):
        # original q > t > p over eligible {p, q, r, s} collapses to
        # q > p > (r = s), with the tail ordered by arrival
        d_p = donor(101, arrival=11)
        d_q = donor(102, arrival=12)
        d_r = donor(103, arrival=13)
        d_s = donor(104, arrival=14)
        entries, tail = collapsed_entries([102, 100, 101], [d_p, d_q, d_r, d_s])
        assert entries == [(102, 1), (101, 2), (103, 3), (104, 3)]
        assert tail == 3
        assert collapse_ranks([102, 100, 101], {101, 102, 103, 104}) == ({102: 1, 101: 2}, 3)

    def test_empty_original_all_equal_by_arrival(self):
        a = donor(1, arrival=5)
        b = donor(2, arrival=3)
        entries, tail = collapsed_entries([], [a, b])
        assert entries == [(2, 1), (1, 1)]
        assert tail == 1

    def test_no_eligible_gives_empty(self):
        entries, tail = collapsed_entries([7], [])
        # nothing listed is eligible, so the tail is the first rank
        assert entries == [] and tail == 1


def _table5_market(now=580):
    """Four donors, the tracked receiver, and five filler receivers shaped so
    every submitted list entry is eligible (positions 5, 2, 2, 4)."""
    donors = [
        donor(101, window=(700, 720), food=FoodType.PACKAGED_SOLID, loc=(10, 10),
              prefs=(201, 202, 203, 204, 206)),
        donor(102, window=(700, 720), food=FoodType.PACKAGED_SOLID, loc=(11, 10),
              prefs=(201, 206, 203, 204, 205)),
        donor(103, window=(700, 720), food=FoodType.PACKAGED_SOLID, loc=(12, 10),
              prefs=(201, 206, 203, 204, 205)),
        donor(104, window=(700, 720), food=FoodType.PACKAGED_SOLID, loc=(13, 10),
              prefs=(201, 202, 203, 206, 205)),
    ]
    tracked = receiver(206, window=(760, 800), food=FoodType.PACKAGED_SOLID,
                       loc=(15, 15), prefs=(102, 100, 101))
    fillers = [
        receiver(agent, window=(760, 900 + agent), food=FoodType.PACKAGED_SOLID, loc=(16, 15))
        for agent in (201, 202, 203, 204, 205)
    ]
    return donors, [tracked] + fillers, tracked, now


class TestBestMatchSelection:
    def test_min_position_with_receiver_preference_tie_break(self):
        donors, receivers, tracked, now = _table5_market()
        result = ca_dtb(donors, receivers, [], NP, now, TH)
        match = next(m for m in result.matches if m.receiver == tracked.id)
        assert match.donor.agent_id == 102  # positions: 101->5, 102->2, 103->2, 104->4

    def test_corrupted_selection_would_differ(self):
        # sanity: the runner-up at position 2 is donor 103, not 101/104
        donors, receivers, tracked, now = _table5_market()
        without_winner = [d for d in donors if d.id.agent_id != 102]
        result = ca_dtb(without_winner, receivers, [], NP, now, TH)
        match = next(m for m in result.matches if m.receiver == tracked.id)
        assert match.donor.agent_id == 103


class TestEndTimeSorting:
    def _market(self):
        meals = [
            donor(1, window=(700, 860), amount=1000, loc=(10, 10), meal=1),
            donor(1, window=(700, 860), amount=1000, loc=(10, 10), meal=2),
        ]
        r1 = receiver(201, window=(820, 1000), amount=1000, loc=(11, 10))
        r2 = receiver(202, window=(860, 880), amount=1000, loc=(11, 10))
        return meals, r1, r2

    def test_end_sort_serves_short_deadline_first(self):
        meals, r1, r2 = self._market()
        receivers = [r1, r2]
        result = ca_dtb(meals, receivers, [], P, 690, TH, policy=MatchPolicy(receiver_sort="end"))
        by_meal = {m.donor.meal_seq: m.receiver for m in result.matches}
        assert by_meal[1] == r2.id  # earliest end served first, takes the first meal
        assert by_meal[2] == r1.id
        assert receivers == []  # both fully served

    def test_start_sort_serves_early_start_first(self):
        meals, r1, r2 = self._market()
        result = ca_dtb(meals, [r1, r2], [], P, 690, TH, policy=MatchPolicy(receiver_sort="start"))
        by_meal = {m.donor.meal_seq: m.receiver for m in result.matches}
        assert by_meal[1] == r1.id


class TestPairTable:
    def test_each_pair_tested_once(self, monkeypatch):
        donors = [donor(1 + i) for i in range(3)]
        r = receiver(50, amount=2500)
        matches, volunteers = assign(donors, [])
        calls = []
        real = engine.distance
        monkeypatch.setattr(engine, "distance", lambda a, b: calls.append((a, b)) or real(a, b))
        match_receivers([r], donors, matches, volunteers, TH)
        assert len(calls) == 3
        assert [m.receiver for m in matches] == [r.id] * 3
        assert r.remaining_amount == -500


class TestCaDtb:
    def test_round_with_no_gated_donor_changes_nothing(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(engine, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        for name in ("assign_volunteers", "match_receivers"):
            monkeypatch.setattr(engine, name, spy(name))
        # at minute 660 a donor's gate is open while 780 lies in its window:
        # one opens later, one has closed; both receivers are gated
        donors = [donor(1, window=(800, 900)), donor(2, window=(500, 520))]
        receivers = [receiver(50), receiver(51, loc=(12, 10))]
        vols = x_sorted([vol(90), vol(91, route=((12, 10), (30, 10)))])
        markets = (donors, receivers, vols)
        before = [[id(request) for request in market] for market in markets]
        trace: dict[int, set[int]] = {}
        result = ca_dtb(donors, receivers, vols, P, 660, TH, trace=trace)
        assert result.matches == []
        assert [[id(request) for request in market] for market in markets] == before
        assert [v.remaining_payload for v in vols] == [v.payload_capacity for v in vols]
        assert trace == {}
        assert calls == []

    def test_no_receivers_all_pending_and_rolled_back(self):
        d = donor(1)
        v = vol(90)
        donors, vols = [d], [v]
        result = ca_dtb(donors, [], vols, P, 660, TH)
        assert [m.receiver for m in result.matches] == [None]
        assert donors == [d]
        assert vols == [v]
        assert v.remaining_payload == v.payload_capacity  # reservation rolled back

    def test_sticky_volunteer_keeps_only_the_served_meal(self):
        meals = [donor(1, meal=k) for k in (1, 2)]
        r = receiver(50, amount=1000)
        v = vol(90, payload=5000)
        donors, vols = list(meals), [v]
        result = ca_dtb(donors, [r], vols, P, 660, TH)
        assert [m.volunteer for m in result.matches] == [v.id, v.id]
        assert [m.donor for m in result.completed()] == [meals[0].id]
        assert donors == [meals[1]]
        # the unserved meal's 1000 g came back; the served meal's stays reserved
        assert v.remaining_payload == 4000
        assert vols == []

    def test_partly_covered_receiver_stays(self):
        d = donor(1, amount=1000, loc=(10, 10))
        r = receiver(50, amount=2500, loc=(11, 10))
        donors, receivers = [d], [r]
        ca_dtb(donors, receivers, [], P, 660, TH)
        assert donors == [] and receivers == [r]
        assert r.remaining_amount == 1500

    def test_no_volunteers_floor_vicinity_matches(self):
        d = donor(1, loc=(10, 10))
        r = receiver(50, loc=(11, 10))
        result = ca_dtb([d], [r], [], P, 660, TH)
        completed = result.completed()
        assert len(completed) == 1
        assert completed[0].volunteer is None
        assert completed[0].vicinity == 5.0

    def test_full_triple(self):
        d = donor(1, loc=(10, 10))
        r = receiver(50, loc=(20, 10.5))
        v = vol(90)
        donors, receivers, vols = [d], [r], [v]
        result = ca_dtb(donors, receivers, vols, P, 660, TH)
        completed = result.completed()
        assert len(completed) == 1
        match = completed[0]
        assert match.volunteer == v.id and match.receiver == r.id
        assert match.delivered_amount == 1000
        assert donors == [] and receivers == [] and vols == []

    def test_receiver_out_of_perishable_reach_unmatched(self):
        d = donor(1, loc=(10, 10))
        r = receiver(50, loc=(20, 10))  # 10 km > 5 km floor, no volunteers
        donors, receivers = [d], [r]
        result = ca_dtb(donors, receivers, [], P, 660, TH)
        assert result.completed() == []
        assert donors == [d] and receivers == [r]

    def test_overshooting_final_meal_accepted(self):
        d = donor(1, amount=1500, loc=(10, 10))
        r = receiver(50, amount=500, loc=(11, 10))
        receivers = [r]
        result = ca_dtb([d], receivers, [], P, 660, TH)
        assert len(result.completed()) == 1
        assert r.remaining_amount == -1000
        assert receivers == []

    def test_determinism(self):
        def build():
            _arr = itertools.count(1)
            donors = [
                DonationRequest(
                    id=RequestId(a, 1), arrival=next(_arr), location=Location(10 + a, 10),
                    food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(700, 800),
                )
                for a in (1, 2, 3)
            ]
            receivers = [
                RequirementRequest(
                    id=RequestId(a, 1), arrival=next(_arr), location=Location(11 + a % 3, 10),
                    food=FoodType.FRESHLY_COOKED, amount=1200, window=TimeWindow(820, 980 + a),
                )
                for a in (50, 51)
            ]
            vols = x_sorted([vol(90, arrival=100), vol(91, arrival=101)])
            return donors, receivers, vols

        outputs = []
        for _ in range(2):
            donors, receivers, vols = build()
            result = ca_dtb(donors, receivers, vols, P, 660, TH)
            outputs.append([(str(m.donor), str(m.volunteer), str(m.receiver)) for m in result.matches])
        assert outputs[0] == outputs[1]


def tied_donor(agent, start, arrival):
    """A donor that every receiver in these tests ranks, and is ranked by,
    at the shared tail: only event time and arrival tell two apart."""
    return donor(agent, window=(start, 800), arrival=arrival)


class TestTieBreak:
    def _winner(self, donors):
        r = receiver(50, amount=1000)
        result = ca_dtb(donors, [r], [], P, 660, TH)
        (match,) = result.completed()
        return match.donor.agent_id

    def test_earlier_event_time_first(self):
        # the later-starting donor arrived first and still loses
        assert self._winner([tied_donor(1, 690, arrival=1), tied_donor(2, 680, arrival=2)]) == 2

    def test_equal_event_time_earlier_arrival_first(self):
        assert self._winner([tied_donor(1, 690, arrival=7), tied_donor(2, 690, arrival=3)]) == 2
        assert self._winner([tied_donor(1, 690, arrival=3), tied_donor(2, 690, arrival=7)]) == 1

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 10 ** 6)), min_size=2, max_size=8,
                    unique_by=lambda t: t[1]))
    def test_winner_has_least_event_time_then_arrival(self, keys):
        donors = [tied_donor(agent, 650 + offset, arrival) for agent, (offset, arrival) in enumerate(keys, 1)]
        expected = min(donors, key=lambda d: (d.event_time, d.arrival))
        assert self._winner(donors) == expected.id.agent_id


class TestClubbing:
    def _match(self, donor_agent, meal, volunteer, recv):
        return Match(
            donor=RequestId(donor_agent, 1, meal), volunteer=volunteer,
            receiver=recv, vicinity=5.0, delivered_amount=1000,
        )

    def test_same_triple_clubbed(self):
        v, r = RequestId(90, 1), RequestId(50, 1)
        groups = club_matches([self._match(1, i, v, r) for i in (1, 2, 3)])
        assert len(groups) == 1 and len(groups[0]) == 3

    def test_different_receivers_not_clubbed(self):
        v = RequestId(90, 1)
        groups = club_matches([
            self._match(1, 1, v, RequestId(50, 1)),
            self._match(1, 2, v, RequestId(51, 1)),
        ])
        assert len(groups) == 2

    def test_single_match_identity(self):
        groups = club_matches([self._match(1, 0, None, RequestId(50, 1))])
        assert len(groups) == 1 and len(groups[0]) == 1


class TestClassRounds:
    def _volunteers_by_class(self, perishable_pair):
        """The volunteer of each class's displayed group at minute 660: a
        non-perishable pair the volunteer can carry, and optionally a
        perishable pair that needs it to reach 10 km."""
        requests = [donor(2, food=FoodType.PACKAGED_SOLID),
                    receiver(51, loc=(20, 10.5), food=FoodType.PACKAGED_SOLID), vol(90, payload=10_000)]
        if perishable_pair:
            requests += [donor(1), receiver(50, loc=(20, 10.5))]
        pool = ActivePool()
        for request in requests:
            submit_request(request, pool, TH)
        return {group.food: group.volunteer for group in MatchingEngine(pool, TH).iterate(660)}

    def test_committed_volunteer_leaves_before_the_non_perishable_round(self):
        # alone, the non-perishable donor gets the volunteer; once the
        # perishable round has committed it, with payload to spare, the
        # non-perishable round no longer offers it
        assert self._volunteers_by_class(False) == {NP: RequestId(90, 1)}
        assert self._volunteers_by_class(True) == {P: RequestId(90, 1), NP: None}


class TestLateVolunteer:
    def test_volunteer_submitted_after_the_donors_first_gated_round(self):
        # generated cities submit every volunteer at the working start, so
        # only a direct test brings one to a donor gated in earlier rounds
        d = donor(1, amount=900, window=(720, 900))
        r = receiver(50, amount=900, loc=(22, 10), window=(780, 1000))
        pool = ActivePool()
        for request in (d, r):
            submit_request(request, pool, TH)
        eng = MatchingEngine(pool, TH)
        for now in (600, 605):
            assert gated([d], now, TH.t_d) == [d] and gated([r], now, TH.t_r) == [r]
            # 12 km is past the 5 km non-motored reach
            assert eng.iterate(now) == []
        submit_request(vol(90, route=((10.2, 10), (22.1, 10)), window=(600, 1000), payload=20_000), pool, TH)
        (group,) = eng.iterate(610)
        assert (group.donor_agent, group.volunteer, group.receiver) == (1, RequestId(90, 1), RequestId(50, 1))


def displayed_group(meals=1):
    """An engine and the one group it displays at minute 660 for a donor of
    `meals` 1000 g meals, a receiver wanting all of them and a volunteer."""
    pool = ActivePool()
    for request in (donor(1, amount=1000 * meals), receiver(50, amount=1000 * meals), vol(90)):
        submit_request(request, pool, TH)
    eng = MatchingEngine(pool, TH)
    (group,) = eng.iterate(660)
    assert group.status is MatchStatus.DISPLAYED and len(group.matches) == meals
    return eng, group


class TestGroupLifecycle:
    def test_boundary_instant_still_displayed(self):
        eng, group = displayed_group()
        assert expire_stale_matches([group], now=660 + TH.t_w, thresholds=TH) == []
        assert group.status is MatchStatus.DISPLAYED
        eng.iterate(660 + TH.t_w)
        assert eng.open_groups == [group]

    def test_expiry_returns_the_groups_matches(self):
        _, group = displayed_group(meals=2)
        expired = expire_stale_matches([group], now=661 + TH.t_w, thresholds=TH)
        assert expired == group.matches
        assert group.status is MatchStatus.EXPIRED

    def test_accepted_group_never_expires(self):
        eng, group = displayed_group()
        eng.apply_decisions([(group, True)])
        assert expire_stale_matches([group], now=10 ** 6, thresholds=TH) == []
        assert group.status is MatchStatus.ACCEPTED

    def test_second_requeue_of_a_match_raises(self):
        eng, group = displayed_group()
        eng.apply_decisions([(group, False)])
        assert group.matches[0].requeued
        with pytest.raises(ValueError, match="illegal requeue"):
            requeue_rejected(group.matches[0], eng.pool)

    @pytest.mark.parametrize("first", [True, False])
    def test_second_decision_on_a_settled_group_ignored(self, first):
        eng, group = displayed_group()
        eng.apply_decisions([(group, first)])
        queued = eng.pool.queued_ids()
        eng.apply_decisions([(group, not first), (group, first)])
        assert group.status is (MatchStatus.ACCEPTED if first else MatchStatus.REJECTED)
        assert eng.pool.queued_ids() == queued

    def test_requeue_of_a_displayed_group_raises(self):
        eng, group = displayed_group()
        with pytest.raises(ValueError, match="illegal requeue"):
            eng._requeue([group])
        assert not group.matches[0].requeued
        assert eng.pool.queued_ids() == set()
