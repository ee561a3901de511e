"""Cross-module invariants: requeue/rematch cycles, payload bounds,
orchestrated iteration ordering, and output emission edge cases."""

import csv

from foodmatch.engine import MatchingEngine
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
from foodmatch.output import render_line_chart, write_csv
from foodmatch.pool import ActivePool, submit_request
from foodmatch.scenario import ScenarioConfig, generate_scenario
from foodmatch.simulate import AcceptanceModel, run_simulation

TH = Thresholds()


def compatible_triple():
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
    return donor, receiver, volunteer


class TestRequeueRematch:
    def test_rejected_triple_rematches_next_iteration(self):
        donor, receiver, volunteer = compatible_triple()
        pool = ActivePool()
        for request in (donor, receiver, volunteer):
            submit_request(request, pool, TH)
        engine = MatchingEngine(pool, TH)

        first = engine.iterate(660)
        assert len(first) == 1
        engine.apply_decisions([(first[0], False)])
        assert first[0].status is MatchStatus.REJECTED
        assert receiver.remaining_amount == 1000
        assert volunteer.remaining_payload == 5000

        second = engine.iterate(665)
        assert len(second) == 1
        match = second[0].matches[0]
        assert match.donor == donor.id and match.receiver == receiver.id
        engine.apply_decisions([(second[0], True)])
        assert second[0].status is MatchStatus.ACCEPTED

    def test_rejected_meal_of_a_carried_receiver_is_not_queued_again(self):
        donor, _, volunteer = compatible_triple()
        receiver = RequirementRequest(
            id=RequestId(2, 1), arrival=-1, location=Location(20, 10.5),
            food=FoodType.FRESHLY_COOKED, amount=3000, window=TimeWindow(820, 980),
        )
        pool = ActivePool()
        for request in (donor, receiver, volunteer):
            submit_request(request, pool, TH)
        engine = MatchingEngine(pool, TH)

        (group,) = engine.iterate(660)
        assert engine.carry.pfr == [receiver]  # partly served, still carried
        engine.apply_decisions([(group, False)])
        assert receiver.remaining_amount == 3000
        assert pool.queued_ids() == {donor.id, volunteer.id}

        engine.iterate(665)
        assert [r.id for r in engine.carry.pfr] == [receiver.id]

    def test_expired_triple_rematches_after_deadline(self):
        donor, receiver, volunteer = compatible_triple()
        # keep the donation gate open past the expiry deadline
        donor.window = TimeWindow(700, 900)
        pool = ActivePool()
        for request in (donor, receiver, volunteer):
            submit_request(request, pool, TH)
        engine = MatchingEngine(pool, TH)

        first = engine.iterate(660)
        assert len(first) == 1  # nobody responds
        displays = []
        for now in range(665, 700, 5):
            displays.extend(engine.iterate(now))
        assert first[0].status is MatchStatus.EXPIRED
        assert any(g.matches[0].receiver == receiver.id for g in displays)


class TestPayloadInvariant:
    def test_assigned_payload_never_exceeds_capacity(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=300, seed=17))
        report = run_simulation(scenario, acceptance=AcceptanceModel(rejection_probability=0.1, seed=17))
        by_volunteer: dict[str, int] = {}
        for g in report.accepted_groups:
            if g["volunteer_agent"] != "":
                key = g["volunteer_agent"]
                by_volunteer[key] = by_volunteer.get(key, 0) + g["grams"]
        capacities = {
            t.request.id.agent_id: t.request.payload_capacity
            for t in scenario.requests
            if isinstance(t.request, VolunteerRequest)
        }
        assert by_volunteer
        for agent, grams in by_volunteer.items():
            assert grams <= capacities[agent]


class TestOutput:
    def test_empty_chart_and_header_only_csv(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        write_csv(csv_path, ("a", "b"), [])
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"]]
        svg = render_line_chart([("nothing", [])], "empty", "x", "y")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_csv_is_rfc4180_quoted(self, tmp_path):
        path = tmp_path / "q.csv"
        write_csv(path, ("name",), [('a,"b"',)])
        raw = path.read_bytes()
        assert b'"a,""b"""' in raw
        assert raw.count(b"\r\n") == 2
