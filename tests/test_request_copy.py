"""Per-run copies of requests: copy.deepcopy copies only the request shell.

Runs and oracle probes deep-copy their requests before mutating run-time
state. A request's copy is a new object whose slots are bound to the
original's field values; that is safe only while every field value is
immutable and runs only rebind the run-time fields, which these tests pin
down. The request and match records are slotted, so none of them carries a
per-instance ``__dict__``.
"""

import copy
import json
from dataclasses import fields

import pytest

from foodmatch.experiments import desk_policy_config, desk_volunteer_sweep_config
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    Match,
    RequestId,
    RequirementRequest,
    TimeWindow,
    VolunteerRequest,
)
from foodmatch.oracles import random_instance, sized_instance
from foodmatch.scenario import ScenarioConfig, TimedRequest, generate_scenario, scenario_from_dict, scenario_to_json
from foodmatch.simulate import AcceptanceModel, run_simulation

RUN_TIME_FIELDS = {"arrival", "remaining_amount", "remaining_payload"}


def one_of_each():
    donor = DonationRequest(
        id=RequestId(1, 1), arrival=4, location=Location(1.5, 2.5), food=FoodType.MIXED,
        amount=1500, window=TimeWindow(600, 700), packaging="box", preferred_receivers=(2, 5),
    )
    receiver = RequirementRequest(
        id=RequestId(2, 1), arrival=5, location=Location(3.0, 4.0), food=FoodType.MIXED,
        amount=900, window=TimeWindow(650, 800), preferred_donors=(1,),
    )
    volunteer = VolunteerRequest(
        id=RequestId(3, 1), arrival=6, route_start=Location(1.0, 2.0), route_end=Location(3.0, 4.5),
        motored=True, ac=False, payload_capacity=5000, window=TimeWindow(600, 720), receivers=(2,),
    )
    return donor, receiver, volunteer


def _scenario_requests(config):
    return [t.request for t in generate_scenario(config).requests]


def _instance_requests(instance):
    return instance.donors + instance.receivers + instance.vols


SOURCES = {
    "uniform": lambda: _scenario_requests(ScenarioConfig(n_requests=300, seed=3)),
    "corridor": lambda: _scenario_requests(desk_volunteer_sweep_config(seed=3, n_requests=300)),
    "deadlines": lambda: _scenario_requests(desk_policy_config(seed=3, n_requests=300)),
    "from_json": lambda: [
        t.request
        for t in scenario_from_dict(
            json.loads(scenario_to_json(generate_scenario(ScenarioConfig(n_requests=200, seed=8))))
        ).requests
    ],
    "random_instance": lambda: [r for seed in range(20) for r in _instance_requests(random_instance(seed))],
    "sized_instance": lambda: _instance_requests(sized_instance(7, 12, 12, 6)),
}


class TestShellCopy:
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["donation", "requirement", "volunteer"])
    def test_copy_is_new_object_sharing_immutable_fields(self, index):
        original = one_of_each()[index]
        before = repr(original)
        clone = copy.deepcopy(original)
        assert clone is not original
        assert clone == original
        for f in fields(original):
            if f.name not in RUN_TIME_FIELDS and not isinstance(getattr(original, f.name), (bool, int, float)):
                assert getattr(clone, f.name) is getattr(original, f.name), f.name
        for name in RUN_TIME_FIELDS & {f.name for f in fields(original)}:
            setattr(clone, name, getattr(clone, name) + 7)
        assert repr(original) == before
        assert clone != original

    def test_identity_kept_inside_one_copy(self):
        donor, receiver, _ = one_of_each()
        copied = copy.deepcopy([donor, receiver, donor])
        assert copied[0] is copied[2]
        assert copied[0] is not donor
        assert copied[0].id is donor.id and copied[0].window is donor.window

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_every_field_value_is_hashable_and_shared(self, source):
        requests = SOURCES[source]()
        assert requests
        copies = copy.deepcopy(requests)
        for original, clone in zip(requests, copies):
            assert clone is not original
            for f in fields(original):
                value = getattr(original, f.name)
                hash(value)
                if f.name not in RUN_TIME_FIELDS and not isinstance(value, (bool, int, float)):
                    assert getattr(clone, f.name) is value, (source, f.name)

    def test_two_runs_of_one_scenario_agree_and_leave_it_unchanged(self):
        scenario = generate_scenario(ScenarioConfig(n_requests=250, seed=17))
        before = [repr(t.request) for t in scenario.requests]
        acceptance = AcceptanceModel(rejection_probability=0.3, no_response_probability=0.1, seed=17)
        first = run_simulation(scenario, acceptance=acceptance)
        second = run_simulation(scenario, acceptance=acceptance)
        assert first.match_counts["rejected"] > 0 and first.match_counts["expired"] > 0
        assert first == second
        assert [repr(t.request) for t in scenario.requests] == before


class TestSlots:
    def test_records_have_no_instance_dict(self):
        donor, receiver, volunteer = one_of_each()
        match = Match(donor=donor.id, volunteer=volunteer.id, receiver=receiver.id, vicinity=5.0)
        records = [donor, receiver, volunteer, match, TimedRequest(submit_at=400, request=donor),
                   donor.location, donor.window, donor.id]
        for record in records + copy.deepcopy(records):
            assert not hasattr(record, "__dict__"), type(record).__name__

    @pytest.mark.parametrize("value", [Location(1.5, -2.25), TimeWindow(600, 700), RequestId(7, 2, 3)],
                             ids=["location", "window", "id"])
    def test_frozen_values_deep_copy_equal(self, value):
        clone = copy.deepcopy(value)
        assert clone == value and hash(clone) == hash(value)
