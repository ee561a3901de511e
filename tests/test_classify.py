"""Trifurcation of the drained snapshot into the five market lists."""

import pytest
from hypothesis import given, strategies as st

from foodmatch.classify import ClassifiedLists, trifurcate
from foodmatch.model import (
    DonationRequest,
    FoodType,
    Location,
    RequestId,
    RequirementRequest,
    TimeWindow,
    VolunteerRequest,
)


def sizes(lists):
    return [len(lists.v), len(lists.pfd), len(lists.pfr), len(lists.npfd), len(lists.npfr)]


def mk(kind, agent, arrival, food=FoodType.FRESHLY_COOKED):
    if kind == "v":
        return VolunteerRequest(
            id=RequestId(agent, 1), arrival=arrival, route_start=Location(0, 0),
            route_end=Location(1, 1), motored=True, ac=False,
            payload_capacity=1000, window=TimeWindow(0, 100),
        )
    if kind == "d":
        return DonationRequest(
            id=RequestId(agent, 1), arrival=arrival, location=Location(0, 0),
            food=food, amount=500, window=TimeWindow(0, 100),
        )
    return RequirementRequest(
        id=RequestId(agent, 1), arrival=arrival, location=Location(0, 0),
        food=food, amount=500, window=TimeWindow(0, 100),
    )


def test_volunteer_goes_to_v():
    lists = trifurcate([mk("v", 1, 1)], ClassifiedLists())
    assert sizes(lists) == [1, 0, 0, 0, 0]


def test_bifurcation_by_food_class():
    lists = trifurcate(
        [mk("d", 1, 1, FoodType.FRESHLY_COOKED), mk("r", 2, 2, FoodType.PACKAGED_SOLID)],
        ClassifiedLists(),
    )
    assert [d.id.agent_id for d in lists.pfd] == [1]
    assert [r.id.agent_id for r in lists.npfr] == [2]
    assert not lists.pfr and not lists.npfd


def test_empty_snapshot_is_identity_on_carry():
    carry = trifurcate([mk("d", 1, 1), mk("r", 2, 2)], ClassifiedLists())
    out = trifurcate([], carry)
    assert [r.id for r in out.pfd] == [r.id for r in carry.pfd]
    assert sizes(out) == sizes(carry)


def test_carry_precedes_new_entries():
    carry = trifurcate([mk("d", 1, 1)], ClassifiedLists())
    out = trifurcate([mk("d", 2, 5)], carry)
    assert [d.id.agent_id for d in out.pfd] == [1, 2]


def test_unclassifiable_rejected():
    with pytest.raises(TypeError, match="unclassifiable"):
        trifurcate([object()], ClassifiedLists())


@given(
    st.lists(
        st.tuples(st.sampled_from(["d", "r", "v"]), st.sampled_from(list(FoodType))),
        max_size=30,
    )
)
def test_partition_conserves_and_keeps_order(spec):
    snapshot = [mk(kind, agent + 1, agent + 1, food) for agent, (kind, food) in enumerate(spec)]
    lists = trifurcate(snapshot, ClassifiedLists())
    ids = list(lists.all_ids())
    assert len(ids) == len(set(ids)) == len(snapshot)
    for lst in (lists.v, lists.pfd, lists.pfr, lists.npfd, lists.npfr):
        arrivals = [r.arrival for r in lst]
        assert arrivals == sorted(arrivals)
