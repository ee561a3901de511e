"""Trifurcation of the drained snapshot into the five market lists, and the
retirement of requests whose gate has closed."""

import pytest
from hypothesis import given, strategies as st

from foodmatch.engine import ClassifiedLists, trifurcate
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

TH = Thresholds()


def sizes(lists):
    return [len(lists.v), len(lists.pfd), len(lists.pfr), len(lists.npfd), len(lists.npfr)]


def mk(kind, agent, arrival, food=FoodType.FRESHLY_COOKED, end=1000, x=0.0):
    window = TimeWindow(0, end)
    if kind == "v":
        return VolunteerRequest(
            id=RequestId(agent, 1), arrival=arrival, route_start=Location(x, 0),
            route_end=Location(1, 1), motored=True, ac=False,
            payload_capacity=1000, window=window,
        )
    if kind == "d":
        return DonationRequest(
            id=RequestId(agent, 1), arrival=arrival, location=Location(0, 0),
            food=food, amount=500, window=window,
        )
    return RequirementRequest(
        id=RequestId(agent, 1), arrival=arrival, location=Location(0, 0),
        food=food, amount=500, window=window,
    )


def classify(snapshot, carry=None, now=0):
    return trifurcate(snapshot, carry or ClassifiedLists(), now, TH)


def test_volunteer_goes_to_v():
    lists = classify([mk("v", 1, 1)])
    assert sizes(lists) == [1, 0, 0, 0, 0]


def test_bifurcation_by_food_class():
    lists = classify([mk("d", 1, 1, FoodType.FRESHLY_COOKED), mk("r", 2, 2, FoodType.PACKAGED_SOLID)])
    assert [d.id.agent_id for d in lists.pfd] == [1]
    assert [r.id.agent_id for r in lists.npfr] == [2]
    assert not lists.pfr and not lists.npfd


def test_empty_snapshot_is_identity_on_carry():
    carry = classify([mk("d", 1, 1), mk("r", 2, 2)])
    out = classify([], carry)
    assert [r.id for r in out.pfd] == [r.id for r in carry.pfd]
    assert sizes(out) == sizes(carry)


def test_carry_precedes_new_entries():
    carry = classify([mk("d", 1, 1)])
    out = classify([mk("d", 2, 5)], carry)
    assert [d.id.agent_id for d in out.pfd] == [1, 2]


def test_unclassifiable_rejected():
    with pytest.raises(TypeError, match="unclassifiable"):
        classify([object()])


def test_new_requests_retire_once_their_gate_closes():
    # the gate closes past end - lead: t_d = 120 for a donor, t_r = 180 for
    # a receiver, none for a volunteer
    snapshot = [mk("d", 1, 1, end=160), mk("d", 2, 2, end=159), mk("r", 3, 3, end=220),
                mk("r", 4, 4, end=219), mk("v", 5, 5, end=40), mk("v", 6, 6, end=39)]
    lists = classify(snapshot, now=40)
    assert [i.agent_id for i in lists.all_ids()] == [5, 1, 3]


def test_carried_requests_retire_and_keep_their_order():
    carry = classify([mk("d", 1, 1), mk("d", 2, 2, end=179), mk("d", 3, 3),
                      mk("v", 4, 4, end=50), mk("r", 5, 5, end=239)])
    out = classify([mk("d", 6, 6)], carry, now=60)
    assert [d.id.agent_id for d in out.pfd] == [1, 3, 6]
    assert not out.v and not out.pfr
    # the carry itself is left as it was
    assert sizes(carry) == [1, 3, 1, 0, 0]


def test_new_volunteers_interleave_with_carried_ones_by_route_start():
    carry = classify([mk("v", 1, 1, x=2.0), mk("v", 2, 2, x=4.0)])
    out = classify([mk("v", 3, 3, x=3.0), mk("v", 4, 4, x=1.0), mk("v", 5, 5, x=4.0)], carry)
    # an equal x keeps arrival order
    assert [v.id.agent_id for v in out.v] == [4, 1, 3, 2, 5]
    assert [v.id.agent_id for v in carry.v] == [1, 2]


@given(
    st.lists(
        st.tuples(st.sampled_from(["d", "r", "v"]), st.sampled_from(list(FoodType)),
                  st.floats(-100, 100, allow_nan=False)),
        max_size=30,
        unique_by=lambda t: t[2],
    ),
    st.integers(0, 30),
)
def test_partition_conserves_and_keeps_order(spec, carried):
    # the first `carried` requests arrive a round early and are carried over
    requests = [mk(kind, agent + 1, agent + 1, food, x=x) for agent, (kind, food, x) in enumerate(spec)]
    lists = classify(requests[carried:], classify(requests[:carried]))
    ids = list(lists.all_ids())
    assert len(ids) == len(set(ids)) == len(requests)
    starts = sorted(r.route_start.x for r in requests if isinstance(r, VolunteerRequest))
    assert [v.route_start.x for v in lists.v] == starts
    for lst in (lists.pfd, lists.pfr, lists.npfd, lists.npfr):
        arrivals = [r.arrival for r in lst]
        assert arrivals == sorted(arrivals)
