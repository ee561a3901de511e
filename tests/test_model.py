"""Domain model: tie-break ordering, taxonomy, invariants."""

import itertools

import pytest
from hypothesis import given, strategies as st

from foodmatch.engine import ca_dtb

from foodmatch.model import (
    PERISHABILITY,
    DonationRequest,
    FoodType,
    Location,
    Perishability,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)


class TestTaxonomy:
    def test_mixed_is_perishable(self):
        assert PERISHABILITY[FoodType.MIXED] is Perishability.PERISHABLE

    def test_packaged_solid_nonperishable(self):
        assert PERISHABILITY[FoodType.PACKAGED_SOLID] is Perishability.NON_PERISHABLE

    def test_freshly_cooked_perishable(self):
        assert PERISHABILITY[FoodType.FRESHLY_COOKED] is Perishability.PERISHABLE

    def test_total_over_food_types(self):
        for food in FoodType:
            assert PERISHABILITY[food] in (Perishability.PERISHABLE, Perishability.NON_PERISHABLE)


class TestTieBreak:
    """The system-wide (event time, arrival) tie-break, as the engine applies
    it: donors that rank the receiver, and are ranked by it, at the same
    shared tail differ only in donation start and arrival sequence."""

    @staticmethod
    def _donor(agent, key):
        event_time, arrival = key
        return DonationRequest(
            id=RequestId(agent, 1), arrival=arrival, location=Location(10, 10),
            food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(600 + event_time, 800),
        )

    def _winner(self, keys):
        """The key of the donor a one-meal receiver takes among `keys`."""
        r = RequirementRequest(
            id=RequestId(50, 1), arrival=10 ** 7, location=Location(11, 10),
            food=FoodType.FRESHLY_COOKED, amount=1000, window=TimeWindow(820, 980),
        )
        donors = [self._donor(agent, key) for agent, key in enumerate(keys, 1)]
        result = ca_dtb(donors, [r], [], Perishability.PERISHABLE, 660, Thresholds())
        (match,) = result.completed()
        return keys[match.donor.agent_id - 1]

    def _engine_order(self, keys):
        """Keys in the order the engine takes them, one winner at a time."""
        remaining, order = list(keys), []
        while remaining:
            order.append(self._winner(remaining))
            remaining.remove(order[-1])
        return order

    def test_total_order_on_small_sets(self):
        # antisymmetric, transitive, total: check exhaustively on 6 keys
        keys = [(100, 1), (100, 2), (90, 3), (110, 4), (90, 5), (100, 6)]
        for a, b in itertools.permutations(keys, 2):
            assert self._winner([a, b]) == self._winner([b, a])
        for a, b, c in itertools.permutations(keys, 3):
            if self._winner([a, b]) == a and self._winner([b, c]) == b:
                assert self._winner([a, c]) == a
        assert self._engine_order(keys) == sorted(keys)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 10 ** 6)), min_size=2, max_size=8,
                    unique_by=lambda t: t[1]))
    def test_sort_agrees_with_compare(self, keys):
        ordered = self._engine_order(keys)
        assert ordered == sorted(keys)
        for first, second in zip(ordered, ordered[1:]):
            assert self._winner([second, first]) == first


class TestTypes:
    def test_window_rejects_reversed(self):
        with pytest.raises(ValueError):
            TimeWindow(10, 5)

    def test_window_overlap(self):
        assert TimeWindow(0, 100).overlap_minutes(TimeWindow(50, 200)) == 50
        assert TimeWindow(0, 10).overlap_minutes(TimeWindow(20, 30)) == 0

    def test_donation_rejects_nonpositive_amount(self):
        with pytest.raises(ValueError, match="invalid amount"):
            DonationRequest(
                id=RequestId(1, 1), arrival=1, location=Location(0, 0),
                food=FoodType.MIXED, amount=0, window=TimeWindow(0, 10),
            )

    def test_donation_rejects_duplicate_preferences(self):
        with pytest.raises(ValueError):
            DonationRequest(
                id=RequestId(1, 1), arrival=1, location=Location(0, 0),
                food=FoodType.MIXED, amount=100, window=TimeWindow(0, 10),
                preferred_receivers=(4, 4),
            )

    def test_requirement_rejects_duplicate_preferences(self):
        # raw mode would otherwise rank donor 5 by its last entry, eligible mode by its first
        with pytest.raises(ValueError, match="duplicate entries in preferred donors"):
            RequirementRequest(
                id=RequestId(2, 1), arrival=2, location=Location(0, 0),
                food=FoodType.MIXED, amount=900, window=TimeWindow(0, 10),
                preferred_donors=(5, 7, 5),
            )

    def test_requirement_remaining_defaults_to_amount(self):
        r = RequirementRequest(
            id=RequestId(2, 1), arrival=2, location=Location(0, 0),
            food=FoodType.MIXED, amount=900, window=TimeWindow(0, 10),
        )
        assert r.remaining_amount == 900

    def test_volunteer_remaining_defaults_to_capacity(self):
        v = VolunteerRequest(
            id=RequestId(3, 1), arrival=3, route_start=Location(0, 0), route_end=Location(1, 1),
            motored=True, ac=False, payload_capacity=5000, window=TimeWindow(0, 10),
        )
        assert v.remaining_payload == 5000

    def test_event_times(self):
        d = DonationRequest(
            id=RequestId(1, 1), arrival=1, location=Location(0, 0),
            food=FoodType.MIXED, amount=100, window=TimeWindow(600, 720),
        )
        assert d.event_time == 600

    def test_thresholds_validate(self):
        with pytest.raises(ValueError):
            Thresholds(t_o=0)
        with pytest.raises(ValueError):
            Thresholds(t_p_nm=30.0, t_p_m=20.0)
        defaults = Thresholds()
        assert (defaults.t_o, defaults.t_d, defaults.t_r, defaults.t_w) == (15, 120, 180, 15)
        assert (defaults.t_p_nm, defaults.t_p_m, defaults.t_np) == (5.0, 20.0, 100.0)
        assert (defaults.t_l, defaults.t_a, defaults.t_m) == (5.0, 20.0, 1000)
        # NaN passes a `<= 0` test, and an infinite t_np keeps the reach order
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="threshold t_np must be positive and finite"):
                Thresholds(t_np=value)
