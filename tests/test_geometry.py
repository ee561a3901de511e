"""Geometry: distances, pickup/drop-off constraints, off-routing overhead."""

import math

import pytest
from hypothesis import given, strategies as st

from foodmatch.geometry import (
    default_vicinity,
    distance,
    off_route_allowance,
    off_route_overhead,
    point_to_segment_distance,
    within_dropoff_band,
    within_pickup_radius,
)
from foodmatch.model import Location, Perishability, Thresholds

TH = Thresholds()

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
points = st.builds(Location, coords, coords)


class TestDistance:
    def test_three_four_five(self):
        assert distance(Location(0, 0), Location(3, 4)) == 5.0

    def test_identity(self):
        assert distance(Location(2, 2), Location(2, 2)) == 0.0

    def test_diagonal(self):
        assert distance(Location(0, 0), Location(50, 50)) == pytest.approx(70.7107, abs=1e-4)

    @given(points, points)
    def test_symmetric_nonnegative(self, a, b):
        assert distance(a, b) == distance(b, a) >= 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestPointToSegment:
    def test_perpendicular_foot_interior(self):
        assert point_to_segment_distance(Location(5, 1), Location(0, 0), Location(10, 0)) == 1.0

    def test_nearest_endpoint(self):
        assert point_to_segment_distance(Location(-3, 4), Location(0, 0), Location(10, 0)) == 5.0

    def test_on_segment(self):
        assert point_to_segment_distance(Location(5, 0), Location(0, 0), Location(10, 0)) == 0.0

    @given(points, points, points)
    def test_bounded_by_endpoints(self, p, a, b):
        d = point_to_segment_distance(p, a, b)
        assert d <= distance(p, a) + 1e-9
        assert d <= distance(p, b) + 1e-9


class TestPickupRadius:
    route = (Location(0, 0), Location(20, 0))  # 20 km, 5% -> 1 km radius

    def test_inside(self):
        assert within_pickup_radius(Location(0.8, 0), *self.route, 5.0)

    def test_outside(self):
        assert not within_pickup_radius(Location(1.2, 0), *self.route, 5.0)

    def test_boundary_inclusive(self):
        assert within_pickup_radius(Location(1.0, 0), *self.route, 5.0)

    def test_degenerate_route(self):
        assert not within_pickup_radius(Location(0, 0), Location(1, 1), Location(1, 1), 5.0)

    @given(points, st.floats(min_value=0.5, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
    def test_monotone_in_allowance(self, donor, t_l, extra):
        if within_pickup_radius(donor, *self.route, t_l):
            assert within_pickup_radius(donor, *self.route, t_l + extra)


class TestDropoffBand:
    route = (Location(0, 0), Location(20, 0))

    def test_inside(self):
        assert within_dropoff_band(Location(10, 0.9), *self.route, 5.0)

    def test_outside(self):
        assert not within_dropoff_band(Location(10, 1.1), *self.route, 5.0)

    def test_route_start_inside(self):
        assert within_dropoff_band(Location(0, 0), *self.route, 5.0)

    def test_degenerate_route(self):
        assert not within_dropoff_band(Location(1, 1), Location(1, 1), Location(1, 1), 5.0)

    @given(points, st.floats(min_value=0.5, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
    def test_monotone_in_allowance(self, receiver, t_l, extra):
        if within_dropoff_band(receiver, *self.route, t_l):
            assert within_dropoff_band(receiver, *self.route, t_l + extra)


class TestOverhead:
    def test_no_detour(self):
        route = (Location(0, 0), Location(10, 0))
        record = off_route_overhead(*route, Location(0, 0), Location(5, 0))
        assert record.overhead_km == 0.0
        assert record.overhead_pct == 0.0

    def test_worst_case_hits_four_times_allowance(self):
        # pickup at 5% of length from start, drop-off at 5% perpendicular
        route = (Location(0, 0), Location(10, 0))
        record = off_route_overhead(*route, Location(0, 0.5), Location(5, -0.5))
        assert record.overhead_pct == pytest.approx(20.0)

    def test_two_term_formula(self):
        route = (Location(0, 0), Location(10, 0))
        record = off_route_overhead(*route, Location(0, 0.5), Location(5, 0.25))
        assert record.overhead_km == pytest.approx(1.5)
        assert record.overhead_pct == pytest.approx(15.0)

    def test_degenerate_route_raises(self):
        with pytest.raises(ValueError, match="zero-length route"):
            off_route_overhead(Location(1, 1), Location(1, 1), Location(0, 0), Location(0, 0))

    @given(points, points)
    def test_within_constraints_respects_bound(self, pickup, dropoff):
        # whenever both ends satisfy the eligibility constraints, the
        # overall overhead cannot exceed 4 * t_l percent
        route = (Location(0, 0), Location(30, 0))
        t_l = 5.0
        if within_pickup_radius(pickup, *route, t_l) and within_dropoff_band(dropoff, *route, t_l):
            record = off_route_overhead(*route, pickup, dropoff)
            assert record.overhead_pct <= 4 * t_l + 1e-9


class TestDefaultVicinity:
    def test_perishable_no_volunteer(self):
        assert default_vicinity(Perishability.PERISHABLE, None, TH) == 5.0

    def test_perishable_motored(self):
        assert default_vicinity(Perishability.PERISHABLE, True, TH) == 20.0

    def test_non_perishable(self):
        assert default_vicinity(Perishability.NON_PERISHABLE, None, TH) == 100.0
        assert default_vicinity(Perishability.NON_PERISHABLE, True, TH) == 100.0

    def test_perishable_non_motored(self):
        assert default_vicinity(Perishability.PERISHABLE, False, TH) == 5.0


def test_off_route_allowance():
    # t_l percent of the 5 km route length
    assert off_route_allowance(Location(0, 0), Location(3, 4), 20.0) == 1.0
    assert off_route_allowance(Location(1, 1), Location(1, 1), 20.0) == 0.0


def test_exact_boundary_allowance_is_float_safe():
    # 5% of 20 km must compare equal to 1.0 exactly
    route = (Location(0, 0), Location(20, 0))
    assert within_pickup_radius(Location(1.0, 0.0), *route, 5.0)
    assert math.isclose(off_route_allowance(*route, 5.0), 1.0, rel_tol=0, abs_tol=0)
