"""Planar city geometry: distances, route bands, reach radii, off-routing.

Routes are straight segments on a flat plane. All boundary comparisons are
inclusive (<=), and percentage expressions multiply before dividing so that
the documented boundary cases stay exact in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import Location, Perishability, Thresholds


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """Off-routing audit record for one volunteer-carried delivery."""

    route_length: float
    pickup_km: float
    dropoff_km: float
    overhead_km: float
    overhead_pct: float


def distance(a: Location, b: Location) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def point_to_segment_distance(p: Location, start: Location, end: Location) -> float:
    """Minimum distance from p to the closed segment start->end."""
    ax, ay = start.x, start.y
    bx, by = end.x, end.y
    abx, aby = bx - ax, by - ay
    norm_sq = abx * abx + aby * aby
    if norm_sq == 0.0:
        return math.hypot(p.x - ax, p.y - ay)
    t = ((p.x - ax) * abx + (p.y - ay) * aby) / norm_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(p.x - (ax + t * abx), p.y - (ay + t * aby))


def off_route_allowance(start: Location, end: Location, t_l: float) -> float:
    """Manageable diversion radius: t_l percent of the route length."""
    return t_l * distance(start, end) / 100.0


def within_pickup_radius(donor_loc: Location, start: Location, end: Location, t_l: float) -> bool:
    """Donor reachable for pickup: within t_l% of route length from the route start."""
    if start == end:
        return False
    return distance(donor_loc, start) <= off_route_allowance(start, end, t_l)


def within_dropoff_band(recv_loc: Location, start: Location, end: Location, t_l: float) -> bool:
    """Receiver reachable for drop-off: within t_l% of route length from the route."""
    if start == end:
        return False
    return point_to_segment_distance(recv_loc, start, end) <= off_route_allowance(start, end, t_l)


def off_route_overhead(start: Location, end: Location, pickup: Location, dropoff: Location) -> DeliveryRecord:
    """Extra travel for one delivery: detour-and-return at pickup plus at drop-off."""
    length = distance(start, end)
    if length == 0.0:
        raise ValueError("zero-length route")
    pickup_km = distance(start, pickup)
    dropoff_km = point_to_segment_distance(dropoff, start, end)
    overhead_km = 2.0 * pickup_km + 2.0 * dropoff_km
    return DeliveryRecord(
        route_length=length,
        pickup_km=pickup_km,
        dropoff_km=dropoff_km,
        overhead_km=overhead_km,
        overhead_pct=100.0 * overhead_km / length,
    )


def default_vicinity(food: Perishability, motored: Optional[bool], thresholds: Thresholds) -> float:
    """Reach floor for a donation given its food class and known transport.

    Non-perishable food always gets the long reach; perishable food gets the
    motored reach only when a motored transport is known, otherwise the short
    non-motored reach.
    """
    if food is Perishability.NON_PERISHABLE:
        return thresholds.t_np
    if motored:
        return thresholds.t_p_m
    return thresholds.t_p_nm
