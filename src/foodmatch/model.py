"""Core domain model for the surplus-food matching engine.

This module defines the fundamental data carried through the system:
- Location / TimeWindow: planar coordinates (km) and integer-minute windows
- FoodType / Perishability / PERISHABILITY: the food classification scheme
- Thresholds: the ten operating parameters that govern every eligibility test
- DonationRequest / RequirementRequest / VolunteerRequest: agent intents
- Match: a (donor meal, optional volunteer, optional receiver) assignment

Times are integer minutes since the scenario epoch; amounts are integer
grams; distances are kilometers. Integer minutes keep tie-breaking exact.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional, Union


class FoodType(Enum):
    FRESHLY_COOKED = "freshly_cooked"
    FROZEN_UNCOOKED = "frozen_uncooked"
    FROZEN_COOKED = "frozen_cooked"
    PACKAGED_SOLID = "packaged_solid"
    PACKAGED_LIQUID = "packaged_liquid"
    FRESH_PRODUCE = "fresh_produce"
    FRUITS_AND_VEGETABLES = "fruits_and_vegetables"
    MIXED = "mixed"


class Perishability(Enum):
    PERISHABLE = "perishable"
    NON_PERISHABLE = "non_perishable"


# the one food classification: packaged types are non-perishable, everything
# else (mixed food included) is perishable
PERISHABILITY = {
    FoodType.FRESHLY_COOKED: Perishability.PERISHABLE,
    FoodType.FROZEN_UNCOOKED: Perishability.PERISHABLE,
    FoodType.FROZEN_COOKED: Perishability.PERISHABLE,
    FoodType.PACKAGED_SOLID: Perishability.NON_PERISHABLE,
    FoodType.PACKAGED_LIQUID: Perishability.NON_PERISHABLE,
    FoodType.FRESH_PRODUCE: Perishability.PERISHABLE,
    FoodType.FRUITS_AND_VEGETABLES: Perishability.PERISHABLE,
    FoodType.MIXED: Perishability.PERISHABLE,
}


@dataclass(frozen=True, slots=True)
class Location:
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Inclusive integer-minute window with start <= end."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"window start {self.start} after end {self.end}")

    def overlap_minutes(self, other: "TimeWindow") -> int:
        """Length of the intersection, 0 when the windows do not meet."""
        return max(0, min(self.end, other.end) - max(self.start, other.start))


@dataclass(frozen=True, slots=True)
class RequestId:
    """Globally unique request identity.

    meal_seq is 0 for requests that were not split; split donation pieces
    get meal_seq 1..k appended to the parent identity.
    """

    agent_id: int
    request_seq: int
    meal_seq: int = 0

    def __str__(self) -> str:
        if self.meal_seq:
            return f"{self.agent_id}.{self.request_seq}.{self.meal_seq}"
        return f"{self.agent_id}.{self.request_seq}"


@dataclass(frozen=True)
class Thresholds:
    """The ten operating parameters.

    t_o       minutes  minimum donor/volunteer availability overlap
    t_l       percent  volunteer off-routing allowance (of route length)
    t_m       grams    healthy meal size; donation splitting unit
    t_a       percent  payload headroom required over the donation weight
    t_p_nm    km       perishable reach, non-motored / no volunteer
    t_p_m     km       perishable reach, motored transport
    t_np      km       non-perishable reach
    t_d       minutes  donor matching lead before the donation window
    t_r       minutes  receiver matching lead before the requirement window
    t_w       minutes  acceptance deadline for a displayed match
    """

    t_o: int = 15
    t_l: float = 5.0
    t_m: int = 1000
    t_a: float = 20.0
    t_p_nm: float = 5.0
    t_p_m: float = 20.0
    t_np: float = 100.0
    t_d: int = 120
    t_r: int = 180
    t_w: int = 15

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ValueError(f"threshold {f.name} must be positive and finite, got {value!r}")
        if not (self.t_p_nm <= self.t_p_m <= self.t_np):
            raise ValueError("reach thresholds must order t_p_nm <= t_p_m <= t_np")


class _RequestShell:
    # the request classes are slotted; an empty base keeps them free of a
    # per-instance __dict__
    __slots__ = ()

    def __deepcopy__(self, memo: dict) -> "_RequestShell":
        """A new request with its own slots bound to the same field values.

        Safe because every field is an immutable value and a run only
        rebinds the three scalar run-time fields ``arrival``,
        ``remaining_amount`` and ``remaining_payload``, never mutating a
        field in place. ``copy.deepcopy`` memoizes the result, so shared
        identity inside one copied structure is kept. A run deep-copies
        only its list of requests, not the scenario's ``TimedRequest``
        wrappers, so the copy costs one shell per request and the memo;
        the field values, including the ints a loaded scenario shares, are
        never duplicated.
        """
        return copy.copy(self)


@dataclass(slots=True)
class DonationRequest(_RequestShell):
    """One donation meal offer."""

    id: RequestId
    arrival: int
    location: Location
    food: FoodType
    amount: int
    window: TimeWindow
    packaging: str = ""
    prep_or_expiry: int = 0
    image_ref: str = ""
    preferred_receivers: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("invalid amount")
        if len(set(self.preferred_receivers)) != len(self.preferred_receivers):
            raise ValueError("duplicate entries in preferred receivers")

    @property
    def event_time(self) -> int:
        """Donor event time is the donation window start."""
        return self.window.start


@dataclass(slots=True)
class RequirementRequest(_RequestShell):
    """One food requirement. Never split; tracks the unfulfilled remainder."""

    id: RequestId
    arrival: int
    location: Location
    food: FoodType
    amount: int
    window: TimeWindow
    preferred_donors: tuple[int, ...] = ()
    remaining_amount: int = field(init=False)

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("invalid amount")
        if len(set(self.preferred_donors)) != len(self.preferred_donors):
            raise ValueError("duplicate entries in preferred donors")
        self.remaining_amount = self.amount


@dataclass(slots=True)
class VolunteerRequest(_RequestShell):
    """One transport offer along a fixed start->destination route."""

    id: RequestId
    arrival: int
    route_start: Location
    route_end: Location
    motored: bool
    ac: bool
    payload_capacity: int
    window: TimeWindow
    receivers: tuple[int, ...] = ()
    remaining_payload: int = field(init=False)

    def __post_init__(self) -> None:
        if self.payload_capacity <= 0:
            raise ValueError("invalid payload capacity")
        self.remaining_payload = self.payload_capacity


Request = Union[DonationRequest, RequirementRequest, VolunteerRequest]


class MatchStatus(Enum):
    # no record carries this status; it only names the always-zero count
    # that report.csv and report.json print and recorded digests pin
    PENDING_VOLUNTEER_ONLY = "pending_volunteer_only"
    DISPLAYED = "displayed"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    EXPIRED = "expired"


@dataclass(slots=True)
class Match:
    """A donor-meal assignment, optionally carrying transport and a receiver.

    A match has no fate of its own: once served it is shown inside a
    display group, and the group's status is the fate of all its matches.
    requeued guards against returning one failed match's requests twice.
    """

    donor: RequestId
    volunteer: Optional[RequestId]
    receiver: Optional[RequestId]
    vicinity: float
    delivered_amount: int = 0
    requeued: bool = False
