"""Classification of drained requests into the five market lists.

Each iteration trifurcates the fresh snapshot into volunteers, perishable
donors/receivers, and non-perishable donors/receivers, preserving arrival
order and keeping unconsumed entries from the previous round ahead of the
new ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .model import (
    PERISHABILITY,
    DonationRequest,
    Perishability,
    Request,
    RequirementRequest,
    VolunteerRequest,
)


@dataclass
class ClassifiedLists:
    v: list[VolunteerRequest] = field(default_factory=list)
    pfd: list[DonationRequest] = field(default_factory=list)
    pfr: list[RequirementRequest] = field(default_factory=list)
    npfd: list[DonationRequest] = field(default_factory=list)
    npfr: list[RequirementRequest] = field(default_factory=list)

    def all_ids(self):
        for lst in (self.v, self.pfd, self.pfr, self.npfd, self.npfr):
            for request in lst:
                yield request.id


# one iteration's class rounds in market order, perishable first: each names
# its food class and its donor and receiver lists; volunteers are shared
CLASS_ROUNDS = (
    (Perishability.PERISHABLE, "pfd", "pfr"),
    (Perishability.NON_PERISHABLE, "npfd", "npfr"),
)


def trifurcate(snapshot: Sequence[Request], carry: ClassifiedLists) -> ClassifiedLists:
    """Append each snapshot request to exactly one list by role and food class."""
    out = ClassifiedLists(
        v=list(carry.v),
        pfd=list(carry.pfd),
        pfr=list(carry.pfr),
        npfd=list(carry.npfd),
        npfr=list(carry.npfr),
    )
    for request in snapshot:
        if isinstance(request, VolunteerRequest):
            out.v.append(request)
        elif isinstance(request, DonationRequest):
            if PERISHABILITY[request.food] is Perishability.PERISHABLE:
                out.pfd.append(request)
            else:
                out.npfd.append(request)
        elif isinstance(request, RequirementRequest):
            if PERISHABILITY[request.food] is Perishability.PERISHABLE:
                out.pfr.append(request)
            else:
                out.npfr.append(request)
        else:
            raise TypeError(f"unclassifiable request type {type(request).__name__}")
    return out
