"""The matching engine: volunteer assignment and chronological acceptance.

One iteration drains the intake pool, classifies the snapshot into the five
market lists, volunteers sorted by route start x, while retiring requests
whose gate has closed, and runs the matcher once per food class, perishable
first. Within a class the matcher:

1. gates donors and receivers by their lead-time windows,
2. assigns each gated donor the eligible volunteer that maximizes the
   distance the donation can travel, falling back to class defaults; that
   reach lives only in the donor's provisional match, and the round keeps
   donors, provisional matches and chosen volunteers as aligned rows,
3. tests every donor-receiver pair once and, from that one table, extracts
   and augments both sides' preference lists against run-time eligibility,
   fixing every position for the rest of the round,
4. serves receivers in earliest-requirement-end order (configurable), each
   walking its eligible donors presorted best-ranked first and taking those
   still available, until the requirement is covered or the list runs out.

Position ties are broken by the receiver's own preference order, then by the
donor's event time, then by the globally unique arrival sequence. Matches
whose donors never reach a receiver are rolled back at the end of the
iteration: the reserved payload returns to the volunteer and both parties
stay in the market.

Served matches are clubbed into display groups; a group's status is the one
record of their fate (displayed, accepted, rejected or expired).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Container, Iterable, Optional, Sequence

from .geometry import (
    default_vicinity,
    distance,
    off_route_allowance,
    within_dropoff_band,
    within_pickup_radius,
)
from .model import (
    PERISHABILITY,
    DonationRequest,
    Match,
    MatchStatus,
    Perishability,
    Request,
    RequestId,
    RequirementRequest,
    Thresholds,
    VolunteerRequest,
)
from .pool import ActivePool, requeue_rejected

RECEIVER_SORT_MODES = ("end", "start")
PREFERENCE_MODES = ("eligible", "raw")
_start_x = attrgetter("route_start.x")


@dataclass(frozen=True)
class MatchPolicy:
    """Matcher configuration axes exercised by the experiments."""

    receiver_sort: str = "end"
    preferences: str = "eligible"

    def __post_init__(self) -> None:
        if self.receiver_sort not in RECEIVER_SORT_MODES:
            raise ValueError(f"receiver_sort must be one of {RECEIVER_SORT_MODES}")
        if self.preferences not in PREFERENCE_MODES:
            raise ValueError(f"preferences must be one of {PREFERENCE_MODES}")


def collapse_ranks(preferred: Sequence[int], eligible_agents: Container[int]) -> tuple[dict[int, int], int]:
    """Extract and augment one submitted agent-id list against run-time
    eligibility.

    Listed eligible agents keep their submitted order under collapsed ranks
    1..k (agent id -> rank); every other eligible agent shares the returned
    tail rank k+1.
    """
    ranks: dict[int, int] = {}
    rank = 0
    for agent in preferred:
        if agent in eligible_agents and agent not in ranks:
            rank += 1
            ranks[agent] = rank
    return ranks, rank + 1


# ---------------------------------------------------------------------------
# Gating and classification
# ---------------------------------------------------------------------------


def gated(requests: Iterable[Request], now: int, lead: int) -> list:
    """Requests whose lead-shifted window [start - lead, end - lead] holds now."""
    return [r for r in requests if r.window.start <= now + lead <= r.window.end]


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

    def rounds(self):
        """(food class, donors, receivers) of each class round, perishable
        first; both rounds share the volunteers in v."""
        return (
            (Perishability.PERISHABLE, self.pfd, self.pfr),
            (Perishability.NON_PERISHABLE, self.npfd, self.npfr),
        )


def trifurcate(
    snapshot: Sequence[Request], carry: ClassifiedLists, now: int, thresholds: Thresholds
) -> ClassifiedLists:
    """Sort the market into volunteers, perishable donors/receivers and
    non-perishable donors/receivers, retiring requests as it goes.

    A request, carried or new, leaves the market for good once its gate has
    closed: now + its list's lead (t_d for donors, t_r for receivers, none
    for volunteers) is past its window end. The four donor and receiver
    lists keep arrival order, with the unconsumed entries of the previous
    round ahead of the snapshot's; the volunteer list stays sorted by route
    start x, the order assign_volunteers searches it in.
    """
    t_d, t_r = thresholds.t_d, thresholds.t_r
    # unpack a list, not a generator: a generator is unpacked into an
    # oversized tuple that is then shrunk, and every shrunk tuple stays on
    # the interpreter's free list (145 KiB over one gate-slice op)
    out = ClassifiedLists(*[
        [r for r in lst if now + lead <= r.window.end]
        for lst, lead in ((carry.v, 0), (carry.pfd, t_d), (carry.pfr, t_r), (carry.npfd, t_d), (carry.npfr, t_r))
    ])
    for request in snapshot:
        if isinstance(request, VolunteerRequest):
            target, lead = out.v, 0
        elif isinstance(request, DonationRequest):
            target, lead = (out.pfd if PERISHABILITY[request.food] is Perishability.PERISHABLE else out.npfd), t_d
        elif isinstance(request, RequirementRequest):
            target, lead = (out.pfr if PERISHABILITY[request.food] is Perishability.PERISHABLE else out.npfr), t_r
        else:
            raise TypeError(f"unclassifiable request type {type(request).__name__}")
        if now + lead > request.window.end:
            continue
        if target is out.v:
            insort(target, request, key=_start_x)
        else:
            target.append(request)
    return out


# ---------------------------------------------------------------------------
# Volunteer assignment
# ---------------------------------------------------------------------------


def required_payload(amount: int, thresholds: Thresholds) -> float:
    # multiply before dividing: keeps e.g. 1000 g at 20% exactly 1200.0
    return amount * (100.0 + thresholds.t_a) / 100.0


def volunteer_is_eligible(
    d: DonationRequest,
    v: VolunteerRequest,
    thresholds: Thresholds,
    receiver_universe: set[int],
) -> bool:
    if v.remaining_payload < required_payload(d.amount, thresholds):
        return False
    if v.window.overlap_minutes(d.window) < thresholds.t_o:
        return False
    if not within_pickup_radius(d.location, v.route_start, v.route_end, thresholds.t_l):
        return False
    if v.receivers and not receiver_universe.intersection(v.receivers):
        return False
    return True


def vicinity_candidate(
    d: DonationRequest,
    v: VolunteerRequest,
    food: Perishability,
    thresholds: Thresholds,
) -> float:
    """How far this volunteer lets the donation travel before spoiling."""
    if food is Perishability.NON_PERISHABLE or v.ac:
        return distance(v.route_end, d.location)
    return default_vicinity(food, v.motored, thresholds)


def assign_volunteers(
    donors: Sequence[DonationRequest],
    vols: Sequence[VolunteerRequest],
    food: Perishability,
    thresholds: Thresholds,
    receiver_universe: set[int],
) -> tuple[list[Match], list[Optional[VolunteerRequest]]]:
    """Give every gated donor a provisional match, with the best volunteer
    it can get.

    Returns two lists aligned with donors: each donor's provisional match,
    which carries its reach, and its chosen volunteer or None. A donor's
    candidates are the volunteer chosen for an earlier meal of the same donor
    while it stays eligible, else every eligible volunteer not yet taken; it
    gets the candidate with the farthest reach, and of equal reaches the
    earliest arrival. Donors with no eligible volunteer fall back to the
    class default reach. vols must be sorted by route start x, as trifurcate
    and ca_dtb keep it: a donor tests only the starts inside a square of the
    round's longest pickup allowance, found by bisecting vols.
    """
    half = max((off_route_allowance(v.route_start, v.route_end, thresholds.t_l) for v in vols), default=0.0)
    # widened so that rounding never drops a start the exact test accepts
    half = half * (1 + 1e-9) + 1e-9
    taken: set[int] = set()
    sticky: dict[int, VolunteerRequest] = {}
    matches: list[Match] = []
    volunteers: list[Optional[VolunteerRequest]] = []

    for d in donors:
        previous = sticky.get(d.id.agent_id)
        if previous is not None and volunteer_is_eligible(d, previous, thresholds, receiver_universe):
            candidates = [previous]
        else:
            lo = bisect_left(vols, d.location.x - half, key=_start_x)
            hi = bisect_right(vols, d.location.x + half, lo, key=_start_x)
            candidates = [v for v in vols[lo:hi] if abs(d.location.y - v.route_start.y) <= half
                          and id(v) not in taken and volunteer_is_eligible(d, v, thresholds, receiver_universe)]
        chosen: Optional[VolunteerRequest] = None
        reach = default_vicinity(food, None, thresholds)
        if candidates:
            vicinity, _, chosen = max(
                ((vicinity_candidate(d, v, food, thresholds), -v.arrival, v) for v in candidates),
                key=lambda scored: scored[:2],
            )
            reach = max(vicinity, default_vicinity(food, chosen.motored, thresholds))
            chosen.remaining_payload -= d.amount
            taken.add(id(chosen))
            sticky[d.id.agent_id] = chosen

        matches.append(Match(donor=d.id, volunteer=chosen.id if chosen else None, receiver=None, vicinity=reach))
        volunteers.append(chosen)
    return matches, volunteers


# ---------------------------------------------------------------------------
# Donor / receiver eligibility, preference positions, and the receiver loop
# ---------------------------------------------------------------------------


def _pair_eligible(
    d: DonationRequest,
    r: RequirementRequest,
    reach: float,
    volunteer: Optional[VolunteerRequest],
    thresholds: Thresholds,
    raw_mode: bool,
) -> bool:
    # cheap tests before geometry; every test is a side-effect-free conjunct
    if d.window.end > r.window.end:
        return False
    if raw_mode:
        if d.preferred_receivers and r.id.agent_id not in d.preferred_receivers:
            return False
        if r.preferred_donors and d.id.agent_id not in r.preferred_donors:
            return False
    if distance(r.location, d.location) > reach:
        return False
    if volunteer is not None:
        if volunteer.receivers and r.id.agent_id not in volunteer.receivers:
            return False
        if not within_dropoff_band(r.location, volunteer.route_start, volunteer.route_end, thresholds.t_l):
            return False
    return True


def _rank_table(preferred: Sequence[int], eligible_agents: set[int], raw_mode: bool) -> tuple[dict[int, int], int]:
    """Agent id -> priority position in one request's preference, and the
    rank every other eligible agent shares. Raw mode keeps the submitted
    order; pair eligibility already excludes agents a non-empty list omits."""
    if raw_mode:
        return {agent: i + 1 for i, agent in enumerate(preferred)}, 1
    return collapse_ranks(preferred, eligible_agents)


def match_receivers(
    receivers: Sequence[RequirementRequest],
    donors: Sequence[DonationRequest],
    matches: Sequence[Match],
    volunteers: Sequence[Optional[VolunteerRequest]],
    thresholds: Thresholds,
    policy: MatchPolicy = MatchPolicy(),
    trace: Optional[dict[int, set[int]]] = None,
) -> None:
    """Serve receivers chronologically, each taking the donors that want it most.

    donors, matches and volunteers are the aligned rows assign_volunteers
    returns; a served donor's match records its receiver and amount.

    Every (donor, receiver) pair is tested once, and both sides' preference
    positions are fixed before the first receiver is served. Receivers are
    then processed in ascending requirement end (or start, per policy)
    order with arrival as tie-break. Each walks its eligible donors sorted
    by the position the donor gives it, then its own preference order, the
    donor event time and the arrival sequence, taking every donor still
    available until its requirement is covered. The final meal is accepted
    even when it overshoots the open requirement.

    A trace, when given, maps each agent id to the partner agent ids it ever
    saw as candidates; the manipulation analysis reads it.
    """
    raw_mode = policy.preferences == "raw"

    # preference update: donor indices eligible for each receiver, and each
    # donor's rank table over the receivers it may serve
    eligible: list[list[int]] = [[] for _ in receivers]
    donor_tables: list[tuple[dict[int, int], int]] = []
    for k, (d, match, volunteer) in enumerate(zip(donors, matches, volunteers)):
        agents = set()
        for r, found in zip(receivers, eligible):
            if _pair_eligible(d, r, match.vicinity, volunteer, thresholds, raw_mode):
                found.append(k)
                agents.add(r.id.agent_id)
        donor_tables.append(_rank_table(d.preferred_receivers, agents, raw_mode))

    order = (
        (lambda pair: (pair[0].window.end, pair[0].arrival))
        if policy.receiver_sort == "end"
        else (lambda pair: (pair[0].window.start, pair[0].arrival))
    )
    free = [True] * len(donors)
    for r, found in sorted(zip(receivers, eligible), key=order):
        available = [k for k in found if free[k]]
        if r.remaining_amount <= 0 or not available:
            continue
        agent = r.id.agent_id
        if trace is not None:
            # this receiver saw every available donor agent, and each saw it
            seen = {donors[k].id.agent_id for k in available}
            trace.setdefault(agent, set()).update(seen)
            for other in seen:
                trace.setdefault(other, set()).add(agent)
        ranks, tail = _rank_table(r.preferred_donors, {donors[k].id.agent_id for k in found}, raw_mode)

        def key(k: int) -> tuple:
            d = donors[k]
            positions, d_tail = donor_tables[k]
            return (positions.get(agent, d_tail), ranks.get(d.id.agent_id, tail), d.event_time, d.arrival)

        for k in sorted(available, key=key):
            free[k] = False
            matches[k].receiver = r.id
            matches[k].delivered_amount = donors[k].amount
            r.remaining_amount -= donors[k].amount
            if r.remaining_amount <= 0:
                break


# ---------------------------------------------------------------------------
# One class-level run and the full iteration
# ---------------------------------------------------------------------------


@dataclass
class CaDtbResult:
    matches: list[Match]

    def completed(self) -> list[Match]:
        return [m for m in self.matches if m.receiver is not None]


def ca_dtb(
    donors: list[DonationRequest],
    receivers: list[RequirementRequest],
    vols: list[VolunteerRequest],
    food: Perishability,
    now: int,
    thresholds: Thresholds,
    policy: MatchPolicy = MatchPolicy(),
    trace: Optional[dict[int, set[int]]] = None,
) -> CaDtbResult:
    """Run one class's matching round, updating the market lists in place.

    Served donors, fully covered receivers and the volunteers committed to a
    served donor leave their lists, found by object identity; unserved donors,
    their volunteer reservation rolled back, and partially covered receivers
    stay. vols must be sorted by route start x, as trifurcate keeps it; each
    list keeps its order. A round with no gated donor changes nothing.
    """
    gated_donors = gated(donors, now, thresholds.t_d)
    if not gated_donors:
        return CaDtbResult([])
    gated_receivers = gated(receivers, now, thresholds.t_r)
    receiver_universe = {r.id.agent_id for r in gated_receivers}

    matches, volunteers = assign_volunteers(gated_donors, vols, food, thresholds, receiver_universe)
    match_receivers(gated_receivers, gated_donors, matches, volunteers, thresholds, policy, trace)

    matched_donors: set[int] = set()
    committed_vols: set[int] = set()
    for d, match, volunteer in zip(gated_donors, matches, volunteers):
        if match.receiver is not None:
            matched_donors.add(id(d))
            if volunteer is not None:
                committed_vols.add(id(volunteer))
        elif volunteer is not None:
            volunteer.remaining_payload += d.amount

    # clear and extend, not slice assignment: that also copies the old items
    # into a scratch buffer, and read 0.1-0.2 MB more peak RSS on gate-slice
    for market, kept in (
        (donors, [d for d in donors if id(d) not in matched_donors]),
        (receivers, [r for r in receivers if r.remaining_amount > 0]),
        (vols, [v for v in vols if id(v) not in committed_vols]),
    ):
        market.clear()
        market.extend(kept)
    return CaDtbResult(matches)


@dataclass(slots=True)
class DisplayGroup:
    """What one agent triple actually sees: meal matches with the same
    (donor agent, volunteer, receiver) clubbed into a single record, whose
    status is the fate of all of them."""

    id: int
    donor_agent: int
    volunteer: Optional[RequestId]
    receiver: RequestId
    matches: list[Match]
    total_amount: int
    created_at: int
    food: Perishability
    status: MatchStatus = MatchStatus.DISPLAYED


def club_matches(matches: Sequence[Match]) -> list[list[Match]]:
    """Group matches by (donor agent, volunteer, receiver), preserving order."""
    groups: dict[tuple, list[Match]] = {}
    for match in matches:
        key = (match.donor.agent_id, match.volunteer, match.receiver)
        groups.setdefault(key, []).append(match)
    return list(groups.values())


def expire_stale_matches(groups: Iterable[DisplayGroup], now: int, thresholds: Thresholds) -> list[Match]:
    """Expire displayed groups still unaccepted after created_at + t_w (the
    deadline instant itself is within) and return their matches."""
    expired: list[Match] = []
    for group in groups:
        if group.status is MatchStatus.DISPLAYED and now > group.created_at + thresholds.t_w:
            group.status = MatchStatus.EXPIRED
            expired.extend(group.matches)
    return expired


class MatchingEngine:
    """Holds the carry lists and displayed groups across iterations.

    The simulator owns the clock and the acceptance decisions; the engine
    owns classification, matching, display, expiry, and requeueing.
    """

    def __init__(
        self,
        pool: ActivePool,
        thresholds: Thresholds,
        policy: MatchPolicy = MatchPolicy(),
        trace: Optional[dict[int, set[int]]] = None,
    ):
        self.pool = pool
        self.thresholds = thresholds
        self.policy = policy
        self.trace = trace
        self.carry = ClassifiedLists()
        self.groups: list[DisplayGroup] = []
        self.open_groups: list[DisplayGroup] = []
        self._group_ids = itertools.count(1)

    # -- bookkeeping ------------------------------------------------------

    def _display(self, result: CaDtbResult, food: Perishability, now: int) -> list[DisplayGroup]:
        displayed = []
        for bundle in club_matches(result.completed()):
            group = DisplayGroup(
                id=next(self._group_ids),
                donor_agent=bundle[0].donor.agent_id,
                volunteer=bundle[0].volunteer,
                receiver=bundle[0].receiver,
                matches=bundle,
                total_amount=sum(m.delivered_amount for m in bundle),
                created_at=now,
                food=food,
            )
            displayed.append(group)
            self.groups.append(group)
            self.open_groups.append(group)
        return displayed

    # -- the iteration ----------------------------------------------------

    def iterate(self, now: int) -> list[DisplayGroup]:
        """One full mechanism iteration at the given minute.

        Drains the pool, classifies and retires, matches perishable food
        first and displays its groups before the non-perishable round
        starts, then expires stale displayed groups and requeues their
        requests.
        """
        carry = self.carry = trifurcate(self.pool.drain(), self.carry, now, self.thresholds)

        displayed = []
        for food, donors, receivers in carry.rounds():
            result = ca_dtb(donors, receivers, carry.v, food, now, self.thresholds,
                            policy=self.policy, trace=self.trace)
            displayed.extend(self._display(result, food, now))

        expire_stale_matches(self.open_groups, now, self.thresholds)
        self._requeue([g for g in self.open_groups if g.status is MatchStatus.EXPIRED])
        return displayed

    def apply_decisions(self, decisions: Sequence[tuple[DisplayGroup, bool]]) -> None:
        """Record accept/reject outcomes for displayed groups.

        A clubbed group is a single notification, so the whole group shares
        one fate, set once on the group; its matches carry none. Decisions on
        groups already settled are ignored. Rejected groups immediately
        requeue their requests.
        """
        rejected = []
        for group, accepted in decisions:
            if group.status is not MatchStatus.DISPLAYED:
                continue
            group.status = MatchStatus.ACCEPTED if accepted else MatchStatus.REJECTED
            if not accepted:
                rejected.append(group)
        self._requeue(rejected)

    def _requeue(self, failed: Sequence[DisplayGroup]) -> None:
        """Close every settled group and return the requests of the failed
        ones to the pool; the pool refuses a request already queued, so only
        the carried ones need naming."""
        self.open_groups = [g for g in self.open_groups if g.status is MatchStatus.DISPLAYED]
        if not failed:
            return
        carried = set(self.carry.all_ids())
        for group in failed:
            if group.status not in (MatchStatus.REJECTED, MatchStatus.EXPIRED):
                raise ValueError(f"illegal requeue: group {group.id} is {group.status.value}")
            for match in group.matches:
                requeue_rejected(match, self.pool, already_active=carried)
