"""Simulation driver: clock, acceptance modeling, metrics, lifecycle audit.

A run advances the clock in fixed ticks, feeding submissions at their
arrival minutes, running one mechanism iteration per tick, and applying the
acceptance model to each displayed group. After the horizon passes, extra
ticks run until every displayed group has settled (accepted, rejected, or
expired); no new match can form past the horizon because no window can gate.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Optional

from .engine import EligibilityTrace, MatchingEngine, MatchPolicy
from .geometry import DeliveryRecord
from .model import DonationRequest, MatchStatus, RequestId, RequirementRequest
from .pool import ActivePool, submit_request
from .scenario import Scenario

# minutes the clock advances per iteration, unless a run sets its own
TICK_MINUTES = 5
# a run that has not settled after this many ticks is a runaway
MAX_ITERATIONS = 1 << 20


def check_tick(tick_minutes: int) -> None:
    if tick_minutes < 1:
        raise ValueError("tick_minutes must be at least 1")


@dataclass(frozen=True)
class AcceptanceModel:
    """How displayed groups get decided.

    Each group draws once: with rejection_probability it is rejected by some
    involved agent, with no_response_probability nobody answers and the
    group is left to expire, otherwise everyone accepts immediately.
    """

    rejection_probability: float = 0.0
    no_response_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.rejection_probability <= 1.0):
            raise ValueError("rejection_probability out of range")
        if not (0.0 <= self.no_response_probability <= 1.0):
            raise ValueError("no_response_probability out of range")
        if self.rejection_probability + self.no_response_probability > 1.0:
            raise ValueError("decision probabilities exceed 1")

    def decide(self, rng: random.Random) -> Optional[bool]:
        draw = rng.random()
        if draw < self.rejection_probability:
            return False
        if draw < self.rejection_probability + self.no_response_probability:
            return None
        return True


@dataclass
class SimReport:
    counts: dict[str, int]
    allocation: dict[str, float]
    served_grams: int
    requested_grams: int
    credited_grams: int
    carried_grams: int
    fulfillment_pct: float
    match_counts: dict[str, int]
    deliveries: list[DeliveryRecord]
    terminal_states: dict[str, str]
    lifecycle_consistent: bool
    accepted_groups: list[dict]
    eligibility_universes: dict[int, set[int]] = field(default_factory=dict)


def run_simulation(
    scenario: Scenario,
    policy: MatchPolicy = MatchPolicy(),
    acceptance: AcceptanceModel = AcceptanceModel(),
    tick_minutes: int = TICK_MINUTES,
    trace: bool = False,
) -> SimReport:
    """Run one scenario to completion, advancing the clock tick_minutes
    at a time, and measure it."""
    check_tick(tick_minutes)
    thresholds = scenario.config.thresholds
    pool = ActivePool()
    eligibility = EligibilityTrace() if trace else None
    engine = MatchingEngine(pool, thresholds, policy=policy, trace=eligibility)
    rng = random.Random(f"{acceptance.seed}:acceptance")

    schedule = sorted(scenario.requests, key=lambda t: (t.submit_at, t.request.id.agent_id))
    # runs never mutate the caller's scenario: the requests carry live state,
    # and only they are copied; the TimedRequest wrappers are only read
    requests = copy.deepcopy([timed.request for timed in schedule])
    if schedule:
        start = min(scenario.config.working_start, schedule[0].submit_at)
    else:
        start = scenario.config.working_start
    horizon = scenario.horizon()

    now = start
    pending = 0
    iterations = 0

    while now <= horizon or engine.open_groups or pending < len(schedule):
        if iterations >= MAX_ITERATIONS:
            raise RuntimeError(
                f"simulation did not settle within {MAX_ITERATIONS} iterations "
                f"(now={now}, horizon={horizon}, open groups={len(engine.open_groups)})"
            )
        while pending < len(schedule) and schedule[pending].submit_at <= now:
            submit_request(requests[pending], pool, thresholds)
            pending += 1

        groups = engine.iterate(now)

        decisions = []
        for group in groups:
            verdict = acceptance.decide(rng)
            if verdict is not None:
                decisions.append((group, verdict))
        if decisions:
            engine.apply_decisions(decisions)

        iterations += 1
        now += tick_minutes

    return _build_report(engine, pool, eligibility)


def _build_report(engine: MatchingEngine, pool: ActivePool, eligibility: Optional[EligibilityTrace]) -> SimReport:
    # a group's status is the fate of each of its matches, and they all
    # share its volunteer and receiver
    match_counts: dict[str, int] = {status.value: 0 for status in MatchStatus}
    accepted_meals: set[RequestId] = set()
    accepted_receivers: set[RequestId] = set()
    accepted_volunteers: set[RequestId] = set()
    served = 0
    for group in engine.groups:
        match_counts[group.status.value] += len(group.matches)
        if group.status is MatchStatus.ACCEPTED:
            accepted_meals.update(m.donor for m in group.matches)
            accepted_receivers.add(group.receiver)
            if group.volunteer is not None:
                accepted_volunteers.add(group.volunteer)
            served += group.total_amount
    accepted_donor_requests = {(rid.agent_id, rid.request_seq) for rid in accepted_meals}
    accepted_receiver_requests = {(rid.agent_id, rid.request_seq) for rid in accepted_receivers}

    # role counts, terminal states and grams read off the live requests,
    # independently of the displayed matches; a split donation counts as one
    # donor request, by its meal 1. A request both finished and still live in
    # the engine breaks the lifecycle
    active = set(engine.carry.all_ids()) | pool.queued_ids()
    terminal: dict[str, str] = {}
    consistent = True
    n_d = n_r = n_v = requested = meal_count = credited = carried = 0
    for request in pool.registered():
        rid = request.id
        if isinstance(request, DonationRequest):
            if rid.meal_seq <= 1:
                n_d += 1
            meal_count += 1
            if rid in accepted_meals:
                terminal[str(rid)] = "accepted"
                consistent = consistent and rid not in active
            else:
                terminal[str(rid)] = "unmatched"
        elif isinstance(request, RequirementRequest):
            n_r += 1
            requested += request.amount
            credited += request.amount - request.remaining_amount
            if request.remaining_amount <= 0:
                terminal[str(rid)] = "served"
                consistent = consistent and rid not in active
            elif rid in accepted_receivers:
                terminal[str(rid)] = "partially_served"
            else:
                terminal[str(rid)] = "unserved"
        else:
            n_v += 1
            carried += request.payload_capacity - request.remaining_payload
            terminal[str(rid)] = "assigned" if rid in accepted_volunteers else "unused"

    def pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    allocation = {
        "donors": pct(len(accepted_donor_requests), n_d),
        "receivers": pct(len(accepted_receiver_requests), n_r),
        "volunteers": pct(len(accepted_volunteers), n_v),
        "overall": pct(
            len(accepted_donor_requests) + len(accepted_receiver_requests) + len(accepted_volunteers),
            n_d + n_r + n_v,
        ),
        "food_requests": pct(
            len(accepted_donor_requests) + len(accepted_receiver_requests), n_d + n_r
        ),
    }

    accepted_groups = [
        {
            "group_id": g.id,
            "donor_agent": g.donor_agent,
            "volunteer_agent": g.volunteer.agent_id if g.volunteer else "",
            "receiver_agent": g.receiver.agent_id,
            "receiver": str(g.receiver),
            "grams": g.total_amount,
            "created_at": g.created_at,
            "food": g.food.value,
        }
        for g in engine.groups
        if g.status is MatchStatus.ACCEPTED
    ]
    return SimReport(
        counts={"donors": n_d, "receivers": n_r, "volunteers": n_v, "meals": meal_count},
        allocation=allocation,
        served_grams=served,
        requested_grams=requested,
        credited_grams=credited,
        carried_grams=carried,
        fulfillment_pct=pct(min(served, requested), requested),
        match_counts=match_counts,
        deliveries=engine.delivery_records(),
        terminal_states=terminal,
        lifecycle_consistent=consistent,
        accepted_groups=accepted_groups,
        eligibility_universes=eligibility.seen if eligibility is not None else {},
    )
