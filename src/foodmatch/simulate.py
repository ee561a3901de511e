"""Simulation driver: clock, acceptance modeling, metrics, lifecycle audit.

A run advances the clock in fixed 5-minute ticks (TICK_MINUTES, a
discretisation of the simulator and not one of the mechanism's Thresholds),
feeding submissions at their arrival minutes, running one mechanism
iteration per tick, and applying the acceptance model to each displayed
group. After the horizon passes, extra ticks run until every displayed group
has settled (accepted, rejected, or expired); no new match can form past the
horizon because no window can gate.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Optional

from .engine import MatchingEngine, MatchPolicy
from .geometry import DeliveryRecord, off_route_overhead
from .model import DonationRequest, MatchStatus, RequirementRequest
from .pool import ActivePool, submit_request
from .scenario import Scenario

# minutes the clock advances per iteration
TICK_MINUTES = 5
# a run that has not settled after this many ticks is a runaway
MAX_ITERATIONS = 1 << 20


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
    trace: bool = False,
) -> SimReport:
    """Run one scenario to completion, advancing the clock TICK_MINUTES
    at a time, and measure it."""
    thresholds = scenario.config.thresholds
    pool = ActivePool()
    engine = MatchingEngine(pool, thresholds, policy=policy, trace={} if trace else None)
    rng = random.Random(f"{acceptance.seed}:acceptance")

    schedule = sorted(scenario.requests, key=lambda t: (t.submit_at, t.request.id.agent_id))
    if schedule:
        start = min(scenario.config.working_start, schedule[0].submit_at)
    else:
        start = scenario.config.working_start
    horizon = scenario.horizon()
    # the clock must reach a group displayed at the horizon or at the last
    # submission, t_w minutes on, and the tick after that expires it
    last = max(horizon, schedule[-1].submit_at if schedule else start) + thresholds.t_w
    if (last - start) // TICK_MINUTES + 2 > MAX_ITERATIONS:
        raise ValueError(f"clock from minute {start} to {last} needs more than {MAX_ITERATIONS} ticks")
    # runs never mutate the caller's scenario: the requests carry live state,
    # and only they are copied; the TimedRequest wrappers are only read
    requests = copy.deepcopy([timed.request for timed in schedule])

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
        now += TICK_MINUTES

    return _build_report(engine)


def _build_report(engine: MatchingEngine) -> SimReport:
    pool = engine.pool
    # one pass over the groups: a group's status is the fate of each of its
    # matches, and they all share its volunteer and receiver; an accepted
    # group's requests take their terminal state unless the registry settles it
    match_counts: dict[str, int] = {status.value: 0 for status in MatchStatus}
    terminal: dict[str, str] = {}
    deliveries: list[DeliveryRecord] = []
    accepted_groups: list[dict] = []
    served = 0
    for group in engine.groups:
        match_counts[group.status.value] += len(group.matches)
        if group.status is not MatchStatus.ACCEPTED:
            continue
        served += group.total_amount
        for match in group.matches:
            terminal[str(match.donor)] = "accepted"
        receiver = str(group.receiver)
        terminal[receiver] = "partially_served"
        if group.volunteer is not None:
            terminal[str(group.volunteer)] = "assigned"
            volunteer = pool.lookup(group.volunteer)
            deliveries.append(off_route_overhead(
                volunteer.route_start, volunteer.route_end,
                pool.lookup(group.matches[0].donor).location, pool.lookup(group.receiver).location,
            ))
        accepted_groups.append({
            "group_id": group.id,
            "donor_agent": group.donor_agent,
            "volunteer_agent": group.volunteer.agent_id if group.volunteer else "",
            "receiver_agent": group.receiver.agent_id,
            "receiver": receiver,
            "grams": group.total_amount,
            "created_at": group.created_at,
            "food": group.food.value,
        })

    # one pass over the registry: role counts, the other terminal states and
    # grams read off the live requests. A request both finished and still
    # live in the engine breaks the lifecycle
    active = set(engine.carry.all_ids()) | pool.queued_ids()
    consistent = True
    n_d = n_r = n_v = a_d = a_r = a_v = requested = meal_count = credited = carried = 0
    for request in pool.registered():
        rid = request.id
        key = str(rid)
        fate = terminal.get(key)
        if isinstance(request, DonationRequest):
            # the pool registers a donation's meals together: a split
            # donation counts once, by its meal 1, and is accepted once
            if rid.meal_seq <= 1:
                n_d += 1
                donation_accepted = False
            meal_count += 1
            state = fate or "unmatched"
            if fate is not None:
                consistent = consistent and rid not in active
                a_d += not donation_accepted
                donation_accepted = True
        elif isinstance(request, RequirementRequest):
            n_r += 1
            a_r += fate is not None
            requested += request.amount
            credited += request.amount - request.remaining_amount
            if request.remaining_amount <= 0:
                state = "served"
                consistent = consistent and rid not in active
            else:
                state = fate or "unserved"
        else:
            n_v += 1
            a_v += fate is not None
            carried += request.payload_capacity - request.remaining_payload
            state = fate or "unused"
        terminal[key] = state

    def pct(part: int, whole: int) -> float:
        return 100.0 * part / whole if whole else 0.0

    allocation = {
        "donors": pct(a_d, n_d),
        "receivers": pct(a_r, n_r),
        "volunteers": pct(a_v, n_v),
        "overall": pct(a_d + a_r + a_v, n_d + n_r + n_v),
        "food_requests": pct(a_d + a_r, n_d + n_r),
    }
    return SimReport(
        counts={"donors": n_d, "receivers": n_r, "volunteers": n_v, "meals": meal_count},
        allocation=allocation,
        served_grams=served,
        requested_grams=requested,
        credited_grams=credited,
        carried_grams=carried,
        fulfillment_pct=pct(min(served, requested), requested),
        match_counts=match_counts,
        deliveries=deliveries,
        terminal_states=terminal,
        lifecycle_consistent=consistent,
        accepted_groups=accepted_groups,
        eligibility_universes=engine.trace if engine.trace is not None else {},
    )
