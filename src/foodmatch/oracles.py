"""Brute-force oracles for the engine's matching properties.

The oracles recompute eligibility and preference positions from first
principles and then check the produced matching pair by pair, independently
of the engine's selection path:

- the off-routing bound: every recorded delivery stays within four times the
  per-end off-routing allowance;
- the assignment oracle: the produced matching must be feasible itself,
  maximal (no unmatched donor fits a receiver's open demand), justified (no
  receiver assigned a donor while an unmatched eligible donor ranked that
  receiver strictly better) and loadable (each receiver's meals fit its
  requirement up to a final-meal overshoot), so no single swap or addition
  can improve a left-out donor's rank without taking a matched donor's
  assignment for a strictly worse-ranked one;
- the misreport probe: rerunning an instance with each agent reporting, in
  turn, every ordered subset of the other side's first four agents, an
  agent's achieved rank measured by its true preferences must never strictly
  improve unless the truthful partner fell outside the manipulator's
  run-time eligibility universe.
"""

from __future__ import annotations

import copy
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Container, Iterable, Optional, Sequence

from .engine import ClassifiedLists, MatchPolicy, ca_dtb, gated, trifurcate
from .geometry import default_vicinity, distance, within_dropoff_band
from .model import (
    PERISHABILITY,
    DonationRequest,
    FoodType,
    Location,
    Match,
    RequestId,
    RequirementRequest,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from .pool import split_into_meals

# a misreport lists an ordered subset of the other side's first this many agents
MISREPORT_AGENTS = 4

_FOOD_TYPES = tuple(FoodType)


def gamma_violations(deliveries, thresholds: Thresholds):
    """Deliveries whose off-routing exceeds 4 * t_l percent."""
    bound = 4.0 * thresholds.t_l + 1e-9
    return [record for record in deliveries if record.overhead_pct > bound]


# ---------------------------------------------------------------------------
# One-shot instances
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    """A small market snapshot that gates entirely at a single minute."""

    donors: list[DonationRequest]
    receivers: list[RequirementRequest]
    vols: list[VolunteerRequest]
    now: int
    thresholds: Thresholds = field(default_factory=Thresholds)
    policy: MatchPolicy = field(default_factory=MatchPolicy)

    def clone(self) -> "Instance":
        return copy.deepcopy(self)


def run_instance(instance: Instance) -> tuple[list[Match], dict[int, set[int]]]:
    """One mechanism iteration over the instance, perishable class first,
    and the partner agents each agent saw as candidates."""
    trace: dict[int, set[int]] = {}
    # a round writes only receivers' and volunteers' remaining_*, so only they
    # are copied; a meal keeps its donation's arrival, so the sort keeps piece order
    snapshot = sorted(_meals(instance) + copy.deepcopy(instance.receivers + instance.vols), key=lambda r: r.arrival)
    lists = trifurcate(snapshot, ClassifiedLists(), instance.now, instance.thresholds)

    matches: list[Match] = []
    for food, donors, receivers in lists.rounds():
        matches.extend(ca_dtb(donors, receivers, lists.v, food, instance.now, instance.thresholds,
                              policy=instance.policy, trace=trace).matches)
    return matches, trace


def _meals(instance: Instance) -> list[DonationRequest]:
    """The donations split into meals as the simulator's intake splits them."""
    return [meal for d in instance.donors for meal in split_into_meals(d, instance.thresholds.t_m)]


# ---------------------------------------------------------------------------
# Assignment oracle
# ---------------------------------------------------------------------------


@dataclass
class OracleVerdict:
    ok: bool
    reason: str = "pareto-ok"
    counterexample: Optional[dict] = None

    def describe(self) -> str:
        if self.ok:
            return "pareto-ok"
        return f"violation: {self.reason} :: {self.counterexample}"


class _OracleWorld:
    """First-principles pairwise feasibility and positions for one instance.

    Transport assignments (and with them each donor's reach) are taken from
    the produced matching, because alternatives must live under the same
    eligibility predicates; everything else is recomputed here. Each (gated
    donor, gated receiver) pair is tested once, into each donor's feasible
    receivers by id in receiver order.
    """

    def __init__(self, instance: Instance, produced: Sequence[Match]):
        self.thresholds = instance.thresholds
        self.raw_mode = instance.policy.preferences == "raw"
        self.donors = {d.id: d for d in gated(_meals(instance), instance.now, self.thresholds.t_d)}
        self.receivers = gated(instance.receivers, instance.now, self.thresholds.t_r)
        vols_by_id = {v.id: v for v in instance.vols}
        produced_by_donor = {m.donor: m for m in produced}
        self.feasible: dict[RequestId, dict[RequestId, RequirementRequest]] = {}
        for d in self.donors.values():
            match = produced_by_donor.get(d.id)
            if match is not None:
                vicinity = match.vicinity
                volunteer = vols_by_id.get(match.volunteer) if match.volunteer else None
            else:
                # no recorded assignment: a donor reaches the class floor on
                # its own
                vicinity = default_vicinity(PERISHABILITY[d.food], None, self.thresholds)
                volunteer = None
            self.feasible[d.id] = {
                r.id: r for r in self.receivers if self.pair_feasible(d, r, vicinity, volunteer)
            }

    def pair_feasible(
        self, d: DonationRequest, r: RequirementRequest, vicinity: float, volunteer: Optional[VolunteerRequest]
    ) -> bool:
        if PERISHABILITY[d.food] is not PERISHABILITY[r.food]:
            return False
        if d.window.end > r.window.end:
            return False
        if distance(r.location, d.location) > vicinity:
            return False
        if volunteer is not None:
            if volunteer.receivers and r.id.agent_id not in volunteer.receivers:
                return False
            if not within_dropoff_band(r.location, volunteer.route_start, volunteer.route_end, self.thresholds.t_l):
                return False
        if self.raw_mode:
            if d.preferred_receivers and r.id.agent_id not in d.preferred_receivers:
                return False
            if r.preferred_donors and d.id.agent_id not in r.preferred_donors:
                return False
        return True

    def donor_position(self, donor_id: RequestId, receiver_agent: int) -> int:
        """The receiver's position for the donor, asked only of feasible
        pairs: a raw list names the receiver, and an eligible one has it."""
        preferred = self.donors[donor_id].preferred_receivers
        if self.raw_mode:
            return preferred.index(receiver_agent) + 1 if preferred else 1
        eligible_agents = {r.agent_id for r in self.feasible[donor_id]}
        rank = 0
        ranks = {}
        for agent in preferred:
            if agent in eligible_agents and agent not in ranks:
                rank += 1
                ranks[agent] = rank
        return ranks.get(receiver_agent, rank + 1)


def _receiver_load_feasible(amount: int, meals: Sequence[int]) -> bool:
    """A receiver can hold a meal set iff some serving order keeps remaining
    demand positive before each meal: total minus the largest stays under the
    requirement (the final meal may overshoot)."""
    if not meals:
        return True
    return sum(meals) - max(meals) < amount


def brute_force_pareto_oracle(instance: Instance, produced: Sequence[Match]) -> OracleVerdict:
    """Check the produced matching pair by pair.

    Flags a produced pair that fails the first-principles predicates, and a
    counterexample assignment whenever one change improves a donor that the
    produced matching left unmatched, either onto spare receiver demand (the
    produced matching was not maximal) or in place of a strictly
    worse-ranked matched donor (a selection was not justified); last, a
    receiver whose meals overshoot its requirement by more than the final
    meal.
    """
    world = _OracleWorld(instance, produced)
    produced_pairs: dict[RequestId, RequestId] = {}
    meals: dict[RequestId, list[int]] = {r.id: [] for r in world.receivers}

    # feasibility: the checks below compare against alternatives under the
    # same predicates, so every produced pair must itself satisfy them (and
    # only feasible pairs are given a donor position)
    for m in produced:
        if m.receiver is None:
            continue
        if m.receiver not in world.feasible.get(m.donor, ()):
            return OracleVerdict(
                ok=False,
                reason="produced pair is infeasible",
                counterexample={"donor": str(m.donor), "receiver": str(m.receiver)},
            )
        produced_pairs[m.donor] = m.receiver
        meals[m.receiver].append(m.delivered_amount)
    unmatched = [donor_id for donor_id in world.donors if donor_id not in produced_pairs]

    # maximality: an unmatched donor fitting a receiver with open demand
    for donor_id in unmatched:
        for r in world.feasible[donor_id].values():
            if sum(meals[r.id]) < r.amount:
                better = dict(produced_pairs)
                better[donor_id] = r.id
                return OracleVerdict(
                    ok=False,
                    reason="unmatched donor fits open demand",
                    counterexample={
                        "donor": str(donor_id),
                        "receiver": str(r.id),
                        "assignment": {str(k): str(v) for k, v in better.items()},
                    },
                )

    # justified selection: swapping in an unmatched donor that ranks the
    # receiver strictly better than the donor it got
    for donor_id, receiver_id in produced_pairs.items():
        matched_position = world.donor_position(donor_id, receiver_id.agent_id)
        for better_id in unmatched:
            if receiver_id not in world.feasible[better_id]:
                continue
            position = world.donor_position(better_id, receiver_id.agent_id)
            if position < matched_position:
                better = dict(produced_pairs)
                del better[donor_id]
                better[better_id] = receiver_id
                return OracleVerdict(
                    ok=False,
                    reason="unmatched donor ranked the receiver strictly better",
                    counterexample={
                        "receiver": str(receiver_id),
                        "kept_donor": str(donor_id),
                        "kept_position": matched_position,
                        "better_donor": str(better_id),
                        "better_position": position,
                        "assignment": {str(k): str(v) for k, v in better.items()},
                    },
                )

    # consistency: the produced load itself must be realizable
    for r in world.receivers:
        if not _receiver_load_feasible(r.amount, meals[r.id]):
            return OracleVerdict(
                ok=False,
                reason="receiver overloaded beyond a final-meal overshoot",
                counterexample={"receiver": str(r.id), "meals": meals[r.id], "amount": r.amount},
            )

    return OracleVerdict(ok=True)


# ---------------------------------------------------------------------------
# Misreport probe
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MisreportCase:
    """One agent's outcome under one misreport, ranked by its true list."""

    agent_id: int
    role: str
    misreport: tuple[int, ...]
    truthful_rank: int
    misreport_rank: int
    exception: bool

    @property
    def gain(self) -> int:
        """Positive when the misreport earned a better true rank."""
        return self.truthful_rank - self.misreport_rank


@dataclass
class MisreportReport:
    """Every scored misreport, in the order tried."""

    outcomes: list[MisreportCase] = field(default_factory=list)

    @property
    def cases(self) -> int:
        return len(self.outcomes)

    @property
    def improvements(self) -> list[MisreportCase]:
        return [c for c in self.outcomes if c.gain > 0]

    @property
    def exceptions(self) -> list[MisreportCase]:
        return [c for c in self.outcomes if c.exception]

    @property
    def hard_violations(self) -> list[MisreportCase]:
        return [c for c in self.improvements if not c.exception]

    @property
    def mean_gain(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(c.gain for c in self.outcomes) / len(self.outcomes)

    @property
    def exception_rate_pct(self) -> float:
        if not self.outcomes:
            return 0.0
        return 100.0 * len(self.exceptions) / len(self.outcomes)


def true_rank(true_list: Sequence[int], partners: Sequence[int]) -> int:
    """Best achieved rank measured against the agent's true list.

    Listed partners score their first listed index; unlisted partners share
    the rank just past the list; no partner at all scores one worse than
    that.
    """
    unlisted = len(true_list) + 1
    if not partners:
        return unlisted + 1
    positions: dict[int, int] = {}
    for position, agent in enumerate(true_list, start=1):
        positions.setdefault(agent, position)
    return min(positions.get(agent, unlisted) for agent in partners)


def partner_index(pairs: Iterable[tuple[int, int]]) -> dict[tuple[int, str], list[int]]:
    """Each agent's partners, keyed by (agent id, role), from (donor agent,
    receiver agent) pairs."""
    partners: dict[tuple[int, str], list[int]] = {}
    for donor_agent, receiver_agent in pairs:
        partners.setdefault((donor_agent, "donor"), []).append(receiver_agent)
        partners.setdefault((receiver_agent, "receiver"), []).append(donor_agent)
    return partners


def score_misreport(
    agent_id: int,
    role: str,
    misreport: Sequence[int],
    true_list: Sequence[int],
    truthful_partners: Sequence[int],
    misreport_partners: Sequence[int],
    universe: Container[int],
) -> MisreportCase:
    """Score one misreport by the agent's true list.

    A gain is excused as an availability exception when the agent had no
    truthful partner, or when some truthful partner never entered the
    agent's eligibility universe in the manipulated run.
    """
    truthful = true_rank(true_list, truthful_partners)
    achieved = true_rank(true_list, misreport_partners)
    exception = achieved < truthful and (
        not truthful_partners or any(p not in universe for p in truthful_partners)
    )
    return MisreportCase(agent_id, role, tuple(misreport), truthful, achieved, exception)


def _matched_pairs(matches: Sequence[Match]):
    return ((m.donor.agent_id, m.receiver.agent_id) for m in matches if m.receiver is not None)


def _misreports(universe: Sequence[int]) -> list[tuple[int, ...]]:
    ids = list(universe)[:MISREPORT_AGENTS]
    out: list[tuple[int, ...]] = []
    for size in range(len(ids) + 1):
        for subset in itertools.combinations(ids, size):
            out.extend(itertools.permutations(subset))
    return out


def exhaustive_misreports(instance: Instance) -> MisreportReport:
    """Rerun a small instance with each donor and receiver in turn reporting
    every ordered subset of the other side's first MISREPORT_AGENTS agents
    (its true list excepted), and score each run by the agent's true list."""
    report = MisreportReport()
    base_matches, _ = run_instance(instance)
    truthful = partner_index(_matched_pairs(base_matches))

    roles = (
        ("donor", "donors", "preferred_receivers", instance.receivers),
        ("receiver", "receivers", "preferred_donors", instance.donors),
    )
    for role, side, listed, others in roles:
        misreports = _misreports([other.id.agent_id for other in others])
        for agent in getattr(instance, side):
            agent_id = agent.id.agent_id
            true_list = getattr(agent, listed)
            for misreport in misreports:
                if misreport == tuple(true_list):
                    continue
                variant = replace(instance, **{side: [
                    replace(request, **{listed: misreport}) if request.id.agent_id == agent_id else request
                    for request in getattr(instance, side)
                ]})
                matches, trace = run_instance(variant)
                misreported = partner_index(_matched_pairs(matches))
                report.outcomes.append(score_misreport(
                    agent_id, role, misreport, true_list,
                    truthful.get((agent_id, role), []),
                    misreported.get((agent_id, role), []),
                    trace.get(agent_id, ()),
                ))
    return report


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------


def random_instance(
    seed: int,
    max_donors: int = 5,
    max_receivers: int = 5,
    max_vols: int = 3,
    thresholds: Optional[Thresholds] = None,
    policy: MatchPolicy = MatchPolicy(),
) -> Instance:
    """A small, simultaneously gateable market snapshot."""
    rng = random.Random(f"instance:{seed}")
    return sized_instance(
        seed,
        rng.randint(1, max_donors),
        rng.randint(1, max_receivers),
        rng.randint(0, max_vols),
        thresholds=thresholds,
        policy=policy,
    )


def sized_instance(
    seed: int,
    n_d: int,
    n_r: int,
    n_v: int,
    thresholds: Optional[Thresholds] = None,
    policy: MatchPolicy = MatchPolicy(),
    city: float = 16.0,
) -> Instance:
    """A simultaneously gateable market snapshot with exact role counts.

    Agents count up from 101 (donors), 201 (receivers) and 301 (volunteers),
    so past 100 per role ids collide across roles (receiver and volunteer
    301.1) and an eligibility trace mixes both roles' views of one agent id;
    recorded results pin these ids."""
    rng = random.Random(f"instance:{seed}")
    thresholds = thresholds or Thresholds()
    now = 600

    def loc() -> Location:
        return Location(round(rng.uniform(0, city), 3), round(rng.uniform(0, city), 3))

    donor_ids = list(range(101, 101 + n_d))
    receiver_ids = list(range(201, 201 + n_r))

    def pref(pool: list[int]) -> tuple[int, ...]:
        size = rng.randint(0, len(pool))
        return tuple(rng.sample(pool, size))

    arrivals = itertools.count(1)
    donors = []
    for agent in donor_ids:
        start = now + thresholds.t_d - rng.randint(0, 60)
        end = max(start, now + thresholds.t_d) + rng.randint(0, 180)
        donors.append(
            DonationRequest(
                id=RequestId(agent, 1),
                arrival=next(arrivals),
                location=loc(),
                food=rng.choice(_FOOD_TYPES),
                amount=rng.randint(600, 1800),
                window=TimeWindow(start, end),
                preferred_receivers=pref(receiver_ids),
            )
        )
    receivers = []
    for agent in receiver_ids:
        start = now + thresholds.t_r - rng.randint(0, 60)
        end = max(start, now + thresholds.t_r) + rng.randint(0, 300)
        receivers.append(
            RequirementRequest(
                id=RequestId(agent, 1),
                arrival=next(arrivals),
                location=loc(),
                food=rng.choice(_FOOD_TYPES),
                amount=rng.randint(600, 2600),
                window=TimeWindow(start, end),
                preferred_donors=pref(donor_ids),
            )
        )
    vols = []
    for index in range(n_v):
        agent = 301 + index
        start_min = now - rng.randint(0, 120)
        vols.append(
            VolunteerRequest(
                id=RequestId(agent, 1),
                arrival=next(arrivals),
                route_start=loc() if rng.random() < 0.4 else _jitter(rng, donors[rng.randrange(n_d)].location, city),
                route_end=loc() if rng.random() < 0.4 else _jitter(rng, receivers[rng.randrange(n_r)].location, city),
                motored=rng.random() < 0.7,
                ac=rng.random() < 0.3,
                payload_capacity=rng.randint(2000, 20000),
                window=TimeWindow(start_min, now + rng.randint(60, 420)),
                receivers=(),
            )
        )
    return Instance(donors=donors, receivers=receivers, vols=vols, now=now,
                    thresholds=thresholds, policy=policy)


def _jitter(rng: random.Random, anchor: Location, city: float) -> Location:
    return Location(
        round(min(max(anchor.x + rng.gauss(0, 1.0), 0.0), city), 3),
        round(min(max(anchor.y + rng.gauss(0, 1.0), 0.0), city), 3),
    )
