"""The four simulation experiments.

Paired comparisons always reuse the same population: policy experiments run
one scenario under both policies, and the volunteer-availability sweep
regenerates only the volunteer pool, whose random stream is prefix-stable,
so a larger pool literally contains the smaller one. That keeps each
comparison a controlled experiment rather than two unrelated draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .engine import MatchPolicy
from .model import DonationRequest, FoodType, RequirementRequest
from .oracles import MisreportReport, partner_index, score_misreport
from .scenario import Scenario, ScenarioConfig, TimedRequest, generate_scenario, with_volunteer_count
from .simulate import TICK_MINUTES, SimReport, run_simulation

PERISHABLE_TYPES = (
    FoodType.FRESHLY_COOKED,
    FoodType.FROZEN_COOKED,
    FoodType.FRESH_PRODUCE,
    FoodType.FRUITS_AND_VEGETABLES,
    FoodType.MIXED,
)


def desk_volunteer_sweep_config(seed: int = 0, n_requests: int = 400) -> ScenarioConfig:
    """Desk-scale city for the volunteer-availability sweep.

    A cooked-meal rescue corridor: one donation district and one requirement
    district 11-16 km apart (past plain self-transport reach for perishable
    food, within motored reach), long requirement windows, and volunteers
    recruited across donation sites. Volunteer transport is what bridges the
    districts, so allocation responds to volunteer availability and levels
    off once every donation site is covered.
    """
    return ScenarioConfig(
        n_requests=n_requests,
        seed=seed,
        donor_hubs=1,
        receiver_hubs=1,
        hub_sigma=0.5,
        hub_separation=(11.0, 16.0),
        volunteer_near_agents=0.9,
        receiver_span=(300, 540),
        donor_span=(60, 180),
        receiver_amount_min=500,
        receiver_amount_max=1500,
        donor_amount_min=800,
        donor_amount_max=2200,
        motored_rate=0.85,
        ac_rate=0.15,
        food_types=PERISHABLE_TYPES,
    )


def desk_policy_config(seed: int = 0, n_requests: int = 600) -> ScenarioConfig:
    """Desk-scale city for the policy experiments (receiver sorting and
    preference updating): the volunteer-sweep corridor with deadlines of
    widely varying tightness and scarce donations, which make the serving
    order and the preference treatment bind."""
    return replace(
        desk_volunteer_sweep_config(seed, n_requests),
        donor_fraction=0.2,
        receiver_fraction=0.5,
        volunteer_fraction=0.3,
        receiver_span=(30, 300),
        preference_lengths=(0, 1, 2, 3, 4),
    )


@dataclass
class CurvePoint:
    multiple: float
    n_volunteers: int
    allocation_pct: float
    receiver_fulfillment_pct: float


def experiment_allocation_vs_volunteers(
    config: ScenarioConfig,
    multiples: Sequence[float],
    tick_minutes: int = TICK_MINUTES,
) -> list[CurvePoint]:
    """Allocation as the volunteer pool grows in multiples of the donor count.

    Allocation here is over food requests (donors plus receivers): the
    volunteer population is the experimental variable, so it stays out of
    the denominator.
    """
    if not multiples or not all(0 <= m < math.inf for m in multiples):
        raise ValueError("multiples must be non-empty, finite and non-negative")
    n_d, _, _ = config.counts()
    points = []
    for multiple in multiples:
        cfg = with_volunteer_count(config, round(multiple * n_d))
        scenario = generate_scenario(cfg)
        report = run_simulation(scenario, tick_minutes=tick_minutes)
        points.append(
            CurvePoint(
                multiple=multiple,
                n_volunteers=cfg.counts()[2],
                allocation_pct=report.allocation["food_requests"],
                receiver_fulfillment_pct=report.fulfillment_pct,
            )
        )
    return points


@dataclass
class PairedRun:
    seed: int
    baseline_pct: float
    variant_pct: float


def experiment_paired_policies(
    config: ScenarioConfig,
    seeds: Sequence[int],
    baseline: MatchPolicy,
    variant: MatchPolicy,
    tick_minutes: int = TICK_MINUTES,
) -> list[PairedRun]:
    """The baseline policy against the variant on the same scenario per seed.

    fig8b pairs start-sorted with end-sorted receivers, both on
    eligibility-updated preferences; fig8c pairs submitted (raw) with
    eligibility-updated preferences, both end-sorted.
    """
    rows = []
    for seed in seeds:
        scenario = generate_scenario(replace(config, seed=seed))
        baseline_run = run_simulation(scenario, baseline, tick_minutes=tick_minutes)
        variant_run = run_simulation(scenario, variant, tick_minutes=tick_minutes)
        rows.append(
            PairedRun(
                seed=seed,
                baseline_pct=baseline_run.allocation["food_requests"],
                variant_pct=variant_run.allocation["food_requests"],
            )
        )
    return rows


def _misreport_list(rng: random.Random, original: tuple[int, ...]) -> tuple[int, ...]:
    entries = list(original)
    if len(entries) > 1 and rng.random() < 0.5:
        while True:
            rng.shuffle(entries)
            if tuple(entries) != original:
                return tuple(entries)
    cut = rng.randint(0, max(0, len(entries) - 1))
    return tuple(entries[:cut])


def manipulate_scenario(
    scenario: Scenario, fraction: float, seed: int = 0
) -> tuple[Scenario, list[tuple[int, str, tuple[int, ...]]]]:
    """A copy of the scenario where the given percentage of donors and
    receivers with stated preferences misreport (shuffle or truncate)."""
    if not (0.0 <= fraction <= 100.0):
        raise ValueError("fraction must be a percentage")
    rng = random.Random(f"{seed}:manipulation")
    eligible_idx = [
        i
        for i, timed in enumerate(scenario.requests)
        if (isinstance(timed.request, DonationRequest) and timed.request.preferred_receivers)
        or (isinstance(timed.request, RequirementRequest) and timed.request.preferred_donors)
    ]
    count = round(len(eligible_idx) * fraction / 100.0)
    chosen = sorted(rng.sample(eligible_idx, count)) if count else []

    manipulators = []
    requests = list(scenario.requests)
    for i in chosen:
        timed = requests[i]
        request = timed.request
        if isinstance(request, DonationRequest):
            fake = _misreport_list(rng, request.preferred_receivers)
            request = replace(request, preferred_receivers=fake)
            manipulators.append((request.id.agent_id, "donor", fake))
        else:
            fake = _misreport_list(rng, request.preferred_donors)
            request = replace(request, preferred_donors=fake)
            manipulators.append((request.id.agent_id, "receiver", fake))
        requests[i] = TimedRequest(submit_at=timed.submit_at, request=request)
    return Scenario(config=scenario.config, requests=requests), manipulators


def _accepted_pairs(report: SimReport):
    return ((group["donor_agent"], group["receiver_agent"]) for group in report.accepted_groups)


def experiment_manipulation(
    config: ScenarioConfig,
    fraction: float,
    tick_minutes: int = TICK_MINUTES,
    scenario: Optional[Scenario] = None,
) -> MisreportReport:
    """Bulk preference manipulation against the truthful baseline.

    Each manipulator's outcome is scored by its true preference list in both
    runs with the misreport probe's scorer; gain is truthful rank minus
    manipulated rank, so positive means the lie helped.
    """
    scenario = scenario if scenario is not None else generate_scenario(config)
    manipulated, manipulators = manipulate_scenario(scenario, fraction, seed=config.seed)

    truthful_report = run_simulation(scenario, tick_minutes=tick_minutes, trace=True)
    manip_report = run_simulation(manipulated, tick_minutes=tick_minutes, trace=True)

    true_lists: dict[tuple[int, str], tuple[int, ...]] = {}
    for timed in scenario.requests:
        request = timed.request
        if isinstance(request, DonationRequest):
            true_lists[(request.id.agent_id, "donor")] = request.preferred_receivers
        elif isinstance(request, RequirementRequest):
            true_lists[(request.id.agent_id, "receiver")] = request.preferred_donors

    truthful = partner_index(_accepted_pairs(truthful_report))
    manipulated_partners = partner_index(_accepted_pairs(manip_report))

    report = MisreportReport()
    for agent_id, role, fake in manipulators:
        key = (agent_id, role)
        report.outcomes.append(score_misreport(
            agent_id, role, fake, true_lists.get(key, ()),
            truthful.get(key, []),
            manipulated_partners.get(key, []),
            manip_report.eligibility_universes.get(agent_id, ()),
        ))
    return report
