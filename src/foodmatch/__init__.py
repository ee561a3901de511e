"""Surplus-food matching: intake, classification, volunteer assignment, and
chronological-acceptance matching of donors to receivers, with a
deterministic simulation harness."""

from .classify import ClassifiedLists, trifurcate
from .engine import (
    EligibilityTrace,
    MatchingEngine,
    MatchPolicy,
    OrchestratorConfig,
    assign_volunteers,
    ca_dtb,
    club_matches,
    expire_stale_matches,
    gated,
    match_receivers,
    vicinity_candidate,
)
from .geometry import (
    DeliveryRecord,
    Route,
    default_vicinity,
    distance,
    off_route_overhead,
    point_to_segment_distance,
    within_dropoff_band,
    within_pickup_radius,
)
from .model import (
    PERISHABILITY,
    DonationRequest,
    FoodType,
    Location,
    Match,
    MatchStatus,
    Perishability,
    RequestId,
    RequirementRequest,
    Sequencer,
    Thresholds,
    TimeWindow,
    VolunteerRequest,
)
from .pool import ActivePool, requeue_rejected, split_into_meals, submit_request
from .scenario import Scenario, ScenarioConfig, generate_scenario, load_scenario, save_scenario
from .simulate import AcceptanceModel, SimReport, run_simulation

__version__ = "0.1.0"
