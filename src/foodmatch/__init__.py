"""Surplus-food matching: intake, classification, volunteer assignment, and
chronological-acceptance matching of donors to receivers, with a
deterministic simulation harness."""

from .engine import MatchPolicy
from .model import Thresholds
from .scenario import Scenario, ScenarioConfig, generate_scenario, load_scenario, save_scenario
from .simulate import AcceptanceModel, SimReport, run_simulation

__version__ = "0.1.0"
