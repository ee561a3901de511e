"""Experiment drivers: sweep mechanics, paired runs, manipulation plumbing."""

from types import SimpleNamespace

import pytest

from foodmatch import experiments
from foodmatch.engine import MatchPolicy
from foodmatch.experiments import (
    desk_policy_config,
    desk_volunteer_sweep_config,
    experiment_allocation_vs_volunteers,
    experiment_manipulation,
    experiment_paired_policies,
    manipulate_scenario,
)
from foodmatch.scenario import ScenarioConfig, generate_scenario, with_volunteer_count
from foodmatch.simulate import run_simulation


class TestVolunteerSweep:
    def test_zero_multiple_equals_volunteerless_baseline(self):
        config = desk_volunteer_sweep_config(seed=1, n_requests=150)
        points = experiment_allocation_vs_volunteers(config, [0.0])
        baseline = run_simulation(generate_scenario(with_volunteer_count(config, 0)))
        assert points[0].n_volunteers == 0
        assert points[0].allocation_pct == baseline.allocation["food_requests"]

    def test_point_per_multiple_with_spacing_preserved(self):
        config = desk_volunteer_sweep_config(seed=2, n_requests=120)
        multiples = [0.5, 1.0, 3.0]
        points = experiment_allocation_vs_volunteers(config, multiples)
        assert [p.multiple for p in points] == multiples
        n_d, _, _ = config.counts()
        assert [p.n_volunteers for p in points] == [round(m * n_d) for m in multiples]

    # multiples that include 0, are unsorted and repeat, on four corridor
    # seeds and one uniform city
    @pytest.mark.parametrize("config", [
        *(desk_volunteer_sweep_config(seed=seed, n_requests=120) for seed in range(4)),
        ScenarioConfig(n_requests=150, seed=9),
    ], ids=["corridor-0", "corridor-1", "corridor-2", "corridor-3", "uniform-9"])
    def test_each_point_runs_what_a_fresh_generation_gives(self, config, monkeypatch):
        generated, ran = [], []
        generate = experiments.generate_scenario
        monkeypatch.setattr(experiments, "generate_scenario", lambda cfg: generated.append(cfg) or generate(cfg))
        report = SimpleNamespace(allocation={"food_requests": 0.0}, fulfillment_pct=0.0)
        monkeypatch.setattr(experiments, "run_simulation", lambda scenario: ran.append(scenario) or report)
        multiples = (2, 0, 0.25, 2, 4)
        experiment_allocation_vs_volunteers(config, multiples)
        assert len(generated) == 1
        n_d, _, _ = config.counts()
        assert len(ran) == len(multiples)
        for multiple, scenario in zip(multiples, ran):
            fresh = generate(with_volunteer_count(config, round(multiple * n_d)))
            assert scenario.config == fresh.config
            assert scenario.requests == fresh.requests

    def test_invalid_multiples_rejected(self):
        config = desk_volunteer_sweep_config(seed=0, n_requests=60)
        with pytest.raises(ValueError):
            experiment_allocation_vs_volunteers(config, [])
        with pytest.raises(ValueError):
            experiment_allocation_vs_volunteers(config, [-1.0])


class TestPairedRuns:
    def test_rows_carry_their_seeds(self):
        rows = experiment_paired_policies(
            desk_policy_config(n_requests=120), [3, 4], MatchPolicy(receiver_sort="start"), MatchPolicy(receiver_sort="end")
        )
        assert [r.seed for r in rows] == [3, 4]
        for row in rows:
            assert 0.0 <= row.baseline_pct <= 100.0
            assert 0.0 <= row.variant_pct <= 100.0


class TestManipulation:
    def test_fraction_zero_is_identity(self):
        config = desk_policy_config(seed=5, n_requests=150)
        scenario = generate_scenario(config)
        manipulated, manipulators = manipulate_scenario(scenario, 0.0, seed=5)
        assert manipulators == []
        baseline = run_simulation(scenario)
        same = run_simulation(manipulated)
        assert baseline.allocation == same.allocation
        assert baseline.terminal_states == same.terminal_states

    def test_fraction_bounds_validated(self):
        scenario = generate_scenario(desk_policy_config(seed=5, n_requests=60))
        with pytest.raises(ValueError):
            manipulate_scenario(scenario, 101.0)

    def test_misreports_differ_from_truth(self):
        config = desk_policy_config(seed=6, n_requests=200)
        scenario = generate_scenario(config)
        manipulated, manipulators = manipulate_scenario(scenario, 50.0, seed=6)
        assert manipulators
        truth = {
            t.request.id.agent_id: t.request
            for t in scenario.requests
        }
        for agent_id, role, fake, _ in manipulators:
            original = truth[agent_id]
            true_list = (
                original.preferred_receivers if role == "donor" else original.preferred_donors
            )
            assert tuple(fake) != tuple(true_list)

    def test_true_lists_are_the_original_requests_lists(self):
        scenario = generate_scenario(desk_policy_config(seed=6, n_requests=200))
        truth = {t.request.id.agent_id: t.request for t in scenario.requests}
        _, manipulators = manipulate_scenario(scenario, 50.0, seed=6)
        assert manipulators
        for agent_id, role, _, true_list in manipulators:
            original = truth[agent_id]
            assert true_list == (original.preferred_receivers if role == "donor" else original.preferred_donors)

    def test_report_counts_every_manipulator(self):
        scenario = generate_scenario(desk_policy_config(seed=7, n_requests=150))
        report = experiment_manipulation(scenario, fraction=30.0)
        _, manipulators = manipulate_scenario(scenario, 30.0, seed=7)
        assert report.cases == len(report.outcomes) == len(manipulators) > 0
        assert all(o.gain == o.truthful_rank - o.misreport_rank for o in report.outcomes)
