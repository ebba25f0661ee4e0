"""Unit tests for the Section 3 potential functions."""

import numpy as np
import pytest

from repro.algorithms import RotorRouterStar, SendRounded
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.core.potentials import (
    PotentialMonitor,
    final_discrepancy_bound,
    phi,
    phi_prime,
    phi_profile,
    potential_drop,
    potential_drop_prime,
    threshold_c0,
)
from repro.graphs import families


class TestDefinitions:
    def test_phi_counts_tokens_above_threshold(self):
        loads = np.array([10, 3, 8])
        # c*d+ = 6: max(10-6,0)+max(3-6,0)+max(8-6,0) = 4+0+2
        assert phi(loads, c=2, d_plus=3) == 6

    def test_phi_zero_when_all_below(self):
        assert phi(np.array([1, 2]), c=1, d_plus=5) == 0

    def test_phi_prime_counts_gaps(self):
        loads = np.array([10, 3, 8])
        # c*d+ + s = 6 + 2 = 8: gaps 0, 5, 0
        assert phi_prime(loads, c=2, d_plus=3, s=2) == 5

    def test_phi_profile_decreasing_in_c(self):
        loads = np.array([9, 9, 1])
        profile = phi_profile(loads, d_plus=2, c_max=5)
        assert all(a >= b for a, b in zip(profile, profile[1:]))

    def test_thresholds(self):
        c0 = threshold_c0(average=10.0, d_plus=4, d_self=2, delta=1)
        assert c0 * 4 >= 10 + 4 + 4 + 2

    def test_final_bound(self):
        assert final_discrepancy_bound(12, 6, delta=1) == 3 * 12 + 24


class TestDropFormulas:
    def test_drop_on_downward_crossing(self):
        before = np.array([10])
        after = np.array([5])
        # c*d+ = 6, s = 2: min(10, 8) - max(5, 6) = 8 - 6 = 2
        assert potential_drop(before, after, c=2, d_plus=3, s=2) == 2

    def test_no_drop_when_not_crossing(self):
        before = np.array([10])
        after = np.array([11])
        assert potential_drop(before, after, c=2, d_plus=3, s=2) == 0

    def test_drop_prime_on_upward_crossing(self):
        before = np.array([5])
        after = np.array([10])
        # climbing through [6, 8]: min(10,8) - max(5,6) = 2
        assert potential_drop_prime(before, after, c=2, d_plus=3, s=2) == 2

    def test_drop_prime_zero_above_band(self):
        before = np.array([9])
        after = np.array([12])
        assert potential_drop_prime(before, after, c=2, d_plus=3, s=2) == 0


class TestMonitorOnRealRuns:
    @pytest.mark.parametrize(
        "balancer_factory",
        [RotorRouterStar, SendRounded],
        ids=["rotor_router_star", "send_rounded"],
    )
    def test_monotone_on_good_balancers(self, balancer_factory):
        """Lemmas 3.5/3.7: φ and φ' never increase for good s-balancers."""
        graph = families.random_regular(24, 4, seed=2, num_self_loops=8)
        initial = point_mass(24, 24 * 48)
        average = initial.sum() / 24
        c_center = int(average // graph.total_degree)
        c_values = [max(c_center - 1, 0), c_center, c_center + 1]
        monitor = PotentialMonitor(c_values, s=1)
        simulator = Simulator(
            graph, balancer_factory(), initial, probes=(monitor,)
        )
        simulator.run(150)
        assert monitor.all_monotone()

    def test_histories_have_expected_length(self):
        graph = families.cycle(8)
        monitor = PotentialMonitor([1], s=1)
        simulator = Simulator(
            graph, RotorRouterStar(), point_mass(8, 80), probes=(monitor,)
        )
        simulator.run(9)
        assert len(monitor.phi_history[1]) == 10
        assert len(monitor.phi_prime_history[1]) == 10

    def test_phi_reaches_zero_after_balancing(self):
        graph = families.random_regular(16, 4, seed=5)
        initial = point_mass(16, 16 * 32)
        average = 32
        c_high = average // graph.total_degree + 3
        monitor = PotentialMonitor([c_high], s=1)
        simulator = Simulator(
            graph, RotorRouterStar(), initial, probes=(monitor,)
        )
        simulator.run(400)
        assert monitor.phi_history[c_high][-1] == 0
