"""Unit tests for flow accounting (the paper's F_t identities)."""

import numpy as np

from repro.algorithms import RotorRouter, SendFloor, SendRounded
from repro.core.engine import Simulator
from repro.core.flows import (
    FlowTracker,
    antisymmetric_net_flow,
    directed_edge_flows,
)
from repro.core.loads import point_mass

from tests.helpers import spread_loads


def run_with_tracker(graph, balancer, loads, rounds, record_rounds=False):
    tracker = FlowTracker(record_rounds=record_rounds)
    simulator = Simulator(graph, balancer, loads, probes=(tracker,))
    result = simulator.run(rounds)
    return result, tracker


class TestCumulativeIdentities:
    def test_flow_identity_reconstructs_loads(self, expander24):
        """Identity (1): x1 + F_in - F_out equals the current vector."""
        loads = spread_loads(24, seed=2)
        result, tracker = run_with_tracker(
            expander24, RotorRouter(), loads, 40
        )
        reconstructed = tracker.conservation_identity_error(loads)
        np.testing.assert_array_equal(reconstructed, result.final_loads)

    def test_flow_identity_send_floor(self, torus9):
        loads = point_mass(9, 900)
        result, tracker = run_with_tracker(torus9, SendFloor(), loads, 25)
        np.testing.assert_array_equal(
            tracker.conservation_identity_error(loads),
            result.final_loads,
        )

    def test_out_flow_equals_port_sums(self, expander24):
        loads = spread_loads(24, seed=5)
        _, tracker = run_with_tracker(expander24, SendFloor(), loads, 10)
        np.testing.assert_array_equal(
            tracker.cumulative_out(), tracker.cumulative.sum(axis=1)
        )

    def test_total_in_equals_total_out(self, expander24):
        loads = spread_loads(24, seed=8)
        _, tracker = run_with_tracker(expander24, RotorRouter(), loads, 15)
        assert tracker.cumulative_in().sum() == tracker.cumulative_out().sum()


class TestSpread:
    def test_send_floor_spread_zero(self, expander24):
        """Observation 2.2: SEND(⌊x/d+⌋) is cumulatively 0-fair."""
        loads = spread_loads(24, seed=3)
        _, tracker = run_with_tracker(expander24, SendFloor(), loads, 30)
        assert tracker.original_spread().max() == 0

    def test_rotor_router_spread_at_most_one(self, expander24):
        """Observation 2.2: ROTOR-ROUTER is cumulatively 1-fair."""
        loads = spread_loads(24, seed=4)
        _, tracker = run_with_tracker(expander24, RotorRouter(), loads, 30)
        assert tracker.original_spread().max() <= 1

    def test_send_rounded_spread_zero(self, expander24):
        loads = spread_loads(24, seed=6)
        _, tracker = run_with_tracker(expander24, SendRounded(), loads, 30)
        assert tracker.original_spread().max() == 0


class TestRemainder:
    def test_rotor_router_zero_remainder(self, expander24):
        loads = spread_loads(24, seed=9)
        _, tracker = run_with_tracker(expander24, RotorRouter(), loads, 10)
        assert tracker.max_abs_remainder == 0

    def test_send_floor_zero_remainder_with_loops(self, expander24):
        loads = spread_loads(24, seed=10)
        _, tracker = run_with_tracker(expander24, SendFloor(), loads, 10)
        assert tracker.max_abs_remainder == 0


class TestHistory:
    def test_round_history_stacks(self, cycle12):
        loads = point_mass(12, 60)
        _, tracker = run_with_tracker(
            cycle12, SendFloor(), loads, 4, record_rounds=True
        )
        stacked = tracker.flow_per_round()
        assert stacked.shape == (4, 12, 4)
        np.testing.assert_array_equal(
            stacked.sum(axis=0), tracker.cumulative
        )

    def test_history_requires_flag(self, cycle12):
        import pytest

        _, tracker = run_with_tracker(
            cycle12, SendFloor(), point_mass(12, 12), 2
        )
        with pytest.raises(RuntimeError):
            tracker.flow_per_round()


class TestEdgeViews:
    def test_directed_flows_keys(self, cycle12):
        _, tracker = run_with_tracker(
            cycle12, SendFloor(), point_mass(12, 120), 5
        )
        flows = directed_edge_flows(tracker, cycle12)
        assert len(flows) == 12 * 2
        assert all(value >= 0 for value in flows.values())

    def test_net_flow_antisymmetric_keys(self, cycle12):
        _, tracker = run_with_tracker(
            cycle12, SendFloor(), point_mass(12, 120), 5
        )
        net = antisymmetric_net_flow(tracker, cycle12)
        assert len(net) == 12  # one entry per undirected edge
