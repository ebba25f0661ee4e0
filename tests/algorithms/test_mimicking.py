"""Unit tests for the continuous-mimicking baseline ([4])."""

import numpy as np

from repro.algorithms import ContinuousMimicking
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.graphs import families

from tests.helpers import spread_loads


class TestTracking:
    def test_bounded_error_property(self, expander24):
        """|F_t(e) - C_t(e)| <= 1/2 for every edge at every time."""
        balancer = ContinuousMimicking()
        simulator = Simulator(
            expander24, balancer, point_mass(24, 24 * 64)
        )
        for _ in range(60):
            simulator.step()
            assert balancer.tracking_error <= 0.5 + 1e-9

    def test_flows_nonnegative(self, expander24):
        balancer = ContinuousMimicking().bind(expander24)
        loads = spread_loads(24, seed=71)
        for t in range(1, 30):
            sends = balancer.sends(loads, t)
            assert sends.min() >= 0

    def test_reset_clears_state(self, expander24):
        balancer = ContinuousMimicking().bind(expander24)
        loads = point_mass(24, 240)
        first = balancer.sends(loads, 1).copy()
        balancer.reset()
        second = balancer.sends(loads, 1)
        np.testing.assert_array_equal(first, second)

    def test_deterministic(self, expander24):
        a = Simulator(
            expander24, ContinuousMimicking(), point_mass(24, 517)
        )
        b = Simulator(
            expander24, ContinuousMimicking(), point_mass(24, 517)
        )
        for _ in range(25):
            np.testing.assert_array_equal(a.step(), b.step())


class TestDiscrepancy:
    def test_reaches_two_d(self, expander24):
        """[4]: discrepancy 2d after T (we allow the budget to be ample)."""
        simulator = Simulator(
            expander24, ContinuousMimicking(), point_mass(24, 24 * 64)
        )
        result = simulator.run(400)
        assert result.final_discrepancy <= 2 * expander24.degree

    def test_reaches_two_d_on_cycle(self):
        graph = families.cycle(16)
        simulator = Simulator(
            graph, ContinuousMimicking(), point_mass(16, 16 * 32)
        )
        result = simulator.run(3000)
        assert result.final_discrepancy <= 2 * graph.degree

    def test_can_go_negative_with_tiny_loads(self):
        """The paper's caveat: insufficient load => negative values."""
        from repro.core.monitors import LoadBoundsMonitor

        graph = families.cycle(12)
        loads = np.zeros(12, dtype=np.int64)
        loads[0] = 6
        monitor = LoadBoundsMonitor()
        simulator = Simulator(
            graph, ContinuousMimicking(), loads, probes=(monitor,)
        )
        simulator.run(40)
        # Token count is conserved regardless.
        assert simulator.loads.sum() == 6
