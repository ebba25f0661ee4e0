"""Unit tests for the randomized baselines ([5] and [18])."""

import numpy as np

from repro.algorithms import RandomizedEdgeRounding, RandomizedExtraTokens
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.core.monitors import LoadBoundsMonitor

from tests.helpers import spread_loads


class TestRandomizedExtraTokens:
    def test_sends_everything(self, expander24):
        balancer = RandomizedExtraTokens(seed=1).bind(expander24)
        loads = spread_loads(24, seed=51)
        sends = balancer.sends(loads, 1)
        np.testing.assert_array_equal(sends.sum(axis=1), loads)

    def test_at_least_floor_everywhere(self, expander24):
        balancer = RandomizedExtraTokens(seed=2).bind(expander24)
        loads = spread_loads(24, seed=52)
        sends = balancer.sends(loads, 1)
        floor = (loads // expander24.total_degree)[:, None]
        assert (sends >= floor).all()

    def test_reproducible_after_reset(self, expander24):
        balancer = RandomizedExtraTokens(seed=3).bind(expander24)
        loads = spread_loads(24, seed=53)
        first = balancer.sends(loads, 1)
        balancer.reset()
        second = balancer.sends(loads, 1)
        np.testing.assert_array_equal(first, second)

    def test_original_edges_only_mode(self, expander24):
        balancer = RandomizedExtraTokens(
            seed=4, include_self_loops=False
        ).bind(expander24)
        d_plus = expander24.total_degree
        loads = np.full(24, d_plus + 2, dtype=np.int64)
        sends = balancer.sends(loads, 1)
        # extras land on original ports only
        assert (sends[:, expander24.degree:] == 1).all()

    def test_never_negative_on_run(self, expander24):
        monitor = LoadBoundsMonitor()
        simulator = Simulator(
            expander24,
            RandomizedExtraTokens(seed=5),
            point_mass(24, 24 * 64),
            probes=(monitor,),
        )
        simulator.run(150)
        assert monitor.min_ever >= 0

    def test_balances(self, expander24):
        simulator = Simulator(
            expander24,
            RandomizedExtraTokens(seed=6),
            point_mass(24, 24 * 64),
        )
        result = simulator.run(300)
        assert result.final_discrepancy <= 4 * expander24.degree


class TestRandomizedEdgeRounding:
    def test_declared_negative_capable(self):
        assert RandomizedEdgeRounding(seed=1).allows_negative
        assert not RandomizedEdgeRounding(
            seed=1
        ).properties.negative_load_safe

    def test_sends_floor_or_ceil_per_edge(self, expander24):
        balancer = RandomizedEdgeRounding(seed=2).bind(expander24)
        loads = spread_loads(24, seed=61)
        sends = balancer.sends(loads, 1)
        d_plus = expander24.total_degree
        floor = (loads // d_plus)[:, None]
        originals = sends[:, : expander24.degree]
        assert (originals >= floor).all()
        assert (originals <= floor + 1).all()

    def test_negative_nodes_send_nothing(self, expander24):
        balancer = RandomizedEdgeRounding(seed=3).bind(expander24)
        loads = np.full(24, -5, dtype=np.int64)
        sends = balancer.sends(loads, 1)
        assert sends.sum() == 0

    def test_engine_allows_overdraw(self):
        """With tiny loads the demand can exceed supply: no crash."""
        from repro.graphs import families

        graph = families.random_regular(16, 4, seed=7)
        monitor = LoadBoundsMonitor()
        simulator = Simulator(
            graph,
            RandomizedEdgeRounding(seed=11),
            np.ones(16, dtype=np.int64),
            probes=(monitor,),
        )
        result = simulator.run(60)
        assert result.final_loads.sum() == 16  # conserved even if negative

    def test_balances(self, expander24):
        simulator = Simulator(
            expander24,
            RandomizedEdgeRounding(seed=8),
            point_mass(24, 24 * 64),
        )
        result = simulator.run(300)
        assert result.final_discrepancy <= 4 * expander24.degree

    def test_reproducible_after_reset(self, expander24):
        balancer = RandomizedEdgeRounding(seed=9).bind(expander24)
        loads = spread_loads(24, seed=62)
        first = balancer.sends(loads, 1)
        balancer.reset()
        second = balancer.sends(loads, 1)
        np.testing.assert_array_equal(first, second)
