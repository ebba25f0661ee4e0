"""Tests for the non-regular extension (padding reduction)."""

import numpy as np
import pytest

from repro.algorithms import (
    RotorRouter,
    RotorRouterStar,
    SendFloor,
    SendRounded,
    make,
)
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.graphs.errors import GraphValidationError
from repro.graphs.irregular import (
    PaddedBalancingGraph,
    from_irregular_edges,
    from_networkx_irregular,
)
from repro.graphs.spectral import eigenvalue_gap

from tests.helpers import run_monitored


def lollipop():
    """Triangle with a two-edge tail: degrees 1..3."""
    return from_irregular_edges(
        5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    )


class TestConstruction:
    def test_padding_shape(self):
        graph = lollipop()
        assert graph.num_nodes == 5
        assert graph.degree == 3  # d_max
        assert graph.num_self_loops == 3  # defaults to d_max
        assert graph.total_degree == 6

    def test_true_degrees(self):
        graph = lollipop()
        assert list(graph.true_degrees) == [2, 2, 3, 2, 1]

    def test_padding_counts(self):
        graph = lollipop()
        assert graph.padding_count(2) == 0
        assert graph.padding_count(4) == 2

    def test_neighbors_exclude_padding(self):
        graph = lollipop()
        assert graph.neighbors(4) == (3,)
        assert graph.port_target(4, 1) == 4  # padded port
        assert graph.port_target(4, 5) == 4  # lazy self-loop

    def test_rejects_isolated_node(self):
        with pytest.raises(GraphValidationError, match="no edges"):
            from_irregular_edges(3, [(0, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphValidationError, match="disconnected"):
            from_irregular_edges(4, [(0, 1), (2, 3)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            from_irregular_edges(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_explicit_self_loop(self):
        with pytest.raises(GraphValidationError):
            from_irregular_edges(2, [(0, 0), (0, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(
            GraphValidationError, match=r"endpoints must lie in \[0, 3\)"
        ):
            from_irregular_edges(3, [(0, 1), (1, 5)])

    def test_constructor_rejects_out_of_range_neighbor(self):
        # Path 0-1-2 with node 0 listing 5.
        with pytest.raises(
            GraphValidationError, match=r"must lie in \[0, 2\]"
        ):
            PaddedBalancingGraph(
                [[5, 0], [0, 2], [1, 2]], [1, 2, 1], num_self_loops=1
            )

    def test_constructor_rejects_asymmetric_edge(self):
        # Path 0-1-2 where node 2 lists 0 instead of 1.
        with pytest.raises(
            GraphValidationError,
            match=r"edge \(2, 0\) is not symmetric: 0 does not list 2",
        ):
            PaddedBalancingGraph(
                [[1, 0], [0, 2], [0, 2]], [1, 2, 1], num_self_loops=1
            )

    def test_from_networkx(self):
        import networkx as nx

        graph = from_networkx_irregular(nx.wheel_graph(7))
        assert graph.num_nodes == 7
        assert graph.degree == 6  # hub degree
        assert graph.is_connected()

    def test_reverse_port_padding_is_identity(self):
        graph = lollipop()
        for u in range(5):
            deg = int(graph.true_degrees[u])
            for p in range(deg, graph.degree):
                assert graph.reverse_port[u, p] == p


class TestMarkovChain:
    def test_doubly_stochastic(self):
        matrix = lollipop().transition_matrix()
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_symmetric(self):
        matrix = lollipop().transition_matrix()
        np.testing.assert_allclose(matrix, matrix.T)

    def test_spectral_gap_positive(self):
        assert eigenvalue_gap(lollipop()) > 0

    def test_continuous_process_balances_to_uniform(self):
        from repro.algorithms.continuous import ContinuousDiffusion

        graph = lollipop()
        process = ContinuousDiffusion(graph)
        result = process.run(np.array([50.0, 0, 0, 0, 0]), rounds=400)
        np.testing.assert_allclose(result.final_loads, 10.0, atol=1e-3)


class TestEngineOnIrregular:
    @pytest.mark.parametrize(
        "balancer_factory",
        [SendFloor, SendRounded, RotorRouter, RotorRouterStar],
        ids=["send_floor", "send_rounded", "rotor", "rotor_star"],
    )
    def test_conservation_and_balance(self, balancer_factory):
        graph = lollipop()
        simulator = Simulator(
            graph, balancer_factory(), point_mass(5, 600)
        )
        result = simulator.run(400)
        assert result.final_loads.sum() == 600
        assert result.final_discrepancy <= 2 * graph.total_degree

    def test_every_registered_algorithm_runs(self):
        import networkx as nx

        graph = from_networkx_irregular(
            nx.barbell_graph(5, 2)
        )
        from repro.algorithms.registry import all_names

        for name in all_names():
            simulator = Simulator(
                graph,
                make(name, seed=2),
                point_mass(graph.num_nodes, graph.num_nodes * 24),
            )
            result = simulator.run(150)
            assert result.final_loads.sum() == graph.num_nodes * 24

    def test_rotor_router_still_cumulatively_1_fair(self):
        graph = lollipop()
        _, verdict, _, _ = run_monitored(
            graph, RotorRouter(), point_mass(5, 300), rounds=60
        )
        assert verdict.round_fair
        assert verdict.observed_delta <= 1

    def test_send_floor_still_cumulatively_0_fair(self):
        graph = lollipop()
        _, verdict, _, _ = run_monitored(
            graph, SendFloor(), point_mass(5, 300), rounds=60
        )
        assert verdict.is_cumulatively_fair(0)

    def test_star_graph_extreme_irregularity(self):
        """Hub degree n-1, leaves degree 1 — worst-case padding."""
        edges = [(0, leaf) for leaf in range(1, 9)]
        graph = from_irregular_edges(9, edges)
        simulator = Simulator(graph, RotorRouter(), point_mass(9, 900))
        result = simulator.run(600)
        assert result.final_loads.sum() == 900
        assert result.final_discrepancy <= 2 * graph.total_degree
