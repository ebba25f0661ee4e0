"""Unit tests for the BalancingGraph structure."""

import pickle

import numpy as np
import pytest

from repro.graphs.balancing import BalancingGraph
from repro.graphs.errors import GraphValidationError
from repro.graphs import families


def triangle(num_self_loops=2):
    adjacency = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int64)
    return BalancingGraph(adjacency, num_self_loops)


class TestBasicStructure:
    def test_degrees(self):
        graph = triangle(3)
        assert graph.num_nodes == 3
        assert graph.degree == 2
        assert graph.num_self_loops == 3
        assert graph.total_degree == 5

    def test_rejects_negative_self_loops(self):
        with pytest.raises(GraphValidationError):
            triangle(-1)

    def test_neighbors_in_port_order(self):
        graph = triangle()
        assert graph.neighbors(0) == (1, 2)
        assert graph.neighbors(2) == (0, 1)

    def test_port_target_original(self):
        graph = triangle()
        assert graph.port_target(0, 0) == 1
        assert graph.port_target(0, 1) == 2

    def test_port_target_self_loop(self):
        graph = triangle(2)
        assert graph.port_target(1, 2) == 1
        assert graph.port_target(1, 3) == 1

    def test_port_target_out_of_range(self):
        graph = triangle(1)
        with pytest.raises(IndexError):
            graph.port_target(0, 3)

    def test_is_original_port(self):
        graph = triangle(2)
        assert graph.is_original_port(0)
        assert graph.is_original_port(1)
        assert not graph.is_original_port(2)

    def test_num_edges(self):
        assert triangle().num_edges() == 3
        assert families.cycle(10).num_edges() == 10

    def test_edge_list(self):
        assert triangle().edge_list() == [(0, 1), (0, 2), (1, 2)]

    def test_with_self_loops(self):
        graph = triangle(2).with_self_loops(5)
        assert graph.num_self_loops == 5
        assert graph.degree == 2

    def test_adjacency_is_readonly(self):
        graph = triangle()
        with pytest.raises(ValueError):
            graph.adjacency[0, 0] = 5


class TestTransitionMatrix:
    def test_rows_sum_to_one(self):
        matrix = triangle(2).transition_matrix()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_entries(self):
        graph = triangle(2)  # d+ = 4
        matrix = graph.transition_matrix()
        assert matrix[0, 1] == pytest.approx(0.25)
        assert matrix[0, 0] == pytest.approx(0.5)

    def test_symmetric(self):
        matrix = families.random_regular(16, 4, seed=1).transition_matrix()
        np.testing.assert_allclose(matrix, matrix.T)

    def test_cached(self):
        graph = triangle()
        assert graph.transition_matrix() is graph.transition_matrix()


class TestMetricStructure:
    def test_distances_cycle(self):
        graph = families.cycle(8)
        dist = graph.distances_from(0)
        assert dist[0] == 0
        assert dist[4] == 4
        assert dist[7] == 1

    def test_diameter_cycle(self):
        assert families.cycle(8).diameter() == 4
        assert families.cycle(9).diameter() == 4

    def test_diameter_complete(self):
        assert families.complete(6).diameter() == 1

    def test_eccentric_pair(self):
        graph = families.cycle(10)
        u, w = graph.eccentric_pair()
        assert graph.distances_from(u)[w] == 5

    def test_odd_girth_odd_cycle(self):
        assert families.cycle(9).odd_girth() == 9

    def test_odd_girth_even_cycle_is_bipartite(self):
        assert families.cycle(8).odd_girth() is None
        assert families.cycle(8).is_bipartite()

    def test_odd_girth_petersen(self):
        assert families.petersen().odd_girth() == 5

    def test_hypercube_bipartite(self):
        assert families.hypercube(3).is_bipartite()

    def test_is_connected(self):
        assert families.cycle(5).is_connected()


class TestInterop:
    def test_from_networkx(self):
        import networkx as nx

        graph = BalancingGraph.from_networkx(nx.cycle_graph(6))
        assert graph.num_nodes == 6
        assert graph.degree == 2
        assert graph.num_self_loops == 2  # defaults to d

    def test_from_networkx_rejects_irregular(self):
        import networkx as nx

        with pytest.raises(GraphValidationError, match="not regular"):
            BalancingGraph.from_networkx(nx.path_graph(4))

    def test_to_networkx_roundtrip(self):
        graph = families.petersen()
        back = BalancingGraph.from_networkx(graph.to_networkx(), 3)
        assert back.edge_list() == graph.edge_list()

    def test_from_edge_list(self):
        graph = BalancingGraph.from_edge_list(
            3, [(0, 1), (1, 2), (2, 0)], 2
        )
        assert graph.degree == 2
        assert graph.num_self_loops == 2

    def test_from_edge_list_rejects_irregular(self):
        with pytest.raises(GraphValidationError, match="not regular"):
            BalancingGraph.from_edge_list(3, [(0, 1), (1, 2)])

    def test_describe(self):
        info = triangle(2).describe()
        assert info["n"] == 3
        assert info["d_plus"] == 4


class TestPickle:
    """Suite workers on a platform without fork get their graph pickled."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: families.cycle(9),
            lambda: families.random_regular(16, 4, seed=3),
            lambda: families.build("fat_tree", k=4),
        ],
        ids=["cycle", "random_regular", "fat_tree"],
    )
    def test_round_trip_keeps_arrays_and_read_only(self, build):
        graph = build()
        graph.transition_matrix()
        back = pickle.loads(pickle.dumps(graph))
        np.testing.assert_array_equal(back.adjacency, graph.adjacency)
        np.testing.assert_array_equal(back.reverse_port, graph.reverse_port)
        np.testing.assert_array_equal(
            back.transition_matrix(), graph.transition_matrix()
        )
        for array in (
            back.adjacency, back.reverse_port, back.transition_matrix()
        ):
            assert not array.flags.writeable


class TestMemoryEstimate:
    def test_structured_smaller_than_dense(self):
        from repro.graphs.balancing import estimate_memory_bytes

        for d_plus in (8, 16, 64):
            assert estimate_memory_bytes(
                1000, d_plus, engine="dense"
            ) > estimate_memory_bytes(1000, d_plus, engine="structured")
        # The per-port term and the inflow operator scale with the
        # original degree, not d+.
        assert estimate_memory_bytes(
            1000, 64, engine="structured", degree=2
        ) < estimate_memory_bytes(1000, 64, engine="structured")

    def test_unknown_engine_rejected(self):
        from repro.graphs.balancing import estimate_memory_bytes

        with pytest.raises(ValueError, match="unknown engine"):
            estimate_memory_bytes(1000, 4, engine="warp")

    # -- per-backend operator terms vs measured nbytes ------------------
    #
    # The estimates are planning numbers, but their *operator* terms
    # are exact formulas for the arrays the backends actually allocate.
    # Pin each term against measured nbytes at small n so a backend
    # data-structure change cannot silently drift the planner.

    def _graph(self, n=64):
        from repro.graphs import families

        # cycle + 2 self-loops: d = 2, d+ = 4 (the paper's d+ = 2d).
        return families.cycle(n, num_self_loops=2)

    def test_rotor_gather_term_matches_operator_nbytes(self):
        from repro.algorithms.rotor_router import RotorRouter
        from repro.core.structured import inflow_gather
        from repro.graphs.balancing import estimate_memory_bytes

        graph = self._graph()
        RotorRouter().bind(graph)
        inflow = inflow_gather(graph)
        # The indices are the adjacency itself, and the rotor gather
        # borrows data and indptr: those two are all the operator adds.
        measured = inflow.data.nbytes + inflow.indptr.nbytes
        n, d = graph.num_nodes, graph.degree
        estimated = estimate_memory_bytes(
            n, graph.total_degree, engine="structured", degree=d
        ) - 8 * n * (6 + d)
        assert estimated == measured
