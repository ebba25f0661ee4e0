"""Unit tests for adjacency validation and the reverse-port map."""

import numpy as np
import pytest

from repro.graphs import families, validation
from repro.graphs.balancing import BalancingGraph
from repro.graphs.errors import GraphValidationError
from repro.graphs.validation import (
    is_connected,
    require_connected,
    reverse_port_map,
    validate_adjacency,
)


def triangle():
    return np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int64)


class TestValidateAdjacency:
    def test_accepts_triangle(self):
        out = validate_adjacency(triangle())
        assert out.dtype == np.int64
        assert out.shape == (3, 2)

    def test_rejects_1d(self):
        with pytest.raises(GraphValidationError, match="2-dimensional"):
            validate_adjacency(np.array([0, 1, 2]))

    def test_rejects_empty(self):
        with pytest.raises(GraphValidationError):
            validate_adjacency(np.empty((0, 2), dtype=np.int64))

    def test_rejects_out_of_range(self):
        bad = triangle()
        bad[0, 0] = 7
        with pytest.raises(GraphValidationError, match="lie in"):
            validate_adjacency(bad)

    def test_rejects_negative(self):
        bad = triangle()
        bad[1, 1] = -1
        with pytest.raises(GraphValidationError):
            validate_adjacency(bad)

    def test_rejects_self_edge(self):
        bad = np.array([[0, 1], [0, 2], [0, 1]], dtype=np.int64)
        with pytest.raises(GraphValidationError, match="itself"):
            validate_adjacency(bad)

    def test_rejects_parallel_edges(self):
        bad = np.array([[1, 1], [0, 0]], dtype=np.int64)
        with pytest.raises(GraphValidationError, match="parallel"):
            validate_adjacency(bad)

    def test_rejects_asymmetric(self):
        # 0 lists 1 but 1 does not list 0.
        bad = np.array([[1, 2], [2, 3], [0, 1], [1, 0]], dtype=np.int64)
        with pytest.raises(GraphValidationError, match="not symmetric"):
            validate_adjacency(bad)

    def test_accepts_float_integers(self):
        out = validate_adjacency(triangle().astype(np.float64))
        assert out.dtype == np.int64


class TestReversePortMap:
    def test_triangle_roundtrip(self):
        adjacency = validate_adjacency(triangle())
        reverse = reverse_port_map(adjacency)
        n, d = adjacency.shape
        for u in range(n):
            for p in range(d):
                v = adjacency[u, p]
                assert adjacency[v, reverse[u, p]] == u

    def test_cycle_roundtrip(self):
        n = 8
        nodes = np.arange(n)
        adjacency = validate_adjacency(
            np.stack([(nodes - 1) % n, (nodes + 1) % n], axis=1)
        )
        reverse = reverse_port_map(adjacency)
        for u in range(n):
            for p in range(2):
                v = adjacency[u, p]
                assert adjacency[v, reverse[u, p]] == u


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(triangle())

    def test_two_triangles_disconnected(self):
        two = np.array(
            [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]],
            dtype=np.int64,
        )
        assert not is_connected(two)
        with pytest.raises(GraphValidationError, match="disconnected"):
            require_connected(two)


SORTED_ROW_GRAPHS = {
    "cycle": lambda: families.cycle(9),
    "torus": lambda: families.torus(side=4, dimensions=2),
    "hypercube": lambda: families.hypercube(dimension=4),
    "complete": lambda: families.complete(7),
    "random_regular": lambda: families.random_regular(16, 5, seed=3),
}


def _shuffled_ports(adjacency: np.ndarray, seed: int = 0):
    """The same graph with every row's ports permuted, and the perms."""
    rng = np.random.default_rng(seed)
    perms = np.array(
        [rng.permutation(adjacency.shape[1]) for _ in adjacency]
    )
    return np.take_along_axis(adjacency, perms, axis=1), perms


class TestOneEdgeSort:
    """A build sorts its directed edges once; row-sorted adjacency takes
    the single-argsort fast path, everything else the lexsort path."""

    @pytest.mark.parametrize(
        "shuffle", [False, True], ids=["sorted", "shuffled"]
    )
    def test_build_sorts_edges_once(self, monkeypatch, shuffle):
        calls = []
        original = validation._directed_edge_orders

        def counting(adjacency, rows_sorted):
            calls.append(rows_sorted)
            return original(adjacency, rows_sorted)

        adjacency = families.cycle(12).adjacency
        if shuffle:
            adjacency, _ = _shuffled_ports(adjacency)
        monkeypatch.setattr(validation, "_directed_edge_orders", counting)
        BalancingGraph(adjacency, 2)
        assert calls == [not shuffle]

    @pytest.mark.parametrize("name", sorted(SORTED_ROW_GRAPHS))
    def test_fast_path_matches_general_path(self, name):
        adjacency = np.array(SORTED_ROW_GRAPHS[name]().adjacency)
        assert np.all(np.diff(adjacency, axis=1) > 0), "rows must be sorted"
        fast, general = (
            validation._reverse_ports(
                adjacency,
                *validation._directed_edge_orders(adjacency, rows_sorted),
            )
            for rows_sorted in (True, False)
        )
        np.testing.assert_array_equal(fast, general)

    @pytest.mark.parametrize("name", sorted(SORTED_ROW_GRAPHS))
    def test_shuffled_ports_give_the_same_reverse_edges(self, name):
        graph = SORTED_ROW_GRAPHS[name]()
        adjacency, reverse = graph.adjacency, graph.reverse_port
        shuffled, perms = _shuffled_ports(adjacency)
        # Port j of u in the shuffled copy is sorted port perms[u, j],
        # to v = shuffled[u, j]; its reverse is the sorted reverse
        # port, renumbered by v's inverse permutation.
        rows = np.arange(len(adjacency))[:, None]
        inverse = np.argsort(perms, axis=1)
        expected = inverse[shuffled, reverse[rows, perms]]
        np.testing.assert_array_equal(reverse_port_map(shuffled), expected)
        np.testing.assert_array_equal(
            BalancingGraph(shuffled, 0).reverse_port, expected
        )

    def test_asymmetry_message_is_path_independent(self):
        # 0 lists 1 but 1 does not list 0; rows ascending, then reversed.
        ascending = np.array([[1, 2], [2, 3], [0, 1], [0, 1]])
        messages = []
        for adjacency in (ascending, ascending[:, ::-1]):
            with pytest.raises(
                GraphValidationError, match="not symmetric"
            ) as excinfo:
                validate_adjacency(adjacency)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
