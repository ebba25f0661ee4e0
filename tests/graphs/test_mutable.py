"""Unit tests for the in-place mutable balancing graph.

Differential parity lives in ``tests/differential/test_churn_parity.py``;
this file pins the structural semantics: the deterministic port-layout
discipline (append add, swap-remove drop), incremental reverse-port
repair, the dirty-node accounting balancers refresh from, and every
guarded error path.
"""

import pickle

import numpy as np
import pytest

from repro.graphs import (
    BalancingGraph,
    MutableBalancingGraph,
    PortGraph,
    families,
)
from repro.graphs.datacenter import fat_tree
from repro.graphs.errors import GraphValidationError
from repro.graphs.irregular import from_irregular_edges


def _cycle_mutable(n=6):
    return MutableBalancingGraph.from_graph(families.cycle(n))


def _lollipop():
    """Triangle with a two-edge tail (as in ``test_irregular.py``)."""
    return from_irregular_edges(
        5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
    )


def _check_port_protocol(graph):
    """The shared port layout, as every consumer reads it."""
    assert isinstance(graph, PortGraph)
    n, d = graph.num_nodes, graph.degree
    assert graph.total_degree == d + graph.num_self_loops
    real = graph.real_port_mask()
    assert real.shape == (n, d)
    np.testing.assert_array_equal(real.sum(axis=1), graph.true_degrees)
    for u in range(n):
        assert graph.neighbors(u) == tuple(
            graph.adjacency[u][real[u]].tolist()
        )
        assert graph.padding_count(u) == d - graph.true_degrees[u]
        for p in range(graph.total_degree):
            v = graph.port_target(u, p)
            assert graph.is_original_port(p) == (p < d)
            if p < d and real[u, p]:
                assert v != u
                assert graph.adjacency[v, graph.reverse_port[u, p]] == u
            else:
                assert v == u
                if p < d:
                    assert graph.reverse_port[u, p] == p
    matrix = graph.transition_matrix()
    np.testing.assert_allclose(matrix.sum(axis=0), 1.0)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0)
    np.testing.assert_array_equal(
        graph.transition_matrix_sparse().toarray(), matrix
    )
    assert graph.is_connected()
    assert (graph.distances_from(0) >= 0).all()


@pytest.mark.parametrize(
    "build",
    [lambda: families.cycle(5), lambda: fat_tree(4), _lollipop],
    ids=["cycle", "fat_tree", "lollipop"],
)
def test_from_graph_copies_and_synthesizes_true_degrees(build):
    base = build()
    graph = MutableBalancingGraph.from_graph(base)
    for g in (base, graph):
        _check_port_protocol(g)
    np.testing.assert_array_equal(graph.adjacency, base.adjacency)
    np.testing.assert_array_equal(graph.reverse_port, base.reverse_port)
    np.testing.assert_array_equal(graph.true_degrees, base.true_degrees)
    np.testing.assert_array_equal(
        graph.transition_matrix(), base.transition_matrix()
    )
    assert graph.tier_names == base.tier_names
    assert graph.tier_counts() == base.tier_counts()
    if isinstance(base, BalancingGraph):
        # A regular graph's true degrees are a broadcast, not an array.
        assert base.true_degrees.strides == (0,)
        assert not base.true_degrees.flags.writeable
    # Pickling keeps each graph's arrays as writable as they were.
    for g, writable in ((base, False), (graph, True)):
        clone = pickle.loads(pickle.dumps(g))
        _check_port_protocol(clone)
        for attr in ("adjacency", "reverse_port", "true_degrees"):
            np.testing.assert_array_equal(
                getattr(clone, attr), getattr(g, attr)
            )
            assert getattr(clone, attr).flags.writeable == writable
        assert clone.transition_matrix().flags.writeable == writable
        if g.node_tiers is not None:
            assert not clone.node_tiers.flags.writeable
    u = 0
    v = graph.neighbors(u)[0]
    graph.drop_edge(u, v)
    # Mutation must never leak back into the source graph.
    np.testing.assert_array_equal(base.adjacency, build().adjacency)
    np.testing.assert_array_equal(base.true_degrees, build().true_degrees)


def test_from_graph_copies_a_mutable_sources_active_mask():
    source = _cycle_mutable()
    source.deactivate_node(2)
    copy = MutableBalancingGraph.from_graph(source)
    assert not copy.active[2]
    np.testing.assert_array_equal(copy.active, source.active)
    np.testing.assert_array_equal(copy.true_degrees, source.true_degrees)
    # A copy, not a view: reactivating in the copy leaves the source.
    copy.active[2] = True
    assert not source.active[2]


def test_constructor_rejects_out_of_range_neighbor():
    # Path 0-1-2 with node 0 listing 5.
    with pytest.raises(
        GraphValidationError, match=r"must lie in \[0, 2\]"
    ):
        MutableBalancingGraph(
            [[5, 0], [0, 2], [1, 2]], [1, 2, 1], num_self_loops=1
        )


def test_add_edge_lands_in_first_padding_slot():
    graph = _cycle_mutable()
    graph.drop_edge(0, 1)
    graph.drop_edge(2, 3)
    assert graph.true_degrees[0] == 1
    assert graph.true_degrees[3] == 1
    graph.add_edge(0, 3)
    # Port 1 was vacated by each drop; the add reuses it on both ends.
    assert graph.adjacency[0, 1] == 3
    assert graph.adjacency[3, 1] == 0
    assert graph.reverse_port[0, 1] == 1
    assert graph.reverse_port[3, 1] == 1
    graph.check_consistency()


def test_drop_edge_swap_removes_and_repairs_far_endpoint():
    graph = _cycle_mutable()
    # Node 0's ports are [1, 5]; dropping port-0 neighbor 1 must move
    # neighbor 5 into port 0 and repair 5's reverse pointer.
    graph.drop_edge(0, 1)
    assert graph.neighbors(0) == (5,)
    assert graph.adjacency[0, 0] == 5
    far_port = int(graph.reverse_port[0, 0])
    assert graph.adjacency[5, far_port] == 0
    assert graph.reverse_port[5, far_port] == 0
    # The vacated slot is padding again: self-pointing, self-reverse.
    assert graph.adjacency[0, 1] == 0
    assert graph.reverse_port[0, 1] == 1
    graph.check_consistency()


def test_dirty_set_includes_swap_repaired_endpoints():
    graph = _cycle_mutable()
    graph.consume_dirty()
    graph.drop_edge(0, 1)
    # 0 and 1 changed directly; 5 (moved into 0's hole) and 2 (moved
    # into 1's hole) each got a reverse-port repair.
    assert graph.consume_dirty().tolist() == [0, 1, 2, 5]
    assert graph.consume_dirty().size == 0


def test_deactivate_node_severs_everything_and_activate_rewires():
    graph = _cycle_mutable()
    severed = graph.deactivate_node(2)
    assert severed == (1, 3)
    assert not graph.active[2]
    assert graph.true_degrees[2] == 0
    graph.check_consistency()
    graph.activate_node(2, severed)
    assert graph.active[2]
    assert graph.neighbors(2) == (1, 3)
    graph.check_consistency()


def test_left_node_keeps_balancing_against_itself():
    graph = _cycle_mutable()
    graph.deactivate_node(4)
    # Every port of the left node is padding: self-pointing targets.
    for port in range(graph.total_degree):
        assert graph.port_target(4, port) == 4


def test_structural_error_paths():
    graph = _cycle_mutable()
    with pytest.raises(GraphValidationError):
        graph.add_edge(0, 0)  # self-edge
    with pytest.raises(GraphValidationError):
        graph.add_edge(0, 1)  # already present
    with pytest.raises(GraphValidationError):
        graph.drop_edge(0, 3)  # absent
    with pytest.raises(GraphValidationError):
        graph.add_edge(2, 5)  # capacity exhausted (d_max == 2)
    graph.deactivate_node(1)
    with pytest.raises(GraphValidationError):
        graph.deactivate_node(1)  # already inactive
    with pytest.raises(GraphValidationError):
        graph.add_edge(0, 1)  # endpoint inactive
    graph.activate_node(1)
    with pytest.raises(GraphValidationError):
        graph.activate_node(1)  # already active


def test_from_neighbor_lists_preserves_list_order():
    # Unsorted blocks are intentional: swap-remove produces them and
    # rotor-router port order depends on them being kept verbatim.
    graph = MutableBalancingGraph.from_neighbor_lists(
        [[2, 1], [0, 2], [1, 0]], d_max=3, num_self_loops=1
    )
    assert graph.neighbors(0) == (2, 1)
    assert graph.degree == 3
    assert graph.total_degree == 4
    graph.check_consistency()


def test_from_neighbor_lists_rejects_overfull_rows():
    with pytest.raises(GraphValidationError):
        MutableBalancingGraph.from_neighbor_lists(
            [[1, 2, 3], [0], [0], [0]], d_max=2, num_self_loops=0
        )


def test_check_consistency_catches_corruption():
    graph = _cycle_mutable()
    graph.reverse_port[0, 0] = 1  # no longer inverts adjacency
    with pytest.raises(GraphValidationError):
        graph.check_consistency()


def test_irregular_graph_roundtrip_under_churn():
    graph = MutableBalancingGraph.from_graph(fat_tree(4))
    u = 0
    v = int(graph.adjacency[u, 0])
    graph.drop_edge(u, v)
    graph.add_edge(u, v)
    graph.check_consistency()
    # Rebuilding from the mutated lists reproduces the arrays exactly.
    lists = [
        list(graph.neighbors(node)) for node in range(graph.num_nodes)
    ]
    rebuilt = MutableBalancingGraph.from_neighbor_lists(
        lists, graph.degree, graph.num_self_loops
    )
    np.testing.assert_array_equal(rebuilt.adjacency, graph.adjacency)
    np.testing.assert_array_equal(
        rebuilt.reverse_port, graph.reverse_port
    )


def test_transition_matrix_tracks_mutations():
    graph = _cycle_mutable(4)
    before = graph.transition_matrix()
    assert np.allclose(before.sum(axis=1), 1.0)
    graph.drop_edge(0, 1)
    after = graph.transition_matrix()
    assert np.allclose(after.sum(axis=1), 1.0)
    d_plus = graph.total_degree
    assert after[0, 1] == 0.0
    assert after[0, 0] == before[0, 0] + 1.0 / d_plus
