"""Pin the SpMM gather operator on padded-irregular fabrics.

Datacenter fabrics (``fat_tree``, ``leaf_spine``) have irregular true
degrees but a *uniform* padded port capacity: every adjacency row has
``graph.degree`` columns, with padding ports as self-entries whose
reverse port is the port itself.  ``_GatherOperator`` leans on exactly
that invariant — its scalar-degree ``indptr`` (``arange`` with step
``degree``) and the ``reshape(-1, degree)`` in churn repair assume
row-constant width.  These tests pin the operator against the direct
dense gather on real fabrics, through churn repair, so any future
ragged-adjacency representation fails loudly here (and in the
operator's own width guard) instead of silently misrouting tokens.
"""

import numpy as np
import pytest

from repro.engines.spmm import SpmmEngine, _GatherOperator
from repro.graphs.datacenter import fat_tree, leaf_spine
from repro.graphs.mutable import MutableBalancingGraph

FABRICS = {
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(4, 3, 4),
}


def _dense_gather(graph, sends):
    return sends[graph.adjacency, graph.reverse_port].sum(axis=1)


def _random_sends(graph, rng, batch=None):
    shape = (graph.num_nodes, graph.total_degree)
    if batch is not None:
        shape = (batch, *shape)
    return rng.integers(0, 50, shape).astype(np.int64)


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_fabric_padding_invariant(fabric):
    graph = FABRICS[fabric]()
    # Irregular fabric: not every node uses its full port capacity...
    assert graph.true_degrees.min() < graph.degree
    # ...yet adjacency is padded to uniform width with self-entry
    # padding ports that reverse onto themselves.
    assert graph.adjacency.shape == (graph.num_nodes, graph.degree)
    pad = graph.adjacency == np.arange(graph.num_nodes)[:, None]
    assert pad.any()
    ports = np.broadcast_to(
        np.arange(graph.degree), graph.adjacency.shape
    )
    np.testing.assert_array_equal(
        graph.reverse_port[pad], ports[pad]
    )


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_operator_matches_dense_gather(fabric):
    graph = FABRICS[fabric]()
    rng = np.random.default_rng(3)
    operator = _GatherOperator(graph)
    sends = _random_sends(graph, rng)
    np.testing.assert_array_equal(
        operator.matrix @ sends.ravel(), _dense_gather(graph, sends)
    )


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_engine_matches_dense_gather_batched(fabric):
    graph = FABRICS[fabric]()
    rng = np.random.default_rng(17)
    engine = SpmmEngine()
    batched = _random_sends(graph, rng, batch=3)
    expected = np.stack(
        [_dense_gather(graph, sends) for sends in batched]
    )
    np.testing.assert_array_equal(
        engine.incoming(graph, batched), expected
    )


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_churn_repair_on_fabric_rows(fabric):
    # Drop a real (non-padding) edge on the padded fabric, repair the
    # dirty rows, and require the repaired operator to equal a freshly
    # built one on the mutated graph — the reshape in repair() must
    # stay exact when the mutated rows gain more padding ports.
    graph = MutableBalancingGraph.from_graph(FABRICS[fabric]())
    engine = SpmmEngine()
    rng = np.random.default_rng(29)
    sends = _random_sends(graph, rng)
    np.testing.assert_array_equal(
        engine.incoming(graph, sends), _dense_gather(graph, sends)
    )
    u = int(np.argmax(graph.true_degrees))
    v = int(graph.adjacency[u, 0])
    graph.drop_edge(u, v)
    dirty = graph.consume_dirty()
    assert dirty.size
    engine.refresh_topology(graph, dirty)
    sends = _random_sends(graph, rng)
    np.testing.assert_array_equal(
        engine.incoming(graph, sends), _dense_gather(graph, sends)
    )
    np.testing.assert_array_equal(
        engine._ops[graph].matrix.indices,
        _GatherOperator(graph).matrix.indices,
    )


def test_operator_rejects_unpadded_adjacency():
    class Ragged:
        num_nodes = 4
        degree = 3
        total_degree = 3
        adjacency = np.zeros((4, 2), dtype=np.int64)
        reverse_port = np.zeros((4, 2), dtype=np.int64)

    with pytest.raises(ValueError, match="degree-padded"):
        _GatherOperator(Ragged())
