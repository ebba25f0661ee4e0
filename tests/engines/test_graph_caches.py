"""Per-graph backend caches never outlive, or get confused about, graphs.

A backend instance caches per-graph operators (gather indices, CSR
operators).  Keyed by ``id(graph)``, such a cache serves a freed
graph's operator to a new graph that happens to reuse the id: the
rounds it computes still conserve tokens, so no invariant fires.  One backend instance reused across many short-lived graphs must
compute every round exactly as the numpy reference does.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.engines import DENSE, ENGINES, create_engine
from repro.graphs import families

GRAPHS = 200


def _one_round(backend, seed: int) -> tuple[bool, weakref.ref]:
    """One rotor round on a fresh graph: (matches reference, graph ref)."""
    graph = families.random_regular(64, 4, seed=seed)
    balancer = make("rotor_router").bind(graph)
    loads = np.random.default_rng(seed).integers(0, 50, 64)
    if backend.protocol == DENSE:
        sends = balancer.sends(loads, 1)
        got = backend.incoming(graph, sends[None])[0]
        want = sends[graph.adjacency, graph.reverse_port].sum(axis=1)
    else:
        compact = balancer.sends_structured(loads, 1)
        got = backend.apply(graph, compact, loads)
        want = compact.apply(graph, loads)
    return bool(np.array_equal(got, want)), weakref.ref(graph)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_backend_reused_across_short_lived_graphs(engine):
    backend = create_engine(engine)
    results = [_one_round(backend, seed) for seed in range(GRAPHS)]
    wrong = [seed for seed, (ok, _) in enumerate(results) if not ok]
    assert wrong == []
    gc.collect()
    alive = sum(ref() is not None for _, ref in results)
    assert alive == 0, f"{engine} kept {alive} graphs alive"
