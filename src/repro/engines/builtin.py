"""The two numpy backends the orchestrators originally inlined.

These are verbatim extractions of the round computations that used to
live inside ``Simulator.step`` / ``Simulator._step_structured`` and the
``BatchRunner`` round helpers — same operations, same operation order,
so trajectories are bit-identical to every release before the registry
existed.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.engines.base import (
    DENSE,
    STRUCTURED,
    EngineBackend,
    register_engine,
)


@register_engine
class DenseEngine(EngineBackend):
    """Numpy gather over the reverse-port map (the universal fallback).

    Single runs use two-array advanced indexing; stacked batches use a
    flat fancy index over the ``(n * d+)``-reshaped sends (cached per
    graph), which beats the equivalent two-array gather round after
    round.
    """

    name = "dense"
    protocol = DENSE

    def __init__(self) -> None:
        # Keyed by the graph object, not id(graph): a freed graph's id
        # can be reused by a new graph, which must never inherit it.
        self._flat: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _flat_for(self, graph) -> np.ndarray:
        # Token arriving at u over port j was sent by adjacency[u, j]
        # on port reverse_port[u, j].
        flat = self._flat.get(graph)
        if flat is None:
            flat = (
                graph.adjacency * graph.total_degree + graph.reverse_port
            ).ravel()
            self._flat[graph] = flat
        return flat

    def incoming(self, graph, sends: np.ndarray) -> np.ndarray:
        if sends.ndim == 2:
            return sends[graph.adjacency, graph.reverse_port].sum(axis=1)
        batch = sends.shape[0]
        return (
            sends.reshape(batch, -1)[:, self._flat_for(graph)]
            .reshape(batch, graph.num_nodes, graph.degree)
            .sum(axis=2)
        )

    def refresh_topology(self, graph, dirty=None) -> None:
        # The flat index is only cached on the shared static graph of a
        # vectorized batch; churned replicas take the two-array path.
        # Dropping is therefore both correct and effectively free.
        self._flat.pop(graph, None)


@register_engine
class StructuredEngine(EngineBackend):
    """Matrix-free numpy execution of compact rounds (the fast path)."""

    name = "structured"
    protocol = STRUCTURED

    def apply(self, graph, compact, loads: np.ndarray) -> np.ndarray:
        return compact.apply(graph, loads)
