"""CSR SpMM backend for the dense protocol — a round *is* an SpMM.

The incoming gather ``sends[adjacency, reverse_port].sum(axis=1)`` is
exactly a sparse matrix-vector product: build the ``(n, n·d+)``
gather operator ``R`` with one ``+1`` per directed edge at flat column
``adjacency[u, j] · d+ + reverse_port[u, j]`` and

    ``incoming = R @ sends.ravel()``

(batched: one SpMM against the ``(n·d+, batch)`` stack).  This is the
recast DGL's CPU kernels use for message passing (``spmm.cc``); scipy's
CSR matvec then runs the whole gather in compiled C.  Everything stays
``int64`` end to end, so the result is bit-identical to the numpy
gather — integer addition is exact in any order.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp

from repro.engines.base import DENSE, EngineBackend, register_engine


class _GatherOperator:
    """Per-graph CSR gather operator with in-place churn repair."""

    __slots__ = ("matrix",)

    def __init__(self, graph) -> None:
        n = graph.num_nodes
        degree = graph.degree
        d_plus = graph.total_degree
        # The scalar-degree indptr below relies on the padding
        # invariant: irregular graphs (datacenter fabrics, churned
        # mutable graphs) are padded to a uniform port capacity d_max
        # == graph.degree, with each padding port a self-entry whose
        # reverse_port is its own port — so every adjacency row has
        # exactly ``degree`` columns and the row-constant CSR layout
        # (and ``repair``'s reshape) is exact, not an approximation.
        if graph.adjacency.shape[1] != degree:
            raise ValueError(
                f"adjacency width {graph.adjacency.shape[1]} != "
                f"graph.degree {degree}: the CSR gather operator "
                "requires degree-padded adjacency rows"
            )
        indices = (
            graph.adjacency.astype(np.int64) * d_plus + graph.reverse_port
        ).ravel()
        indptr = np.arange(0, n * degree + 1, degree, dtype=np.int64)
        data = np.ones(n * degree, dtype=np.int64)
        self.matrix = sp.csr_matrix(
            (data, indices, indptr), shape=(n, n * d_plus)
        )

    def repair(self, graph, rows: np.ndarray) -> None:
        # Row u's column indices are exactly its d reverse-edge slots;
        # the CSR structure (one entry per port, all-ones data) never
        # changes under in-place churn, so repairing the index array
        # for the dirty rows is O(|dirty| · d).
        view = self.matrix.indices.reshape(-1, graph.degree)
        view[rows] = (
            graph.adjacency[rows] * graph.total_degree
            + graph.reverse_port[rows]
        )


@register_engine
class SpmmEngine(EngineBackend):
    """Incoming gather as a scipy-CSR sparse matrix product."""

    name = "spmm"
    protocol = DENSE
    kernel = "csr"

    def __init__(self) -> None:
        # Keyed by the graph object: a reused id(graph) must miss.
        self._ops: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _operator(self, graph) -> _GatherOperator:
        ops = self._ops.get(graph)
        if ops is None:
            ops = _GatherOperator(graph)
            self._ops[graph] = ops
        return ops

    def incoming(self, graph, sends: np.ndarray) -> np.ndarray:
        matrix = self._operator(graph).matrix
        if sends.ndim == 2:
            return matrix @ sends.ravel()
        batch = sends.shape[0]
        return np.ascontiguousarray(
            (matrix @ sends.reshape(batch, -1).T).T
        )

    def refresh_topology(self, graph, dirty=None) -> None:
        ops = self._ops.get(graph)
        if ops is None:
            return
        if dirty is None:
            del self._ops[graph]
            return
        rows = np.asarray(dirty, dtype=np.int64)
        if rows.size:
            ops.repair(graph, rows)
