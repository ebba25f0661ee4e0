"""Compiled backend for the structured protocol (rotor fast path).

The rotor-router round is the one structured computation that stays
python-bound at scale: ``StructuredRound.apply`` materializes the
``(n, d)`` window-hit matrix, gathers it through ``reverse_flat``, and
sums — five full passes over ``(n, d)`` plus two temporaries.  This
backend fuses the whole round into one **scipy-CSR** operator
``M = R - S`` (``+1`` at each reverse-edge slot, ``-1`` at each own
port slot, ``2d`` entries per row) so that

    ``new = loads + M @ (quotient[:, None] + hits).ravel()``

replaces the gather/reshape/sum chain with one compiled matvec over
preallocated buffers — measured ~2x over the numpy structured round at
n >= 4096.  All arithmetic is ``int64``, so the result is bit-identical
to the numpy engines.  Windowless rounds (SEND-style shares, batched
stacks) are already a single numpy gather and are delegated unchanged.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp

from repro.engines.base import STRUCTURED, EngineBackend, register_engine


class _RotorOperator:
    """Fused CSR round operator plus preallocated round buffers."""

    __slots__ = ("matrix", "offsets", "hits", "values")

    def __init__(self, graph) -> None:
        n = graph.num_nodes
        degree = graph.degree
        # Row u: +1 at the flat (n, d) slots of its reverse edges
        # (incoming), -1 at its own d slots (outgoing) — applying it to
        # the per-port value matrix (quotient + window hit) yields the
        # net load delta of the round in one matvec.
        cols = np.empty((n, 2 * degree), dtype=np.int64)
        cols[:, :degree] = graph.adjacency * degree + graph.reverse_port
        cols[:, degree:] = np.arange(
            n * degree, dtype=np.int64
        ).reshape(n, degree)
        data = np.empty((n, 2 * degree), dtype=np.int64)
        data[:, :degree] = 1
        data[:, degree:] = -1
        indptr = np.arange(
            0, 2 * n * degree + 1, 2 * degree, dtype=np.int64
        )
        self.matrix = sp.csr_matrix(
            (data.ravel(), cols.ravel(), indptr), shape=(n, n * degree)
        )
        self.offsets = np.empty((n, degree), dtype=np.int64)
        self.hits = np.empty((n, degree), dtype=bool)
        self.values = np.empty((n, degree), dtype=np.int64)

    def repair(self, graph, rows: np.ndarray) -> None:
        # Only the reverse-edge half of each row references the
        # (churnable) adjacency; the own-port half and the all-±1 data
        # are structural constants, so repair is O(|dirty| · d).
        degree = graph.degree
        view = self.matrix.indices.reshape(-1, 2 * degree)
        view[rows, :degree] = (
            graph.adjacency[rows] * degree + graph.reverse_port[rows]
        )


@register_engine
class CompiledEngine(EngineBackend):
    """Fused rotor-window rounds through one CSR operator per graph."""

    name = "compiled"
    protocol = STRUCTURED
    kernel = "csr"

    def __init__(self) -> None:
        # Keyed by the graph object: a reused id(graph) must miss.
        self._ops: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def apply(self, graph, compact, loads: np.ndarray) -> np.ndarray:
        window = compact.window
        if window is None:
            # SEND-style rounds (including batched stacks) are already
            # one numpy gather; nothing to fuse.
            return compact.apply(graph, loads)
        ops = self._ops.get(graph)
        if ops is None:
            ops = _RotorOperator(graph)
            self._ops[graph] = ops
        degree = graph.degree
        np.subtract(
            window.positions[:, :degree],
            window.rotors[:, None],
            out=ops.offsets,
        )
        np.mod(ops.offsets, graph.total_degree, out=ops.offsets)
        np.less(ops.offsets, window.extra[:, None], out=ops.hits)
        np.add(compact.edge_share[:, None], ops.hits, out=ops.values)
        return loads + (ops.matrix @ ops.values.ravel())

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
