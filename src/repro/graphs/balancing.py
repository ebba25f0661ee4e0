"""The balancing graph ``G+``: a d-regular graph plus self-loops.

The paper distinguishes the *original graph* ``G`` (a simple, undirected,
d-regular graph) and the *balancing graph* ``G+``, obtained by attaching
``d° >= 0`` self-loops to every node.  Algorithms distribute tokens over
``d+ = d + d°`` *ports* per node:

* ports ``0 .. d-1`` are the **original edges**, in adjacency order;
* ports ``d .. d+-1`` are the **self-loops**.

:class:`BalancingGraph` is an immutable description of this structure
with precomputed index maps so the engine can execute a full synchronous
round with a handful of vectorized numpy operations.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.graphs.errors import GraphValidationError
from repro.graphs.validation import (
    is_connected,
    require_connected,
    validate_with_reverse_ports,
)


class BalancingGraph:
    """A d-regular graph augmented with ``num_self_loops`` per-node loops.

    Args:
        adjacency: ``(n, d)`` integer array; ``adjacency[u]`` lists the
            neighbors of node ``u``.  Must describe a simple, symmetric,
            connected d-regular graph (validated).
        num_self_loops: the paper's ``d°`` — self-loops attached to every
            node.  ``d° >= d`` is the paper's standard assumption, but any
            value ``>= 0`` is allowed (Theorem 4.3 uses ``d° = 0``).
        name: optional human-readable name used in reports.
        require_connectivity: validate connectivity (default True).
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        num_self_loops: int,
        *,
        name: str = "",
        require_connectivity: bool = True,
    ) -> None:
        adjacency, reverse_port = validate_with_reverse_ports(adjacency)
        if require_connectivity:
            require_connected(adjacency)
        if num_self_loops < 0:
            raise GraphValidationError(
                f"num_self_loops must be >= 0, got {num_self_loops}"
            )
        self._adjacency = adjacency
        self._adjacency.setflags(write=False)
        self._num_self_loops = int(num_self_loops)
        self._reverse_port = reverse_port
        self._reverse_port.setflags(write=False)
        self.name = name or f"graph(n={self.num_nodes}, d={self.degree})"
        self._transition_matrix: np.ndarray | None = None
        self._transition_matrix_sparse = None

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._adjacency.shape[0]

    @property
    def degree(self) -> int:
        """Original degree ``d`` (number of non-self-loop edges per node)."""
        return self._adjacency.shape[1]

    @property
    def num_self_loops(self) -> int:
        """Number of self-loops per node, the paper's ``d°``."""
        return self._num_self_loops

    @property
    def total_degree(self) -> int:
        """Degree of the balancing graph, the paper's ``d+ = d + d°``."""
        return self.degree + self._num_self_loops

    @property
    def adjacency(self) -> np.ndarray:
        """Read-only ``(n, d)`` neighbor array."""
        return self._adjacency

    @property
    def reverse_port(self) -> np.ndarray:
        """Read-only reverse-port map (see
        :func:`~repro.graphs.validation.reverse_port_map`)."""
        return self._reverse_port

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Neighbors of ``node`` over original edges, in port order."""
        return tuple(int(v) for v in self._adjacency[node])

    def port_target(self, node: int, port: int) -> int:
        """Destination of ``port`` at ``node`` (self for self-loop ports)."""
        if not 0 <= port < self.total_degree:
            raise IndexError(
                f"port {port} out of range [0, {self.total_degree})"
            )
        if port < self.degree:
            return int(self._adjacency[node, port])
        return node

    def is_original_port(self, port: int) -> bool:
        """True if ``port`` indexes an original edge rather than a loop."""
        return 0 <= port < self.degree

    def num_edges(self) -> int:
        """Number of undirected original edges ``|E| = n d / 2``."""
        return self.num_nodes * self.degree // 2

    def edge_list(self) -> list[tuple[int, int]]:
        """Undirected original edges as sorted ``(u, v)`` pairs."""
        edges = set()
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    def with_self_loops(self, num_self_loops: int) -> "BalancingGraph":
        """A copy of this graph with a different number of self-loops."""
        return BalancingGraph(
            np.array(self._adjacency),
            num_self_loops,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Markov chain view
    # ------------------------------------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Transition matrix ``P`` of the random walk on ``G+``.

        ``P[u, v] = 1/d+`` for each original edge ``(u, v)``, and
        ``P[u, u] = d°/d+``.  The result is cached; callers must not
        mutate it.
        """
        if self._transition_matrix is None:
            n = self.num_nodes
            d_plus = self.total_degree
            if d_plus == 0:
                raise GraphValidationError("graph has no edges at all")
            matrix = np.zeros((n, n), dtype=np.float64)
            rows = np.repeat(np.arange(n), self.degree)
            cols = self._adjacency.reshape(-1)
            np.add.at(matrix, (rows, cols), 1.0 / d_plus)
            matrix[np.arange(n), np.arange(n)] += (
                self._num_self_loops / d_plus
            )
            matrix.setflags(write=False)
            self._transition_matrix = matrix
        return self._transition_matrix

    def transition_matrix_sparse(self):
        """``P`` as a scipy CSR matrix, built directly from adjacency.

        Never materializes the dense ``(n, n)`` array: the row pattern
        of a regular graph with loops is fixed (``d`` neighbors plus an
        optional diagonal entry), so ``indptr``/``indices``/``data``
        are assembled with a handful of vectorized operations.  The
        result is cached; callers must not mutate it.
        """
        if self._transition_matrix_sparse is None:
            from scipy.sparse import csr_matrix

            n = self.num_nodes
            d = self.degree
            d_plus = self.total_degree
            if d_plus == 0:
                raise GraphValidationError("graph has no edges at all")
            if self._num_self_loops > 0:
                cols = np.concatenate(
                    [self._adjacency, np.arange(n)[:, None]], axis=1
                )
                data = np.full((n, d + 1), 1.0 / d_plus)
                data[:, d] = self._num_self_loops / d_plus
            else:
                cols = np.array(self._adjacency)
                data = np.full((n, d), 1.0 / d_plus)
            # CSR wants sorted column indices within each row.
            order = np.argsort(cols, axis=1)
            cols = np.take_along_axis(cols, order, axis=1)
            data = np.take_along_axis(data, order, axis=1)
            width = cols.shape[1]
            self._transition_matrix_sparse = csr_matrix(
                (
                    data.reshape(-1),
                    cols.reshape(-1),
                    np.arange(0, n * width + 1, width),
                ),
                shape=(n, n),
            )
        return self._transition_matrix_sparse

    # ------------------------------------------------------------------
    # Metric structure
    # ------------------------------------------------------------------

    def distances_from(self, source: int) -> np.ndarray:
        """BFS distances (in ``G``, ignoring self-loops) from ``source``.

        Frontier-vectorized: each level expands the whole frontier with
        one adjacency gather instead of a Python queue, so the cost is
        O(diameter) numpy calls rather than O(n·d) interpreter steps.
        """
        n = self.num_nodes
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            candidates = self._adjacency[frontier].reshape(-1)
            candidates = candidates[dist[candidates] < 0]
            if candidates.size == 0:
                break
            frontier = np.unique(candidates)
            dist[frontier] = level
        return dist

    def diameter(self) -> int:
        """Exact diameter of ``G`` via all-sources BFS (small graphs)."""
        best = 0
        for source in range(self.num_nodes):
            dist = self.distances_from(source)
            best = max(best, int(dist.max()))
        return best

    def eccentric_pair(self) -> tuple[int, int]:
        """A pair of nodes realizing the diameter."""
        best = (0, 0, 0)
        for source in range(self.num_nodes):
            dist = self.distances_from(source)
            target = int(dist.argmax())
            if dist[target] > best[2]:
                best = (source, target, int(dist[target]))
        return best[0], best[1]

    def odd_girth(self) -> int | None:
        """Length of the shortest odd cycle, or None if bipartite.

        Uses the standard bipartite double-cover argument: in a BFS from
        each node, an edge joining two nodes at equal BFS depth closes an
        odd cycle of length ``2 * depth + 1``.
        """
        best: int | None = None
        for source in range(self.num_nodes):
            dist = self.distances_from(source)
            for u in range(self.num_nodes):
                for v in self.neighbors(u):
                    if u < v and dist[u] == dist[v] and dist[u] >= 0:
                        length = 2 * int(dist[u]) + 1
                        if best is None or length < best:
                            best = length
        return best

    def is_bipartite(self) -> bool:
        """True if ``G`` contains no odd cycle."""
        return self.odd_girth() is None

    def is_connected(self) -> bool:
        """True if the original graph is connected."""
        return is_connected(self._adjacency)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------

    @classmethod
    def from_networkx(
        cls,
        graph,
        num_self_loops: int | None = None,
        *,
        name: str = "",
    ) -> "BalancingGraph":
        """Build from a networkx graph (must be simple and regular).

        Nodes are relabeled to ``0..n-1`` in sorted order.  If
        ``num_self_loops`` is None it defaults to ``d`` (the paper's
        standard ``d° = d`` augmentation).
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        degrees = {len(list(graph.neighbors(node))) for node in nodes}
        if len(degrees) != 1:
            raise GraphValidationError(
                f"graph is not regular: degrees {sorted(degrees)}"
            )
        degree = degrees.pop()
        adjacency = np.empty((len(nodes), degree), dtype=np.int64)
        for node in nodes:
            neighbor_ids = sorted(index[v] for v in graph.neighbors(node))
            adjacency[index[node]] = neighbor_ids
        if num_self_loops is None:
            num_self_loops = degree
        return cls(adjacency, num_self_loops, name=name or "from_networkx")

    def to_networkx(self):
        """Export the original graph ``G`` as a networkx Graph."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.edge_list())
        return graph

    @classmethod
    def from_edge_list(
        cls,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        num_self_loops: int | None = None,
        *,
        name: str = "",
    ) -> "BalancingGraph":
        """Build from an undirected edge list of a regular graph."""
        neighbor_lists: list[list[int]] = [[] for _ in range(num_nodes)]
        for u, v in edges:
            neighbor_lists[u].append(v)
            neighbor_lists[v].append(u)
        degrees = {len(lst) for lst in neighbor_lists}
        if len(degrees) != 1:
            raise GraphValidationError(
                f"edge list is not regular: degrees {sorted(degrees)}"
            )
        degree = degrees.pop()
        adjacency = np.array(
            [sorted(lst) for lst in neighbor_lists], dtype=np.int64
        )
        if num_self_loops is None:
            num_self_loops = degree
        return cls(adjacency, num_self_loops, name=name or "from_edge_list")

    # ------------------------------------------------------------------

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable (a suite worker on a
        # platform without fork receives its graph this way); a graph's
        # arrays stay read-only.
        self.__dict__.update(state)
        for array in (
            self._adjacency, self._reverse_port, self._transition_matrix
        ):
            if array is not None:
                array.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BalancingGraph(name={self.name!r}, n={self.num_nodes}, "
            f"d={self.degree}, self_loops={self.num_self_loops})"
        )

    def describe(self) -> dict:
        """Summary dictionary used by experiment reports."""
        return {
            "name": self.name,
            "n": self.num_nodes,
            "d": self.degree,
            "d_self": self.num_self_loops,
            "d_plus": self.total_degree,
            "edges": self.num_edges(),
        }


def degree_histogram(adjacency: np.ndarray) -> dict[int, int]:
    """Histogram of row lengths; useful when diagnosing validation errors."""
    counts: dict[int, int] = {}
    for row in adjacency:
        counts[len(row)] = counts.get(len(row), 0) + 1
    return counts


def estimate_memory_bytes(
    n: int, d_plus: int, engine: str = "dense", degree: int | None = None
) -> int:
    """Rough per-round engine working-set in bytes.

    Performance model.  The **dense** engine materializes an
    ``(n, d+)`` int64 sends matrix every round plus a handful of
    length-``n`` vectors, so its footprint and its runtime both scale
    with ``n · d+`` — at ``n = 10^6`` and ``d+ = 4`` that is ~32 MB
    allocated and traversed several times per round.  The
    **structured** engine (``sends_structured``; see
    :mod:`repro.core.structured`) never builds the matrix: a round is a
    per-node share vector, an O(n·d) adjacency gather, and O(n)
    validation — roughly six length-``n`` int64 vectors plus one flat
    ``n·d`` int64 per-port vector (a rotor round's sender-side values
    and its ``(n, d)`` bool hit matrix fit in it; a SEND round's share
    gather is one sparse matvec through the graph's CSR inflow operator,
    so for SEND the term is slack).  ``d`` is the *original* degree
    (pass ``degree=``; defaults to ``d+/2``, the paper's standard
    ``d+ = 2d`` augmentation).

    Measured on the E13 ladder (cycle, ``d+ = 2d``, 50-round runs; see
    ``BENCH_e13.json``): the structured engine wins ~3-4x at
    ``n = 4096`` and the gap widens with scale (~5x at ``n = 2^18``);
    a million-node cycle — where the dense path spends most of its time
    allocating and scanning the 32 MB matrix — constructs *and* runs 50
    rounds in a few seconds end-to-end.  The crossover is early: for
    SEND/rotor-style schemes the structured path is at worst on par
    below ``n ≈ 10^3`` and strictly faster from there up, which is why
    ``engine="auto"`` prefers it whenever the balancer supports it.

    Each graph holds one CSR inflow operator (see
    :func:`~repro.core.structured.inflow_gather`), counted once:
    ``n·d`` all-ones int64 data entries plus the ``(n + 1)`` int64
    ``indptr``.  Its ``indices`` are the graph's adjacency itself, and
    a bound rotor router's gather
    (:func:`~repro.core.structured.rotor_gather`) borrows its ``data``
    and ``indptr`` and indexes the balancer's ``reverse_flat``, so
    neither costs anything extra.  A rotor router builds the operator
    at bind whichever engine runs the rounds, so every estimate counts
    it (a SEND-style balancer on the dense engine builds none; for it
    the term is slack).

    The regression suite pins the operator term against measured
    ``nbytes`` of the real arrays at small ``n``.
    """
    if degree is None:
        degree = max(1, d_plus // 2)
    inflow = 8 * n * degree + 8 * (n + 1)  # data + indptr
    structured = 8 * n * (6 + degree) + inflow
    dense = 8 * n * d_plus + 8 * 4 * n + inflow
    if engine == "dense":
        return dense
    if engine == "structured":
        return structured
    raise ValueError(f"unknown engine {engine!r}")


def log2_ceil(value: int) -> int:
    """Smallest k with 2**k >= value (used by generators and tests)."""
    if value <= 1:
        return 0
    return int(math.ceil(math.log2(value)))
