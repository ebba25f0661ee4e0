"""The balancing graph ``G+``: a d-regular graph plus self-loops.

The paper distinguishes the *original graph* ``G`` (a simple, undirected,
d-regular graph) and the *balancing graph* ``G+``, obtained by attaching
``d° >= 0`` self-loops to every node.  Algorithms distribute tokens over
``d+ = d + d°`` *ports* per node:

* ports ``0 .. d-1`` are the **original edges**, in adjacency order;
* ports ``d .. d+-1`` are the **self-loops**.

:class:`BalancingGraph` is an immutable description of this structure
with precomputed index maps so the engine can execute a full synchronous
round with a handful of vectorized numpy operations.  Its port layout,
walk matrix, BFS and connectivity live in the shared base
:class:`~repro.graphs.ports.PortGraph`; a d-regular graph is the padded
graph with no padding.  This module keeps the regular constructors and
the metric helpers (diameter, odd girth) the experiments use.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.graphs.errors import GraphValidationError
from repro.graphs.ports import PortGraph
from repro.graphs.validation import (
    require_connected,
    validate_with_reverse_ports,
)


class BalancingGraph(PortGraph):
    """A d-regular graph augmented with ``num_self_loops`` per-node loops.

    The unpadded case of :class:`~repro.graphs.ports.PortGraph`: every
    port of the original block is a real edge.

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
        n, d = adjacency.shape
        super().__init__(
            adjacency,
            reverse_port,
            None,
            num_self_loops,
            name=name or f"graph(n={n}, d={d})",
        )

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
    # Metric structure
    # ------------------------------------------------------------------

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
