"""Non-regular graphs via the padding reduction (paper, Section 1.1).

The paper notes its results "can be extended to non-regular graphs".
The standard reduction (used since [17]) makes an irregular graph
regular by *padding*: every node of degree ``deg(u) < d_max`` gets
``d_max - deg(u)`` structural self-loops inside its "original" port
block, after which every node has exactly ``d_max`` original-block
ports plus the usual ``d°`` lazy self-loops.  The resulting walk is
doubly stochastic, so the continuous process balances to the *uniform*
vector (plain per-degree diffusion would converge to loads
proportional to degree — not what load balancing wants).

:class:`PaddedBalancingGraph` is the padded case of the shared port
layout :class:`~repro.graphs.ports.PortGraph` (which also carries the
walk matrix, BFS and the tier channel): padded ports are encoded as
self-entries whose reverse port is themselves — the engine's gather
then returns those tokens to their sender, which is precisely
self-loop semantics.  This module keeps the padded constructor and the
edge-list builders.

Every balancer in :mod:`repro.algorithms` runs unchanged on a padded
graph.  Fairness semantics: padded ports sit in the original block, so
the monitors' "original edge" spread conservatively includes them;
all implemented algorithms treat every original-block port identically
(±1), so the Observation 2.2/3.2 verdicts carry over.

Multi-tier fabrics (fat-tree, leaf-spine, …) attach a ``node_tiers``
metadata channel — an integer tier id per node plus human-readable
``tier_names`` — that probes and experiments can read to report
per-tier load without the graph layer knowing anything about probes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graphs.errors import GraphValidationError
from repro.graphs.ports import PortGraph
from repro.graphs.validation import validate_padded


class PaddedBalancingGraph(PortGraph):
    """An irregular graph padded to uniform degree ``d_max``.

    Build with :func:`from_irregular_edges`, :func:`from_edge_arrays`
    or :func:`from_networkx_irregular`; the constructor takes already
    padded arrays and verifies their consistency.

    Args:
        adjacency: ``(n, d_max)`` array; real neighbors first, then the
            node's own index repeated as padding.
        true_degrees: length-``n`` array of real degrees.
        num_self_loops: lazy self-loops ``d°`` added uniformly on top.
        name: display name.
        node_tiers: optional length-``n`` integer array mapping each
            node to a tier id (index into ``tier_names``).
        tier_names: names of the tiers referenced by ``node_tiers``.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        true_degrees: np.ndarray,
        num_self_loops: int,
        *,
        name: str = "",
        node_tiers: np.ndarray | Sequence[int] | None = None,
        tier_names: Sequence[str] | None = None,
    ) -> None:
        adjacency = np.ascontiguousarray(adjacency, dtype=np.int64)
        true_degrees = np.ascontiguousarray(true_degrees, dtype=np.int64)
        n, d_max = adjacency.shape
        if true_degrees.shape != (n,):
            raise GraphValidationError(
                "true_degrees length must match adjacency rows"
            )
        if num_self_loops < 0:
            raise GraphValidationError("num_self_loops must be >= 0")
        if true_degrees.max() != d_max:
            raise GraphValidationError(
                "adjacency width must equal the maximum true degree"
            )
        super().__init__(
            adjacency,
            validate_padded(adjacency, true_degrees),
            true_degrees,
            num_self_loops,
            name=name or f"padded(n={n}, d_max={d_max})",
            node_tiers=node_tiers,
            tier_names=tier_names,
        )

    def describe(self) -> dict:
        info = {
            "name": self.name,
            "n": self.num_nodes,
            "d_max": self.degree,
            "min_degree": int(self.true_degrees.min()),
            "d_self": self.num_self_loops,
            "d_plus": self.total_degree,
        }
        if self._node_tiers is not None:
            info["tiers"] = self.tier_counts()
        return info


def from_edge_arrays(
    num_nodes: int,
    sources: np.ndarray,
    targets: np.ndarray,
    num_self_loops: int | None = None,
    *,
    name: str = "",
    node_tiers: np.ndarray | Sequence[int] | None = None,
    tier_names: Sequence[str] | None = None,
) -> PaddedBalancingGraph:
    """Pad an undirected edge set given as parallel index arrays.

    The one construction path of the padded builders: generated
    fabrics (fat-tree, leaf-spine) assemble their edge sets as numpy
    arrays, :func:`from_irregular_edges` converts its edge list.  Each
    undirected edge appears once in ``(sources, targets)``; neighbor
    blocks come out sorted ascending.  ``num_self_loops`` defaults to
    ``d_max``.
    """
    sources = np.ascontiguousarray(sources, dtype=np.int64).ravel()
    targets = np.ascontiguousarray(targets, dtype=np.int64).ravel()
    if sources.shape != targets.shape:
        raise GraphValidationError(
            "sources and targets must have the same length"
        )
    if sources.size and (
        min(sources.min(), targets.min()) < 0
        or max(sources.max(), targets.max()) >= num_nodes
    ):
        raise GraphValidationError(
            f"edge endpoints must lie in [0, {num_nodes})"
        )
    if (sources == targets).any():
        raise GraphValidationError(
            "irregular input must not contain explicit self-loops"
        )
    # Both directions of every undirected edge, sorted by (node,
    # neighbor) so each node's block is contiguous and ascending.
    u_all = np.concatenate([sources, targets])
    v_all = np.concatenate([targets, sources])
    order = np.lexsort((v_all, u_all))
    u_all, v_all = u_all[order], v_all[order]
    same = (u_all[1:] == u_all[:-1]) & (v_all[1:] == v_all[:-1])
    if same.any():
        i = int(np.nonzero(same)[0][0])
        raise GraphValidationError(
            f"duplicate edge ({int(u_all[i])}, {int(v_all[i])}) "
            "in irregular input"
        )
    degrees = np.bincount(u_all, minlength=num_nodes)
    if num_nodes == 0 or degrees.min() == 0:
        isolated = int(np.argmin(degrees)) if num_nodes else 0
        raise GraphValidationError(
            f"node {isolated} has no edges; graph must be connected"
        )
    d_max = int(degrees.max())
    starts = np.concatenate([[0], np.cumsum(degrees)])
    slots = np.arange(u_all.size) - starts[u_all]
    # Padding slots pre-filled with the node's own index.
    adjacency = np.broadcast_to(
        np.arange(num_nodes)[:, None], (num_nodes, d_max)
    ).copy()
    adjacency[u_all, slots] = v_all
    if num_self_loops is None:
        num_self_loops = d_max
    graph = PaddedBalancingGraph(
        adjacency,
        degrees,
        num_self_loops,
        name=name or f"irregular(n={num_nodes}, d_max={d_max})",
        node_tiers=node_tiers,
        tier_names=tier_names,
    )
    # A BFS from node 0 rather than is_connected(): fabrics have a
    # small diameter, and scipy's csgraph import would add ~10 MB RSS.
    if (graph.distances_from(0) < 0).any():
        raise GraphValidationError("irregular input graph is disconnected")
    return graph


def from_irregular_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int]],
    num_self_loops: int | None = None,
    *,
    name: str = "",
    node_tiers: np.ndarray | Sequence[int] | None = None,
    tier_names: Sequence[str] | None = None,
) -> PaddedBalancingGraph:
    """Pad an irregular undirected edge list to a balancing graph.

    ``num_self_loops`` defaults to ``d_max`` (the lazy d° = d setting
    after regularization, so Theorem 2.3(i)/(ii) and 3.3 apply).
    """
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    return from_edge_arrays(
        num_nodes,
        pairs[:, 0],
        pairs[:, 1],
        num_self_loops,
        name=name,
        node_tiers=node_tiers,
        tier_names=tier_names,
    )


def from_networkx_irregular(
    graph,
    num_self_loops: int | None = None,
    *,
    name: str = "",
) -> PaddedBalancingGraph:
    """Pad an arbitrary simple connected networkx graph."""
    nodes = sorted(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges()]
    return from_irregular_edges(
        len(nodes), edges, num_self_loops, name=name or "from_networkx"
    )
