"""In-place mutable balancing graphs — the dynamic-topology substrate.

A :class:`~repro.topology.schedules.TopologySchedule` rewires the
fabric *while the process runs*: edges fail and rejoin, nodes leave and
come back, an expander is rewired swap by swap.  Rebuilding an
immutable :class:`~repro.graphs.irregular.PaddedBalancingGraph` per
change would cost O(n·d) per round regardless of how little changed;
:class:`MutableBalancingGraph` instead supports O(1) in-place edge
add/drop with incremental ``reverse_port`` repair and tracks the
*dirty* node set so balancers can refresh only the rows that actually
moved (see ``Balancer.refresh_topology``).

The layout discipline is the whole determinism story: an added edge
always lands in the first padding slot (port ``true_degrees[u]``) and a
dropped edge is swap-removed (the last real port moves into the hole).
Any two implementations applying the same event sequence therefore
produce the *same port numbering*, which is what makes rotor-router
trajectories — whose sends depend on port order — bit-identical between
the incremental engines and the rebuild-from-scratch reference
simulator in ``tests/differential``.

The port layout, tier channel, BFS and connectivity come from the
shared base :class:`~repro.graphs.ports.PortGraph`, which is where
fault and topology schedules read the real-port mask too.  A padding
port points at its own node and is its own reverse, so the engine's
gather bounces its tokens straight back — self-loop behavior.  A node
with every edge removed (a *left* node) keeps balancing against itself
and conserves whatever load it still holds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graphs.errors import GraphValidationError
from repro.graphs.ports import PortGraph
from repro.graphs.validation import validate_padded

__all__ = ["MutableBalancingGraph"]


class MutableBalancingGraph(PortGraph):
    """A padded balancing graph with writable structure.

    Shares the port layout of :class:`~repro.graphs.ports.PortGraph`
    with three differences:

    * the arrays are writable and mutated in place by the edge/node
      operations below, so the walk matrices are rebuilt on every call;
    * ``degree`` is a fixed port *capacity* ``d_max`` — true degrees
      may all sink below it under churn (the immutable class requires
      ``true_degrees.max() == d_max``);
    * an :attr:`active` mask records which nodes are currently part of
      the network (an inactive node has zero real edges).

    Mutations accumulate a **dirty node set** — every node whose
    adjacency/reverse-port row changed, including far endpoints touched
    by swap-remove repairs — which :meth:`consume_dirty` hands to the
    balancer's incremental refresh.

    ``reverse_port``, when given, must belong to a validated layout
    (:meth:`from_graph` copies a built graph's); without it the layout
    is validated and the map computed.
    """

    # Only the tier channel stays read-only; the ports are edited.
    _LOCKED = ("_node_tiers",)

    def __init__(
        self,
        adjacency: np.ndarray,
        true_degrees: np.ndarray,
        num_self_loops: int,
        *,
        reverse_port: np.ndarray | None = None,
        active: np.ndarray | None = None,
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
        if reverse_port is None:
            reverse_port = validate_padded(adjacency, true_degrees)
        reverse_port = np.ascontiguousarray(reverse_port, dtype=np.int64)
        if reverse_port.shape != (n, d_max):
            raise GraphValidationError(
                "reverse_port shape must match adjacency"
            )
        if active is None:
            active = np.ones(n, dtype=bool)
        self.active = np.ascontiguousarray(active, dtype=bool)
        if self.active.shape != (n,):
            raise GraphValidationError(
                "active mask length must match the number of nodes"
            )
        super().__init__(
            adjacency,
            reverse_port,
            true_degrees,
            num_self_loops,
            name=name or f"mutable(n={n}, d_max={d_max})",
            node_tiers=node_tiers,
            tier_names=tier_names,
        )
        self._dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: PortGraph) -> "MutableBalancingGraph":
        """A writable deep copy of any balancing graph.

        The engines always copy before mutating: prebuilt graphs are
        shared across scenarios (suite ``graph_cache``) and across
        replicas, and an immutable graph's arrays are write-locked
        anyway.  A mutable source's ``active`` mask is copied too, so
        a node that left stays out of the copy.
        """
        active = None
        if isinstance(graph, MutableBalancingGraph):
            active = graph.active.copy()
        return cls(
            graph.adjacency.copy(),
            graph.true_degrees.copy(),
            graph.num_self_loops,
            reverse_port=graph.reverse_port.copy(),
            active=active,
            name=f"mutable({graph.name})",
            node_tiers=graph.node_tiers,
            tier_names=graph.tier_names,
        )

    @classmethod
    def from_neighbor_lists(
        cls,
        neighbor_lists: Sequence[Sequence[int]],
        d_max: int,
        num_self_loops: int,
        *,
        active: Iterable[bool] | None = None,
    ) -> "MutableBalancingGraph":
        """Full rebuild from per-node neighbor lists, *in list order*.

        The rebuild-from-scratch path the naive reference simulator
        uses each round: neighbor blocks are laid out exactly as given
        (NOT sorted — the swap-remove discipline produces unsorted
        blocks, and port order is load-bearing for rotor schemes), the
        reverse-port map is recomputed from nothing, and every padding
        invariant is re-validated.
        """
        n = len(neighbor_lists)
        adjacency = np.broadcast_to(
            np.arange(n, dtype=np.int64)[:, None], (n, d_max)
        ).copy()
        degrees = np.zeros(n, dtype=np.int64)
        for u, row in enumerate(neighbor_lists):
            if len(row) > d_max:
                raise GraphValidationError(
                    f"node {u} has {len(row)} neighbors, capacity {d_max}"
                )
            degrees[u] = len(row)
            adjacency[u, : len(row)] = row
        graph = cls(
            adjacency,
            degrees,
            num_self_loops,
            active=(
                None
                if active is None
                else np.fromiter(active, dtype=bool, count=n)
            ),
        )
        return graph

    # ------------------------------------------------------------------
    # Structure of the current topology
    # ------------------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        deg = int(self._true_degrees[u])
        # Rows are at most d_max entries: a python-level membership test
        # on the materialized block beats a numpy comparison kernel by
        # an order of magnitude at these sizes, and this runs on every
        # churned edge of every churn round.
        return v in self._adjacency[u, :deg].tolist()

    def transition_matrix(self) -> np.ndarray:
        """Doubly stochastic walk matrix of the *current* topology.

        Recomputed on every call — a mutable graph cannot cache it.
        """
        return self._walk_matrix()

    def transition_matrix_sparse(self):
        """CSR walk matrix of the current topology, rebuilt per call."""
        return self._walk_matrix_sparse()

    def describe(self) -> dict:
        return {
            "name": self.name,
            "n": self.num_nodes,
            "d_max": self.degree,
            "min_degree": int(self.true_degrees.min()),
            "d_self": self.num_self_loops,
            "d_plus": self.total_degree,
            "active_nodes": int(self.active.sum()),
        }

    # ------------------------------------------------------------------
    # Mutation (all O(1) per edge; dirty nodes accumulate)
    # ------------------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Connect ``u`` and ``v``; the edge lands in each node's first
        padding slot."""
        if u == v:
            raise GraphValidationError(
                f"cannot add self-edge at node {u}"
            )
        if not (self.active[u] and self.active[v]):
            raise GraphValidationError(
                f"cannot add edge ({u}, {v}): endpoint inactive"
            )
        if self.has_edge(u, v):
            raise GraphValidationError(
                f"edge ({u}, {v}) already present"
            )
        pu = int(self._true_degrees[u])
        pv = int(self._true_degrees[v])
        if pu >= self.degree or pv >= self.degree:
            raise GraphValidationError(
                f"cannot add edge ({u}, {v}): port capacity "
                f"{self.degree} exhausted"
            )
        self._adjacency[u, pu] = v
        self._adjacency[v, pv] = u
        self._reverse_port[u, pu] = pv
        self._reverse_port[v, pv] = pu
        self._true_degrees[u] = pu + 1
        self._true_degrees[v] = pv + 1
        self._dirty.add(u)
        self._dirty.add(v)

    def drop_edge(self, u: int, v: int) -> None:
        """Sever the edge between ``u`` and ``v`` (swap-remove)."""
        deg = int(self._true_degrees[u])
        try:
            pu = self._adjacency[u, :deg].tolist().index(v)
        except ValueError:
            raise GraphValidationError(
                f"cannot drop absent edge ({u}, {v})"
            ) from None
        pv = int(self._reverse_port[u, pu])
        self._remove_port(u, pu)
        self._remove_port(v, pv)

    def _remove_port(self, u: int, p: int) -> None:
        """Vacate real port ``p`` of ``u``: last real port moves in."""
        last = int(self._true_degrees[u]) - 1
        if p != last:
            w = int(self._adjacency[u, last])
            q = int(self._reverse_port[u, last])
            self._adjacency[u, p] = w
            self._reverse_port[u, p] = q
            # The moved edge's far endpoint must point back at the new
            # slot — the incremental reverse-port repair.
            self._reverse_port[w, q] = p
            self._dirty.add(w)
        self._adjacency[u, last] = u
        self._reverse_port[u, last] = last
        self._true_degrees[u] = last
        self._dirty.add(u)

    def deactivate_node(self, u: int) -> tuple[int, ...]:
        """Remove ``u`` from the network; returns its severed neighbors.

        All incident edges are dropped (every surviving endpoint gets
        its row repaired) and the node is marked inactive.  Its load is
        untouched — handoff is the topology schedule/engine's business.
        """
        if not self.active[u]:
            raise GraphValidationError(f"node {u} is already inactive")
        severed = self.neighbors(u)
        for v in severed:
            self.drop_edge(u, v)
        self.active[u] = False
        self._dirty.add(u)
        return severed

    def activate_node(
        self, u: int, neighbors: Iterable[int] = ()
    ) -> None:
        """Re-admit ``u``, wiring it to ``neighbors`` in given order."""
        if self.active[u]:
            raise GraphValidationError(f"node {u} is already active")
        if self._true_degrees[u] != 0:
            raise GraphValidationError(
                f"inactive node {u} still has real edges"
            )
        self.active[u] = True
        self._dirty.add(u)
        for v in neighbors:
            self.add_edge(u, int(v))

    def consume_dirty(self) -> np.ndarray:
        """Nodes whose rows changed since the last call (sorted); clears."""
        if not self._dirty:
            return np.empty(0, dtype=np.int64)
        dirty = np.fromiter(
            self._dirty, dtype=np.int64, count=len(self._dirty)
        )
        self._dirty.clear()
        dirty.sort()
        return dirty

    # ------------------------------------------------------------------
    # Invariant checking (tests / reference harness)
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Full structural re-validation (O(n·d); tests only)."""
        expected = validate_padded(self._adjacency, self.true_degrees)
        if not np.array_equal(self._reverse_port, expected):
            raise GraphValidationError(
                "reverse_port does not invert adjacency"
            )
        if np.any(self._true_degrees[~self.active] != 0):
            raise GraphValidationError(
                "inactive nodes must have zero real edges"
            )
