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

:class:`PaddedBalancingGraph` implements exactly the structural
protocol the engine and balancers consume (``num_nodes``, ``degree``,
``total_degree``, ``num_self_loops``, ``adjacency``, ``reverse_port``,
``transition_matrix``, …), with padded ports encoded as self-entries
whose reverse port is themselves — the engine's gather then returns
those tokens to their sender, which is precisely self-loop semantics.

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


class PaddedBalancingGraph:
    """An irregular graph padded to uniform degree ``d_max``.

    Build with :func:`from_irregular_edges` or
    :func:`from_networkx_irregular`; the constructor takes already
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
        self._check_padding(adjacency, true_degrees)
        self._adjacency = adjacency
        self._adjacency.setflags(write=False)
        self.true_degrees = true_degrees
        self._num_self_loops = int(num_self_loops)
        self._reverse_port = self._padded_reverse_port(
            adjacency, true_degrees
        )
        self._reverse_port.setflags(write=False)
        self.name = name or f"padded(n={n}, d_max={d_max})"
        self._transition_matrix: np.ndarray | None = None
        self._transition_matrix_sparse = None
        self._node_tiers: np.ndarray | None = None
        self._tier_names: tuple[str, ...] | None = None
        if (node_tiers is None) != (tier_names is None):
            raise GraphValidationError(
                "node_tiers and tier_names must be given together"
            )
        if node_tiers is not None:
            tiers = np.ascontiguousarray(node_tiers, dtype=np.int64)
            names = tuple(str(t) for t in tier_names)
            if tiers.shape != (n,):
                raise GraphValidationError(
                    "node_tiers length must match the number of nodes"
                )
            if not names:
                raise GraphValidationError("tier_names must be non-empty")
            if tiers.min() < 0 or tiers.max() >= len(names):
                raise GraphValidationError(
                    "node_tiers values must index into tier_names"
                )
            tiers.setflags(write=False)
            self._node_tiers = tiers
            self._tier_names = names

    @staticmethod
    def _check_padding(adjacency: np.ndarray, degrees: np.ndarray) -> None:
        n, d_max = adjacency.shape
        ports = np.arange(d_max)
        real = ports[None, :] < degrees[:, None]
        own = adjacency == np.arange(n)[:, None]
        bad = real & own
        if bad.any():
            u = int(np.nonzero(bad.any(axis=1))[0][0])
            raise GraphValidationError(
                f"node {u}: real neighbor block contains itself"
            )
        bad = ~real & ~own
        if bad.any():
            u = int(np.nonzero(bad.any(axis=1))[0][0])
            raise GraphValidationError(
                f"node {u}: padding ports must point to the node itself"
            )
        # Distinct per-row sentinels >= n for the padding slots keep
        # them out of the duplicate scan without a ragged loop.
        keyed = np.where(real, adjacency, n + ports[None, :])
        keyed = np.sort(keyed, axis=1)
        dup = keyed[:, 1:] == keyed[:, :-1]
        if dup.any():
            u = int(np.nonzero(dup.any(axis=1))[0][0])
            raise GraphValidationError(
                f"node {u}: duplicate real neighbors"
            )

    @staticmethod
    def _padded_reverse_port(
        adjacency: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        n, d_max = adjacency.shape
        ports = np.arange(d_max)
        real = ports[None, :] < degrees[:, None]
        us, ps = np.nonzero(real)
        vs = adjacency[us, ps]
        # Match each directed real edge (u, v) with its reverse (v, u)
        # by key lookup; a missing reverse means asymmetric input.
        keys = us * n + vs
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        wanted = vs * n + us
        pos = np.searchsorted(sorted_keys, wanted)
        missing = (pos >= len(sorted_keys)) | (
            sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] != wanted
        )
        if missing.any():
            i = int(np.nonzero(missing)[0][0])
            raise GraphValidationError(
                f"edge ({int(us[i])}, {int(vs[i])}) is not symmetric"
            )
        # Padding port: its own reverse — the engine's gather returns
        # the tokens to the sender.
        reverse = np.broadcast_to(ports, (n, d_max)).copy()
        reverse[us, ps] = ps[order][pos]
        return reverse

    # ------------------------------------------------------------------
    # Structural protocol consumed by the engine / balancers
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._adjacency.shape[0]

    @property
    def degree(self) -> int:
        """Width of the original-port block (``d_max``, incl. padding)."""
        return self._adjacency.shape[1]

    @property
    def num_self_loops(self) -> int:
        return self._num_self_loops

    @property
    def total_degree(self) -> int:
        return self.degree + self._num_self_loops

    @property
    def adjacency(self) -> np.ndarray:
        return self._adjacency

    @property
    def reverse_port(self) -> np.ndarray:
        return self._reverse_port

    @property
    def node_tiers(self) -> np.ndarray | None:
        """Per-node tier ids, or ``None`` for untiered graphs."""
        return self._node_tiers

    @property
    def tier_names(self) -> tuple[str, ...] | None:
        """Names indexed by :attr:`node_tiers`, or ``None``."""
        return self._tier_names

    def tier_counts(self) -> dict[str, int]:
        """Node count per tier name (empty for untiered graphs)."""
        if self._node_tiers is None:
            return {}
        counts = np.bincount(
            self._node_tiers, minlength=len(self._tier_names)
        )
        return {
            name: int(count)
            for name, count in zip(self._tier_names, counts)
        }

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Real neighbors only (padding excluded)."""
        deg = int(self.true_degrees[node])
        return tuple(int(v) for v in self._adjacency[node, :deg])

    def port_target(self, node: int, port: int) -> int:
        if not 0 <= port < self.total_degree:
            raise IndexError(
                f"port {port} out of range [0, {self.total_degree})"
            )
        if port < self.degree:
            return int(self._adjacency[node, port])
        return node

    def is_original_port(self, port: int) -> bool:
        return 0 <= port < self.degree

    def padding_count(self, node: int) -> int:
        """Structural self-loops introduced by padding at ``node``."""
        return self.degree - int(self.true_degrees[node])

    # ------------------------------------------------------------------
    # Markov chain view
    # ------------------------------------------------------------------

    def _real_edge_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed real edges ``(us, ps, vs)`` (padding excluded)."""
        ports = np.arange(self.degree)
        real = ports[None, :] < self.true_degrees[:, None]
        us, ps = np.nonzero(real)
        return us, ps, self._adjacency[us, ps]

    def transition_matrix(self) -> np.ndarray:
        """Doubly stochastic walk matrix of the padded graph."""
        if self._transition_matrix is None:
            n = self.num_nodes
            d_plus = self.total_degree
            matrix = np.zeros((n, n), dtype=np.float64)
            us, _, vs = self._real_edge_arrays()
            np.add.at(matrix, (us, vs), 1.0 / d_plus)
            diag = np.arange(n)
            matrix[diag, diag] += (
                self._num_self_loops
                + self.degree
                - self.true_degrees
            ) / d_plus
            matrix.setflags(write=False)
            self._transition_matrix = matrix
        return self._transition_matrix

    def transition_matrix_sparse(self):
        """``P`` as a scipy CSR matrix, built directly from adjacency.

        Never materializes the dense ``(n, n)`` array: the real edges
        each carry mass ``1/d+`` and the diagonal absorbs the lazy
        loops plus the padding loops, exactly as in
        :meth:`transition_matrix`.  The result is cached; callers must
        not mutate it.
        """
        if self._transition_matrix_sparse is None:
            from scipy.sparse import coo_matrix

            n = self.num_nodes
            d_plus = self.total_degree
            us, _, vs = self._real_edge_arrays()
            diag = np.arange(n)
            rows = np.concatenate([us, diag])
            cols = np.concatenate([vs, diag])
            data = np.concatenate(
                [
                    np.full(us.shape, 1.0 / d_plus),
                    (
                        self._num_self_loops
                        + self.degree
                        - self.true_degrees
                    )
                    / d_plus,
                ]
            )
            self._transition_matrix_sparse = coo_matrix(
                (data, (rows, cols)), shape=(n, n)
            ).tocsr()
        return self._transition_matrix_sparse

    # ------------------------------------------------------------------
    # Metric helpers (real edges only)
    # ------------------------------------------------------------------

    def distances_from(self, source: int) -> np.ndarray:
        """Hop distances over real edges, frontier-vectorized BFS.

        Padding entries point at their own node, whose distance is
        already set by the time the node enters a frontier, so they
        drop out of every ``fresh`` mask for free.
        """
        n = self.num_nodes
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            reached = self._adjacency[frontier].ravel()
            fresh = np.unique(reached[dist[reached] < 0])
            level += 1
            dist[fresh] = level
            frontier = fresh
        return dist

    def is_connected(self) -> bool:
        return bool((self.distances_from(0) >= 0).all())

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

    def __setstate__(self, state: dict) -> None:
        # As BalancingGraph.__setstate__: unpickled arrays stay read-only.
        self.__dict__.update(state)
        for array in (
            self._adjacency, self._reverse_port, self._node_tiers,
            self._transition_matrix,
        ):
            if array is not None:
                array.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PaddedBalancingGraph(name={self.name!r}, "
            f"n={self.num_nodes}, d_max={self.degree})"
        )


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

    The fully vectorized sibling of :func:`from_irregular_edges` —
    the construction path for generated fabrics (fat-tree, leaf-spine)
    whose edge sets are assembled as numpy arrays.  Each undirected
    edge appears once in ``(sources, targets)``; neighbor blocks come
    out sorted ascending, exactly like :func:`from_irregular_edges`.
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
    if not graph.is_connected():
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
    neighbor_lists: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edges:
        if u == v:
            raise GraphValidationError(
                "irregular input must not contain explicit self-loops"
            )
        if v in neighbor_lists[u]:
            raise GraphValidationError(
                f"duplicate edge ({u}, {v}) in irregular input"
            )
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
    degrees = np.array(
        [len(lst) for lst in neighbor_lists], dtype=np.int64
    )
    if degrees.min() == 0:
        isolated = int(np.argmin(degrees))
        raise GraphValidationError(
            f"node {isolated} has no edges; graph must be connected"
        )
    d_max = int(degrees.max())
    adjacency = np.empty((num_nodes, d_max), dtype=np.int64)
    for u in range(num_nodes):
        row = sorted(neighbor_lists[u])
        adjacency[u] = row + [u] * (d_max - len(row))
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
    if not graph.is_connected():
        raise GraphValidationError("irregular input graph is disconnected")
    return graph


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
