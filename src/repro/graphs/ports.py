"""The port layout every balancing graph shares.

A balancing graph gives each of its ``n`` nodes ``d+ = d + d°`` ports:

* ports ``0 .. d-1`` form the **original block**.  Port ``p`` of node
  ``u`` is a *real* edge to ``adjacency[u, p]`` when
  ``p < true_degrees[u]``; the rest of the block is *padding* — the
  ports point back at ``u`` and are their own reverse, so the engine's
  gather returns their tokens to the sender (self-loop semantics);
* ports ``d .. d+-1`` are the ``d°`` lazy **self-loops**.

A d-regular graph is the padded graph with no padding: its
``true_degrees`` is a read-only ``broadcast_to(d, n)`` that allocates
nothing.  :class:`PortGraph` holds this layout and everything derived
from it alone — port queries, the tier metadata channel, the
(doubly stochastic) walk matrix, BFS and connectivity — so that
:class:`~repro.graphs.balancing.BalancingGraph` (regular),
:class:`~repro.graphs.irregular.PaddedBalancingGraph` (padded, Section
1.1 of the paper) and :class:`~repro.graphs.mutable.MutableBalancingGraph`
(churned in place) differ only in how they are built and changed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graphs.errors import GraphValidationError
from repro.graphs.validation import is_connected, real_port_mask


class PortGraph:
    """Shared structure of regular, padded and mutable balancing graphs.

    Subclasses validate their input and then hand the finished layout
    to this constructor.

    Args:
        adjacency: ``(n, d)`` int64 array, padding entries holding the
            node's own index.
        reverse_port: ``(n, d)`` int64 array; ``reverse_port[u, p] = q``
            with ``adjacency[adjacency[u, p], q] == u`` on real ports and
            ``q == p`` on padding.
        true_degrees: length-``n`` real degrees, or ``None`` when every
            port of the block is real (a regular graph).
        num_self_loops: lazy self-loops ``d°`` per node.
        name: display name.
        node_tiers: optional length-``n`` tier id per node (an index
            into ``tier_names``), e.g. host/edge/agg/core of a fabric.
        tier_names: names of the tiers referenced by ``node_tiers``.
    """

    # Arrays kept read-only, also after unpickling.
    _LOCKED = (
        "_adjacency", "_reverse_port", "_true_degrees", "_node_tiers",
        "_transition_matrix",
    )

    def __init__(
        self,
        adjacency: np.ndarray,
        reverse_port: np.ndarray,
        true_degrees: np.ndarray | None,
        num_self_loops: int,
        *,
        name: str,
        node_tiers: np.ndarray | Sequence[int] | None = None,
        tier_names: Sequence[str] | None = None,
    ) -> None:
        self._adjacency = adjacency
        self._reverse_port = reverse_port
        self._true_degrees = true_degrees
        self._num_self_loops = int(num_self_loops)
        self.name = name
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
            if tiers.shape != (self.num_nodes,):
                raise GraphValidationError(
                    "node_tiers length must match the number of nodes"
                )
            if not names:
                raise GraphValidationError("tier_names must be non-empty")
            if tiers.min() < 0 or tiers.max() >= len(names):
                raise GraphValidationError(
                    "node_tiers values must index into tier_names"
                )
            self._node_tiers = tiers
            self._tier_names = names
        self._lock()

    def _lock(self) -> None:
        for attr in self._LOCKED:
            array = getattr(self, attr)
            if array is not None:
                array.setflags(write=False)

    def __setstate__(self, state: dict) -> None:
        # Unpickled arrays come back writable (a suite worker on a
        # platform without fork receives its graph this way); a graph's
        # arrays stay read-only.
        self.__dict__.update(state)
        self._lock()

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._adjacency.shape[0]

    @property
    def degree(self) -> int:
        """Width ``d`` of the original-port block (incl. padding)."""
        return self._adjacency.shape[1]

    @property
    def num_self_loops(self) -> int:
        """Number of lazy self-loops per node, the paper's ``d°``."""
        return self._num_self_loops

    @property
    def total_degree(self) -> int:
        """Degree of the balancing graph, the paper's ``d+ = d + d°``."""
        return self.degree + self._num_self_loops

    @property
    def adjacency(self) -> np.ndarray:
        """``(n, d)`` neighbor array (padding entries are the node)."""
        return self._adjacency

    @property
    def reverse_port(self) -> np.ndarray:
        """Reverse-port map: ``adjacency[adjacency[u, p], q] == u`` for
        ``q = reverse_port[u, p]``; padding ports are their own reverse."""
        return self._reverse_port

    @property
    def true_degrees(self) -> np.ndarray:
        """Real (non-padding) degree of every node.

        A read-only ``broadcast_to(d, n)`` when there is no padding.
        """
        if self._true_degrees is None:
            return np.broadcast_to(np.int64(self.degree), (self.num_nodes,))
        return self._true_degrees

    def real_port_mask(self) -> np.ndarray:
        """``(n, d)`` bool mask of the real ports (built per call)."""
        return real_port_mask(self.true_degrees, self.degree)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Real neighbors of ``node`` in port order (padding excluded)."""
        deg = int(self.true_degrees[node])
        return tuple(int(v) for v in self._adjacency[node, :deg])

    def port_target(self, node: int, port: int) -> int:
        """Destination of ``port`` at ``node`` (self for loops/padding)."""
        if not 0 <= port < self.total_degree:
            raise IndexError(
                f"port {port} out of range [0, {self.total_degree})"
            )
        if port < self.degree:
            return int(self._adjacency[node, port])
        return node

    def is_original_port(self, port: int) -> bool:
        """True if ``port`` lies in the original block, not a lazy loop."""
        return 0 <= port < self.degree

    def padding_count(self, node: int) -> int:
        """Structural self-loops introduced by padding at ``node``."""
        return self.degree - int(self.true_degrees[node])

    # ------------------------------------------------------------------
    # Tier metadata channel
    # ------------------------------------------------------------------

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

    # ------------------------------------------------------------------
    # Markov chain view
    # ------------------------------------------------------------------

    def transition_matrix(self) -> np.ndarray:
        """Transition matrix ``P`` of the random walk on ``G+``.

        ``P[u, v] = 1/d+`` for each real edge ``(u, v)``; the diagonal
        holds the lazy loops plus the padding, ``(d° + d - deg(u))/d+``,
        so ``P`` is doubly stochastic.  The result is cached; callers
        must not mutate it.
        """
        if self._transition_matrix is None:
            matrix = self._walk_matrix()
            matrix.setflags(write=False)
            self._transition_matrix = matrix
        return self._transition_matrix

    def transition_matrix_sparse(self):
        """``P`` as a scipy CSR matrix, never materializing ``(n, n)``.

        Zero diagonal entries (no loops, no padding) are left out.  The
        result is cached; callers must not mutate it.
        """
        if self._transition_matrix_sparse is None:
            self._transition_matrix_sparse = self._walk_matrix_sparse()
        return self._transition_matrix_sparse

    def _walk_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real directed edges ``(us, vs)`` and the per-node loop mass."""
        us, ps = np.nonzero(self.real_port_mask())
        loops = (
            self._num_self_loops + self.degree - self.true_degrees
        ) / self.total_degree
        return us, self._adjacency[us, ps], loops

    def _walk_matrix(self) -> np.ndarray:
        n = self.num_nodes
        us, vs, loops = self._walk_parts()
        matrix = np.zeros((n, n), dtype=np.float64)
        np.add.at(matrix, (us, vs), 1.0 / self.total_degree)
        diag = np.arange(n)
        matrix[diag, diag] += loops
        return matrix

    def _walk_matrix_sparse(self):
        from scipy.sparse import coo_matrix

        n = self.num_nodes
        us, vs, loops = self._walk_parts()
        diag = np.flatnonzero(loops)
        data = np.concatenate(
            [np.full(us.shape, 1.0 / self.total_degree), loops[diag]]
        )
        return coo_matrix(
            (data, (np.concatenate([us, diag]), np.concatenate([vs, diag]))),
            shape=(n, n),
        ).tocsr()

    # ------------------------------------------------------------------
    # Metric structure (real edges only)
    # ------------------------------------------------------------------

    def distances_from(self, source: int) -> np.ndarray:
        """BFS hop distances over real edges from ``source`` (-1 if
        unreachable).

        Frontier-vectorized: each level expands the whole frontier with
        one adjacency gather.  Padding entries point at their own node,
        whose distance is already set by the time the node enters a
        frontier, so they drop out of every ``fresh`` mask for free.
        """
        dist = np.full(self.num_nodes, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            reached = self._adjacency[frontier].ravel()
            frontier = np.unique(reached[dist[reached] < 0])
            level += 1
            dist[frontier] = level
        return dist

    def is_connected(self) -> bool:
        """True if the real edges connect every node."""
        return is_connected(self._adjacency)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, n={self.num_nodes}, "
            f"d={self.degree}, self_loops={self.num_self_loops})"
        )
