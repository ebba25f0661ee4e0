"""Structural validation for port layouts.

The engine assumes the *original* graph ``G`` is a simple, connected,
undirected graph given as an ``(n, d)`` integer array where
``adjacency[u]`` lists the neighbors of node ``u`` — every row in full
for a d-regular graph, or its first ``true_degrees[u]`` entries for a
padded one (the rest pointing back at ``u``).  These helpers verify
every assumption and compute the reverse-port map used for vectorized
flow application.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.errors import GraphValidationError


def validate_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Validate an ``(n, d)`` adjacency array for a simple d-regular graph.

    Checks shape, value range, absence of self-edges, absence of parallel
    edges, and symmetry (``v in adjacency[u]`` iff ``u in adjacency[v]``).

    Returns the validated array as contiguous ``int64``.

    Raises:
        GraphValidationError: if any structural assumption is violated.
    """
    adjacency, _ = _validate(adjacency)
    return adjacency


def validate_with_reverse_ports(
    adjacency: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`validate_adjacency` and :func:`reverse_port_map` of the
    validated array, sharing one sort of the directed edges.

    This is a graph build's path.  The reverse map of a row-sorted
    adjacency reuses the backward order's memory.
    """
    adjacency, (forward, backward) = _validate(adjacency)
    return adjacency, _reverse_ports(adjacency, forward, backward)


def _validate(
    adjacency: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray | None, np.ndarray]]:
    """Every check of :func:`validate_adjacency`; also returns the
    directed edge orders the symmetry check sorted."""
    adjacency = np.ascontiguousarray(adjacency, dtype=np.int64)
    if adjacency.ndim != 2:
        raise GraphValidationError(
            f"adjacency must be 2-dimensional, got shape {adjacency.shape}"
        )
    n, d = adjacency.shape
    if n == 0:
        raise GraphValidationError("graph must have at least one node")
    if d == 0:
        raise GraphValidationError("graph must have degree at least 1")
    _check_range(adjacency)
    rows = np.arange(n)[:, None]
    if np.any(adjacency == rows):
        bad = int(np.nonzero(np.any(adjacency == rows, axis=1))[0][0])
        raise GraphValidationError(
            f"node {bad} lists itself as a neighbor; self-loops are added "
            "via BalancingGraph(num_self_loops=...), not the adjacency"
        )
    # Strictly increasing rows have no parallel edges and need no sort.
    rows_sorted = _rows_ascending(adjacency)
    if not rows_sorted:
        sorted_rows = np.sort(adjacency, axis=1)
        duplicate_mask = sorted_rows[:, 1:] == sorted_rows[:, :-1]
        if np.any(duplicate_mask):
            bad = int(np.nonzero(np.any(duplicate_mask, axis=1))[0][0])
            raise GraphValidationError(
                f"node {bad} has parallel edges (duplicate neighbor entries)"
            )
        del sorted_rows, duplicate_mask  # freed before the edge sort
    orders = _directed_edge_orders(adjacency, rows_sorted)
    _check_symmetry(adjacency, *orders)
    return adjacency, orders


def _check_range(adjacency: np.ndarray) -> None:
    n = adjacency.shape[0]
    if adjacency.min() < 0 or adjacency.max() >= n:
        raise GraphValidationError(
            f"neighbor indices must lie in [0, {n - 1}]"
        )


def real_port_mask(true_degrees: np.ndarray, degree: int) -> np.ndarray:
    """``(n, degree)`` mask: port ``p`` of ``u`` is real iff
    ``p < true_degrees[u]``."""
    return np.arange(degree)[None, :] < true_degrees[:, None]


def validate_padded(
    adjacency: np.ndarray, true_degrees: np.ndarray
) -> np.ndarray:
    """Validate a padded ``(n, d_max)`` layout; return its reverse ports.

    Real ports (``p < true_degrees[u]``) must list distinct neighbors
    in range other than ``u`` and pair up symmetrically; padding ports
    must point at ``u``, and each is its own reverse.  The real edges
    go through the same edge sort as a regular graph's.
    """
    _check_range(adjacency)
    n, d_max = adjacency.shape
    ports = np.arange(d_max)
    real = real_port_mask(true_degrees, d_max)
    own = adjacency == np.arange(n)[:, None]
    for bad, problem in (
        (real & own, "real neighbor block contains itself"),
        (~real & ~own, "padding ports must point to the node itself"),
    ):
        if bad.any():
            u = int(np.nonzero(bad.any(axis=1))[0][0])
            raise GraphValidationError(f"node {u}: {problem}")
    # Distinct per-row sentinels >= n for the padding slots keep
    # them out of the duplicate scan without a ragged loop.
    keyed = np.sort(np.where(real, adjacency, n + ports[None, :]), axis=1)
    dup = keyed[:, 1:] == keyed[:, :-1]
    if dup.any():
        u = int(np.nonzero(dup.any(axis=1))[0][0])
        raise GraphValidationError(f"node {u}: duplicate real neighbors")
    orders = _directed_edge_orders(adjacency, real=np.flatnonzero(real))
    _check_symmetry(adjacency, *orders)
    return _reverse_ports(adjacency, *orders)


def _rows_ascending(adjacency: np.ndarray) -> bool:
    return bool(np.all(adjacency[:, 1:] > adjacency[:, :-1]))


def _directed_edge_orders(
    adjacency: np.ndarray,
    rows_sorted: bool = False,
    real: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Sort the directed edges of ``adjacency`` both ways.

    Directed edge ``i = u * d + p`` runs from ``src(i) = u`` over port
    ``p = i % d`` to ``dst(i) = adjacency[u, p]``.  ``forward`` sorts
    the edges by ``(src, dst)``, ``backward`` by ``(dst, src)``.  On a
    symmetric graph the two sorted pair sequences coincide, which makes
    both the symmetry check and the reverse-port map one aligned
    comparison — no per-node dictionaries, no Python loop.

    When every row is ascending (``rows_sorted``; every built-in family
    builds its rows so) the flat edge order already is the forward
    order, returned as ``None`` rather than an ``arange``, and a stable
    sort of ``dst`` alone keeps each ``dst`` group in ascending ``src``
    order: one sort instead of two lexsorts.

    ``real`` (ascending flat indices) restricts both orders to the real
    ports of a padded layout; padding ports take no part.
    """
    n, d = adjacency.shape
    dst = adjacency.reshape(-1)
    if real is not None:
        src, dst = real // d, dst[real]
        return real[np.lexsort((dst, src))], real[np.lexsort((src, dst))]
    if rows_sorted:
        return None, np.argsort(dst, kind="stable")
    src = np.repeat(np.arange(n), d)
    return np.lexsort((dst, src)), np.lexsort((src, dst))


# Edges compared per block by the symmetry check, so its temporaries
# stay small next to the adjacency.
_SYMMETRY_BLOCK = 1 << 18


def _check_symmetry(
    adjacency: np.ndarray, forward: np.ndarray | None, backward: np.ndarray
) -> None:
    """Verify that the neighbor relation is symmetric (vectorized)."""
    d = adjacency.shape[1]
    dst = adjacency.reshape(-1)
    for start in range(0, backward.size, _SYMMETRY_BLOCK):
        stop = min(start + _SYMMETRY_BLOCK, backward.size)
        ahead = (
            np.arange(start, stop) if forward is None
            else forward[start:stop]
        )
        behind = backward[start:stop]
        mismatch = (ahead // d != dst[behind]) | (dst[ahead] != behind // d)
        if mismatch.any():
            k = int(np.argmax(mismatch))
            break
    else:
        return
    # First mismatch of the two sorted pair multisets: the smaller pair
    # exists in one direction only.
    f, b = int(ahead[k]), int(behind[k])
    pair_forward = (f // d, int(dst[f]))
    pair_backward = (int(dst[b]), b // d)
    if pair_forward <= pair_backward:
        u, v = pair_forward
    else:
        # pair_backward = (dst, src) of a real directed edge src -> dst:
        # src lists dst, but dst does not list src back.
        u, v = pair_backward[1], pair_backward[0]
    raise GraphValidationError(
        f"edge ({u}, {v}) is not symmetric: "
        f"{v} does not list {u} as a neighbor"
    )


def reverse_port_map(adjacency: np.ndarray) -> np.ndarray:
    """Compute the reverse-port map of a validated adjacency array.

    ``reverse[u, p] = q`` such that ``adjacency[adjacency[u, p], q] == u``.
    In words: if node ``u`` reaches ``v`` through its port ``p``, then ``v``
    reaches ``u`` back through its port ``q``.  The simulation engine uses
    this to gather incoming flow with a single fancy-indexing expression.

    Computed via the aligned edge orders of
    :func:`_directed_edge_orders`: position ``k`` of the forward order
    holds edge ``(u, v)`` exactly where position ``k`` of the backward
    order holds ``(v, u)``, whose port is its flat index mod ``d``.
    """
    forward, backward = _directed_edge_orders(
        adjacency, _rows_ascending(adjacency)
    )
    return _reverse_ports(adjacency, forward, backward)


def _reverse_ports(
    adjacency: np.ndarray, forward: np.ndarray | None, backward: np.ndarray
) -> np.ndarray:
    """The reverse-port map from the edge orders; consumes ``backward``.

    Ports missing from the orders (padding) are their own reverse.
    """
    n, d = adjacency.shape
    ports = np.remainder(backward, d, out=backward)
    if forward is None:
        return ports.reshape(n, d)
    reverse = np.tile(np.arange(d, dtype=np.int64), n)
    reverse[forward] = ports
    return reverse.reshape(n, d)


def is_connected(adjacency: np.ndarray) -> bool:
    """Return True if the graph described by ``adjacency`` is connected.

    ``adjacency`` must be symmetric (validated), so its strongly
    connected components are its components: scipy then needs no
    transposed copy.  Padding entries are self-edges, which join
    nothing.  Weights play no part, so they are one broadcast ``1.0``
    that takes no memory.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n, d = adjacency.shape
    structure = csr_matrix(
        (
            np.broadcast_to(np.float64(1.0), (n * d,)),
            adjacency.reshape(-1),
            np.arange(0, n * d + 1, d),
        ),
        shape=(n, n),
    )
    components = connected_components(
        structure, directed=True, connection="strong", return_labels=False
    )
    return int(components) == 1


def require_connected(adjacency: np.ndarray) -> None:
    """Raise :class:`GraphValidationError` if the graph is disconnected."""
    if not is_connected(adjacency):
        raise GraphValidationError(
            "graph is disconnected; load balancing cannot equalize loads "
            "across components"
        )
