"""Generators for the d-regular graph families used in the paper.

Every generator returns a :class:`~repro.graphs.balancing.BalancingGraph`.
The default self-loop count is ``d° = d`` (so ``d+ = 2d``), the standard
augmentation assumed by Theorems 2.3(i)/(ii) and 3.3; pass
``num_self_loops`` explicitly to deviate (e.g. ``0`` for Theorem 4.3).

Families provided:

* :func:`cycle` — the canonical bad expander (``μ = Θ(1/n²)``).
* :func:`complete` — the canonical perfect expander.
* :func:`circulant` — general circulant graphs; includes the
  ⌊d/2⌋-clique construction from Theorem 4.2.
* :func:`hypercube` — ``log n``-regular, ``μ = Θ(1/log n)``.
* :func:`torus` — r-dimensional torus, ``d = 2r``.
* :func:`random_regular` — random d-regular graphs, which are expanders
  with high probability.
* :func:`petersen` — 3-regular, non-bipartite, odd girth 5 (Theorem 4.3
  beyond cycles).
* :func:`complete_bipartite_regular` — ``K_{k,k}``, bipartite d-regular.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.balancing import BalancingGraph
from repro.graphs.errors import GraphConstructionError
from repro.registry import Registry

#: Decorator-based family registry (a Mapping, so ``in`` / iteration /
#: indexing work exactly as they did when this was a plain dict).
FAMILY_BUILDERS: Registry = Registry("graph family")

#: Decorator registering a graph-family builder: ``@register_family(name)``.
register_family = FAMILY_BUILDERS.register


def _default_loops(degree: int, num_self_loops: int | None) -> int:
    return degree if num_self_loops is None else num_self_loops


@register_family("cycle")
def cycle(n: int, num_self_loops: int | None = None) -> BalancingGraph:
    """Cycle ``C_n`` (2-regular). Requires ``n >= 3``."""
    if n < 3:
        raise GraphConstructionError(f"cycle requires n >= 3, got {n}")
    # Rows [u - 1, u + 1] are ascending except at the two wrap nodes.
    adjacency = np.empty((n, 2), dtype=np.int64)
    adjacency[:, 0] = np.arange(-1, n - 1)
    adjacency[:, 1] = np.arange(1, n + 1)
    adjacency[0] = (1, n - 1)
    adjacency[n - 1] = (0, n - 2)
    return BalancingGraph(
        adjacency,
        _default_loops(2, num_self_loops),
        name=f"cycle(n={n})",
    )


@register_family("complete")
def complete(n: int, num_self_loops: int | None = None) -> BalancingGraph:
    """Complete graph ``K_n`` ((n-1)-regular). Requires ``n >= 2``."""
    if n < 2:
        raise GraphConstructionError(f"complete requires n >= 2, got {n}")
    # Row u is 0..n-1 with u removed: drop the diagonal of the full
    # (n, n) index grid in one masked reshape.
    grid = np.broadcast_to(np.arange(n), (n, n))
    off_diagonal = ~np.eye(n, dtype=bool)
    adjacency = grid[off_diagonal].reshape(n, n - 1)
    return BalancingGraph(
        adjacency,
        _default_loops(n - 1, num_self_loops),
        name=f"complete(n={n})",
    )


@register_family("circulant")
def circulant(
    n: int,
    offsets: list[int],
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """Circulant graph: ``i ~ j`` iff ``(i - j) mod n in ±offsets``.

    Offsets must be distinct values in ``[1, n/2]``.  An offset equal to
    ``n/2`` (n even) contributes a single edge (degree 1), every other
    offset contributes two edges (degree 2).
    """
    if n < 3:
        raise GraphConstructionError(f"circulant requires n >= 3, got {n}")
    offsets = sorted(set(int(o) for o in offsets))
    if not offsets:
        raise GraphConstructionError("circulant requires at least one offset")
    if offsets[0] < 1 or offsets[-1] > n // 2:
        raise GraphConstructionError(
            f"offsets must lie in [1, {n // 2}], got {offsets}"
        )
    # A circulant is vertex-transitive: node u's neighborhood is
    # u + deltas (mod n) for the node-independent delta set {±offsets},
    # so one broadcast add builds the whole adjacency.
    deltas_set = set()
    for off in offsets:
        deltas_set.add(off)
        deltas_set.add(n - off)
    deltas = np.array(sorted(deltas_set), dtype=np.int64)
    adjacency = np.sort(
        (np.arange(n)[:, None] + deltas[None, :]) % n, axis=1
    )
    degree = adjacency.shape[1]
    return BalancingGraph(
        adjacency,
        _default_loops(degree, num_self_loops),
        name=f"circulant(n={n}, offsets={offsets})",
    )


@register_family("circulant_clique")
def circulant_clique(
    n: int,
    degree: int,
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """The Theorem 4.2 graph: circulant with offsets ``1..⌊d/2⌋``.

    Nodes ``i`` and ``j`` are adjacent iff ``(i - j) mod n`` lies in
    ``{1, ..., ⌊d/2⌋}`` (plus the antipodal offset ``n/2`` when ``d`` is
    odd and ``n`` even).  Nodes ``{0, ..., ⌊d/2⌋ - 1}`` then form a
    ⌊d/2⌋-clique, which the stateless lower bound exploits.
    """
    if degree < 2:
        raise GraphConstructionError("circulant_clique requires degree >= 2")
    half = degree // 2
    if n <= 2 * half:
        raise GraphConstructionError(
            f"need n > {2 * half} for offsets 1..{half}, got n={n}"
        )
    offsets = list(range(1, half + 1))
    if degree % 2 == 1:
        if n % 2 != 0:
            raise GraphConstructionError(
                "odd degree circulant_clique requires even n"
            )
        offsets.append(n // 2)
    graph = circulant(n, offsets, num_self_loops)
    graph.name = f"circulant_clique(n={n}, d={degree})"
    return graph


@register_family("hypercube")
def hypercube(
    dimension: int,
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """Hypercube ``Q_dim`` on ``2**dim`` nodes (dim-regular)."""
    if dimension < 1:
        raise GraphConstructionError(
            f"hypercube requires dimension >= 1, got {dimension}"
        )
    n = 1 << dimension
    nodes = np.arange(n)
    adjacency = np.stack(
        [nodes ^ (1 << bit) for bit in range(dimension)], axis=1
    )
    adjacency = np.sort(adjacency, axis=1)
    return BalancingGraph(
        adjacency,
        _default_loops(dimension, num_self_loops),
        name=f"hypercube(dim={dimension})",
    )


@register_family("torus")
def torus(
    side: int,
    dimensions: int = 2,
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """r-dimensional torus with ``side**dimensions`` nodes (2r-regular).

    ``side >= 3`` is required so that wrap-around edges do not collapse
    into parallel edges.
    """
    if side < 3:
        raise GraphConstructionError(f"torus requires side >= 3, got {side}")
    if dimensions < 1:
        raise GraphConstructionError("torus requires dimensions >= 1")
    shape = (side,) * dimensions
    n = side**dimensions
    # Rolling the id grid along an axis maps every node to its ±1
    # neighbor on that axis, wrap-around included — one roll per
    # (axis, direction) builds the whole adjacency.
    ids = np.arange(n, dtype=np.int64).reshape(shape)
    columns = [
        np.roll(ids, -delta, axis=axis).reshape(-1)
        for axis in range(dimensions)
        for delta in (-1, 1)
    ]
    adjacency = np.sort(np.stack(columns, axis=1), axis=1)
    return BalancingGraph(
        adjacency,
        _default_loops(2 * dimensions, num_self_loops),
        name=f"torus(side={side}, r={dimensions})",
    )


@register_family("random_regular")
def random_regular(
    n: int,
    degree: int,
    seed: int,
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """Random d-regular graph (an expander w.h.p. for ``d >= 3``).

    Uses networkx's pairing-model generator, retrying the seed until the
    sample is connected (disconnection probability is o(1)).
    """
    import networkx as nx

    if n * degree % 2 != 0:
        raise GraphConstructionError(
            f"n*degree must be even, got n={n}, degree={degree}"
        )
    if degree >= n:
        raise GraphConstructionError(
            f"degree must be < n, got degree={degree}, n={n}"
        )
    for attempt in range(64):
        candidate = nx.random_regular_graph(degree, n, seed=seed + attempt)
        if nx.is_connected(candidate):
            graph = BalancingGraph.from_networkx(
                candidate, _default_loops(degree, num_self_loops)
            )
            graph.name = f"random_regular(n={n}, d={degree}, seed={seed})"
            return graph
    raise GraphConstructionError(
        f"could not sample a connected {degree}-regular graph on {n} nodes"
    )


_PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),          # outer 5-cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),          # inner 5-star
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),          # spokes
]


@register_family("petersen")
def petersen(num_self_loops: int | None = None) -> BalancingGraph:
    """The Petersen graph: 3-regular, non-bipartite, odd girth 5."""
    graph = BalancingGraph.from_edge_list(
        10,
        _PETERSEN_EDGES,
        _default_loops(3, num_self_loops),
    )
    graph.name = "petersen"
    return graph


@register_family("complete_bipartite")
def complete_bipartite_regular(
    side: int,
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """``K_{side,side}``: bipartite, side-regular (contrast for Thm 4.3)."""
    if side < 1:
        raise GraphConstructionError("side must be >= 1")
    if side == 1:
        raise GraphConstructionError(
            "K_{1,1} is a single edge; need side >= 2 for a simple graph"
        )
    n = 2 * side
    adjacency = np.empty((n, side), dtype=np.int64)
    left = np.arange(side)
    right = np.arange(side, n)
    for u in left:
        adjacency[u] = right
    for u in right:
        adjacency[u] = left
    return BalancingGraph(
        adjacency,
        _default_loops(side, num_self_loops),
        name=f"complete_bipartite(side={side})",
    )


@register_family("ring_of_cliques")
def ring_of_cliques(
    num_cliques: int,
    clique_size: int,
    num_self_loops: int | None = None,
) -> BalancingGraph:
    """A ring of ``K_{clique_size}`` blocks joined by matchings.

    Consecutive cliques are joined by a perfect matching, making the
    graph ``(clique_size + 1)``-regular while the diameter grows like
    ``num_cliques`` — degree and diameter are *independently* tunable,
    which the Ω(d·diam) experiments (Theorem 4.1) exploit.
    """
    if num_cliques < 3:
        raise GraphConstructionError("need at least 3 cliques for a ring")
    if clique_size < 2:
        raise GraphConstructionError("clique_size must be >= 2")
    n = num_cliques * clique_size
    edges: list[tuple[int, int]] = []
    for block in range(num_cliques):
        base = block * clique_size
        # Internal clique edges.
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        # Matching to the next clique: member i <-> member i.
        next_base = ((block + 1) % num_cliques) * clique_size
        for i in range(clique_size):
            edges.append((base + i, next_base + i))
    graph = BalancingGraph.from_edge_list(
        n, edges, _default_loops(clique_size + 1, num_self_loops)
    )
    graph.name = (
        f"ring_of_cliques(blocks={num_cliques}, size={clique_size})"
    )
    return graph




def build(family: str, /, **kwargs) -> BalancingGraph:
    """Build a graph family by name (CLI/scenario/experiment entry point)."""
    if family not in FAMILY_BUILDERS:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise GraphConstructionError(
            f"unknown graph family {family!r}; known families: {known}"
        )
    return FAMILY_BUILDERS[family](**kwargs)
