"""Compact round descriptions — the matrix-free structured-sends protocol.

The paper's deterministic schemes never need a full ``(n, d+)`` sends
matrix: a round of SEND(⌊x/d+⌋) / SEND([x/d+]) is fully described by a
*uniform per-edge share* plus a floor/ceil assignment over the
self-loops, and a rotor-router round by the same uniform share plus a
cyclic *window* of ports receiving one extra token.  Self-loop tokens
never leave their node, so executing a round only needs the per-node
edge outflow and a share-gather over the adjacency:

    ``x_{t+1}(u) = x_t(u) - out(u) + Σ_{v ~ u} share(v) [+ window hits]``

:class:`StructuredRound` is that compact description.  Balancers that
can produce it set :attr:`~repro.core.balancer.Balancer.\
supports_structured_sends` and implement ``sends_structured``; the
engines (:class:`~repro.core.engine.Simulator`,
:class:`~repro.scenarios.batch.BatchRunner`) then execute rounds with a
handful of O(n·d) operations and validate invariants on the compact
form — no ``(n, d+)`` allocation anywhere on the hot path.  The dense
``sends`` protocol remains the fallback for arbitrary balancers and
for dense-requiring probes (loads-only and structured-capable probes
ride this path; see :mod:`repro.core.probes`), and
:meth:`StructuredRound.to_dense` reconstructs the exact sends matrix
for parity tests.

All arrays are integer; the structured execution is bit-identical to
the dense engine (enforced by the property suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.errors import InvalidSendMatrix
from repro.graphs.balancing import BalancingGraph


def rotor_gather(
    graph: BalancingGraph, reverse_flat: np.ndarray
) -> sp.csr_matrix:
    """The ``(n, n·d)`` CSR inflow operator of a rotor round.

    Row ``u`` holds a one at each of its ``d`` reverse-edge slots
    ``reverse_flat[u·d : (u+1)·d]``.  The arrays are assigned after
    construction so that ``indices`` *is* ``reverse_flat`` (int64, no
    scipy int32 downcast copy) and ``indptr`` matches its dtype, which
    keeps the matvec copy-free; see :class:`RotorWindow` for the alias
    invariant this buys.  The scalar-step ``indptr`` needs every row
    padded to exactly ``graph.degree`` edge ports.
    """
    size = reverse_flat.size
    if size != graph.num_nodes * graph.degree:
        raise ValueError(
            f"rotor gather needs a degree-padded adjacency: {size} edge "
            f"ports for {graph.num_nodes} nodes of degree {graph.degree}"
        )
    gather = sp.csr_matrix((graph.num_nodes, size), dtype=np.int64)
    gather.data = np.ones(size, dtype=np.int64)
    gather.indptr = np.arange(0, size + 1, graph.degree, dtype=np.int64)
    gather.indices = reverse_flat
    return gather


@dataclass
class RotorWindow:
    """A cyclic +1 window over each node's ports, in rotor-order space.

    Port ``p`` of node ``u`` receives one extra token iff its cyclic
    position ``positions[u, p]`` lies in the half-open window
    ``[rotors[u], rotors[u] + extra[u])`` taken modulo ``d+``.

    A window describes exactly one round (fresh ``rotors``/``extra``
    every round), so the derived hit matrices are computed at most once
    per instance and cached — ``edge_hit_matrix``/``edge_hits``/
    ``loop_hits`` used to redo the ``(positions - rotors) % d+`` modulo
    work on every call, up to three times per round across the engine,
    probe, and fault paths.  Callers must not mutate ``rotors``/
    ``extra`` after the first query.

    ``positions``, ``reverse_flat`` and ``gather`` are static per-bind
    precomputes owned by the balancer (shared across rounds):

    * ``positions[u, p]`` — cyclic position of port ``p`` in node
      ``u``'s rotor order (the inverse permutation of the port order);
    * ``reverse_flat`` — flat index ``adjacency * d + reverse_port``
      (raveled): entry ``(u, j)`` is the sender-side ``(n, d)`` slot of
      the token arriving at ``u`` over port ``j``;
    * ``gather`` — the :func:`rotor_gather` CSR operator over
      ``reverse_flat``: applied to a raveled sender-side ``(n, d)``
      per-port value matrix it yields each node's inflow, so one
      quotient-plus-hit matrix serves both sides of the round.

    Alias invariant: ``gather.indices`` *is* ``reverse_flat`` (the same
    int64 memory), so repairing ``reverse_flat`` in place under churn
    repairs the operator too.  Never rebind ``reverse_flat`` without
    rebuilding ``gather``.
    """

    rotors: np.ndarray
    extra: np.ndarray
    positions: np.ndarray
    reverse_flat: np.ndarray
    gather: sp.csr_matrix
    _edge_hit_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _loop_hit_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    def edge_hit_matrix(self, graph: BalancingGraph) -> np.ndarray:
        """``(n, d)`` bool: does port ``j`` of ``u`` get a window token?"""
        if self._edge_hit_cache is None:
            d_plus = graph.total_degree
            offsets = (
                self.positions[:, : graph.degree] - self.rotors[:, None]
            ) % d_plus
            self._edge_hit_cache = offsets < self.extra[:, None]
        return self._edge_hit_cache

    def edge_hits(self, graph: BalancingGraph) -> np.ndarray:
        """Per-node count of original-edge ports inside the window."""
        return self.edge_hit_matrix(graph).sum(axis=1)

    def loop_hits(self, graph: BalancingGraph) -> np.ndarray:
        """Per-node count of self-loop ports inside the window."""
        if self._loop_hit_cache is None:
            d_plus = graph.total_degree
            offsets = (
                self.positions[:, graph.degree:] - self.rotors[:, None]
            ) % d_plus
            self._loop_hit_cache = (
                (offsets < self.extra[:, None]).sum(axis=1)
            )
        return self._loop_hit_cache


@dataclass
class StructuredRound:
    """One round of sends in compact (matrix-free) form.

    Dense equivalent (see :meth:`to_dense`): every original-edge port of
    node ``u`` carries ``edge_share[u]``, every self-loop port carries
    ``loop_base[u]`` with the first ``loop_ceil[u]`` loops receiving one
    extra token, and — if a :class:`RotorWindow` is attached — every
    port whose cyclic position falls inside the window receives one
    more.  Tokens not covered by any of these stay at the node as its
    remainder.

    ``edge_share`` / ``loop_base`` / ``loop_ceil`` may carry leading
    batch dimensions (``(replicas, n)``) for stateless schemes; a
    ``window`` (stateful rotor schemes) requires plain ``(n,)`` shapes.
    """

    edge_share: np.ndarray
    loop_base: np.ndarray | None = None
    loop_ceil: np.ndarray | None = None
    window: RotorWindow | None = None

    # -- derived per-node totals (all O(n) vectors) ---------------------

    def edge_outflow(self, graph: BalancingGraph) -> np.ndarray:
        """Tokens leaving each node over original edges this round."""
        out = graph.degree * self.edge_share
        if self.window is not None:
            out = out + self.window.edge_hits(graph)
        return out

    def kept_tokens(self, graph: BalancingGraph) -> np.ndarray:
        """Tokens assigned to self-loop ports (they stay at the node)."""
        kept = np.zeros_like(self.edge_share)
        if self.loop_base is not None:
            kept = kept + graph.num_self_loops * self.loop_base
        if self.loop_ceil is not None:
            kept = kept + self.loop_ceil
        if self.window is not None:
            kept = kept + self.window.loop_hits(graph)
        return kept

    def remainder(
        self, graph: BalancingGraph, loads: np.ndarray
    ) -> np.ndarray:
        """Unassigned tokens per node (negative means overdraw).

        O(n) with no gathers: a rotor window of length ``extra < d+``
        covers exactly ``extra`` distinct ports, so the total assigned
        is ``d·edge_share + d°·loop_base + loop_ceil + extra``
        regardless of where the window falls.
        """
        assigned = graph.degree * self.edge_share
        if self.loop_base is not None:
            assigned = assigned + graph.num_self_loops * self.loop_base
        if self.loop_ceil is not None:
            assigned = assigned + self.loop_ceil
        if self.window is not None:
            assigned = assigned + self.window.extra
        return loads - assigned

    # -- execution ------------------------------------------------------

    def apply(
        self, graph: BalancingGraph, loads: np.ndarray
    ) -> np.ndarray:
        """Execute the round: the new load vector (or stacked vectors).

        Self-loop tokens and the remainder both stay at the node, so
        only the edge flows move:
        ``new = loads - edge_outflow + share-gather (+ window hits)``.
        A rotor round gathers quotient and window hit in one CSR
        matvec over the sender-side per-port values.
        """
        share = self.edge_share
        window = self.window
        if window is None:
            incoming = np.take(share, graph.adjacency, axis=-1).sum(axis=-1)
            return loads - graph.degree * share + incoming
        hits = window.edge_hit_matrix(graph)
        outgoing = graph.degree * share + hits.sum(axis=1)
        incoming = window.gather @ (share[:, None] + hits).ravel()
        return loads - outgoing + incoming

    # -- validation (compact form; no dense allocation) -----------------

    def validate(self, graph: BalancingGraph, loads: np.ndarray) -> None:
        """Structural validation mirroring the dense sends checks.

        Shape/dtype/nonnegativity of every component, ``loop_ceil``
        within the number of self-loops, window lengths within
        ``[0, d+)`` — all on O(n) vectors.  Overdraw (negative
        remainder) is checked separately by the engines because it is
        enforced even when per-round validation is off.
        """
        expected = loads.shape
        num_loops = graph.num_self_loops
        for label, array in (
            ("edge_share", self.edge_share),
            ("loop_base", self.loop_base),
            ("loop_ceil", self.loop_ceil),
        ):
            if array is None:
                continue
            if array.shape != expected:
                raise InvalidSendMatrix(
                    f"structured {label} has shape {array.shape}, "
                    f"expected {expected}"
                )
            if not np.issubdtype(array.dtype, np.integer):
                raise InvalidSendMatrix(
                    f"structured {label} must be integer, got dtype "
                    f"{array.dtype}"
                )
            if array.size and array.min() < 0:
                raise InvalidSendMatrix(
                    f"structured {label} contains negative entries; "
                    "tokens can only move forward along edges"
                )
        if num_loops == 0 and (
            (self.loop_base is not None and np.any(self.loop_base != 0))
            or (self.loop_ceil is not None and np.any(self.loop_ceil != 0))
        ):
            raise InvalidSendMatrix(
                "structured round assigns self-loop tokens but the graph "
                "has no self-loops"
            )
        if self.loop_ceil is not None and num_loops > 0:
            if self.loop_ceil.max() > num_loops:
                raise InvalidSendMatrix(
                    f"structured loop_ceil exceeds the {num_loops} "
                    "self-loops available"
                )
        window = self.window
        if window is not None:
            if self.edge_share.ndim != 1:
                raise InvalidSendMatrix(
                    "rotor windows describe per-node state and require "
                    "1-D structured rounds (got batched shares)"
                )
            d_plus = graph.total_degree
            n = graph.num_nodes
            for label, array in (
                ("rotors", window.rotors),
                ("extra", window.extra),
            ):
                if array.shape != (n,):
                    raise InvalidSendMatrix(
                        f"rotor window {label} has shape {array.shape}, "
                        f"expected ({n},)"
                    )
            if window.extra.min() < 0 or window.extra.max() >= d_plus:
                raise InvalidSendMatrix(
                    f"rotor window lengths must lie in [0, {d_plus})"
                )
            if window.rotors.min() < 0 or window.rotors.max() >= d_plus:
                raise InvalidSendMatrix(
                    f"rotor positions must lie in [0, {d_plus})"
                )

    # -- interop --------------------------------------------------------

    def to_dense(self, graph: BalancingGraph) -> np.ndarray:
        """The exact ``(..., n, d+)`` sends matrix this round describes.

        Bit-identical to the balancer's dense ``sends`` output; used by
        the parity tests and anywhere a monitor needs real matrices.
        """
        degree = graph.degree
        d_plus = graph.total_degree
        num_loops = graph.num_self_loops
        sends = np.zeros(self.edge_share.shape + (d_plus,), dtype=np.int64)
        sends[..., :degree] = self.edge_share[..., None]
        if self.loop_base is not None:
            sends[..., degree:] = self.loop_base[..., None]
        if self.loop_ceil is not None and num_loops > 0:
            sends[..., degree:] += (
                np.arange(num_loops) < self.loop_ceil[..., None]
            )
        if self.window is not None:
            offsets = (
                self.window.positions - self.window.rotors[:, None]
            ) % d_plus
            sends += offsets < self.window.extra[:, None]
        return sends
