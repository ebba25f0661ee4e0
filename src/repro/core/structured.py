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

Execution is shaped so that no hot operation reduces or broadcasts
over a short ``d``-length port axis (numpy pays 5-20x the flat-vector
cost for those):

* the uniform share moves through one ``(n, n)`` CSR inflow operator
  per graph (:func:`inflow_gather`) whose ``indices`` *are* the
  graph's raveled adjacency; a rotor round moves share plus window
  hits through :func:`rotor_gather`, whose ``indices`` *are* the
  balancer's ``reverse_flat`` and whose ``data``/``indptr`` *are* the
  inflow operator's.  In-place churn repair of ``adjacency`` and
  ``reverse_flat`` therefore keeps both operators current (the alias
  invariant; see :class:`RotorWindow`);
* a rotor window's per-node quantities come from per-state lookup
  tables (:class:`WindowTables`) indexed by ``state = rotors·d+ +
  extra`` whenever every node shares one port order and ``d+² <= n``;
  otherwise from the ``(positions - rotors) % d+`` formula.

At 10^6 nodes a round's bookkeeping costs what its n-vector passes
cost (each streams 8 MB) plus the live temporaries they leave, so the
hot path counts them:

* the send rules divide through a bind-time :func:`divider` — an
  arithmetic shift and a mask when ``d+`` is a power of two (cycle,
  torus and hypercube at ``d° = d``), ``//`` otherwise — with no
  per-round branching; with shifts a rotor round's quotient, window
  length and advanced rotors take four passes;
* :meth:`StructuredRound.validate` reads each field once, checking
  both ends of a ``[0, bound]`` range with one ``max`` over the
  field's unsigned view; a ``loop_base`` that *is* ``edge_share`` (the
  rotor's) is read once, so a rotor round validates in three passes;
* :meth:`StructuredRound.remainder` re-derives the overdraw remainder
  from the round's fields into one buffer, one pass per term, the
  shared ``loop_base`` counted once as ``d+·edge_share``: three passes
  for a rotor round, four for SEND at ``d° = d``.  The engines take
  its ``min`` every round, validation on or off;
* :meth:`StructuredRound.apply` finishes in place on the matvec
  result; a rotor round's tail reuses the dead per-port value buffer
  and allocates nothing.

All arrays are integer; the structured execution is bit-identical to
the dense engine (enforced by the property suite).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.core.errors import InvalidSendMatrix
from repro.graphs.balancing import BalancingGraph


# Keyed by the graph object, not id(graph): a freed graph's id can be
# reused by a new graph, which must never inherit its operator.
_INFLOW: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class Divider:
    """Floor division of int64 arrays by a divisor fixed at bind time.

    :func:`divider` picks the class once per bind, so a send rule calls
    the same methods every round with no branching of its own.  This
    base class divides with ``//``; :class:`ShiftDivider` takes over for
    powers of two.
    """

    __slots__ = ("divisor",)

    def __init__(self, divisor: int) -> None:
        if divisor < 1:
            raise ValueError(f"divisor must be positive, got {divisor}")
        self.divisor = divisor

    def floor(self, x: np.ndarray) -> np.ndarray:
        """``x // divisor``."""
        return x // self.divisor

    def divmod(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x // divisor, x % divisor)`` as two fresh arrays; the
        remainder is ``x - q·divisor`` built in one buffer (int64
        wraparound cancels, so it is exact on every int64)."""
        quotient = x // self.divisor
        rest = quotient * -self.divisor
        rest += x
        return quotient, rest

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """``x % divisor`` in place, for ``0 <= x < 2·divisor`` (a rotor
        advanced by less than one turn)."""
        x -= self.divisor * (x >= self.divisor)
        return x


class ShiftDivider(Divider):
    """A power-of-two divisor ``2**s``: ``x >> s`` and ``x & (2**s - 1)``
    equal ``x // 2**s`` and ``x % 2**s`` on every int64, negatives
    included (two's complement), at one cheap pass each."""

    __slots__ = ("shift", "mask")

    def __init__(self, divisor: int) -> None:
        super().__init__(divisor)
        self.shift = divisor.bit_length() - 1
        self.mask = divisor - 1

    def floor(self, x: np.ndarray) -> np.ndarray:
        return x >> self.shift

    def divmod(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x >> self.shift, x & self.mask

    def wrap(self, x: np.ndarray) -> np.ndarray:
        return np.bitwise_and(x, self.mask, out=x)


def divider(divisor: int) -> Divider:
    """The :class:`Divider` for a positive ``divisor``: a
    :class:`ShiftDivider` for a power of two, ``//`` otherwise."""
    if divisor >= 1 and divisor & (divisor - 1) == 0:
        return ShiftDivider(divisor)
    return Divider(divisor)


def inflow_gather(graph: BalancingGraph) -> sp.csr_matrix:
    """The graph's ``(n, n)`` CSR inflow operator, cached per graph.

    Row ``u`` holds a one at each neighbor ``adjacency[u, j]``, so
    ``inflow @ share`` is ``Σ_{v ~ u} share(v)`` for every node in one
    sparse matvec (a degree-padded row's self-entries count ``u``
    itself, exactly as a padding port does in the dense gather).  Data
    is all-ones int64 and ``indptr = arange(0, n·d + 1, d)``; the
    ``indices`` *are* ``graph.adjacency.reshape(-1)`` — the same int64
    memory — so a :class:`~repro.graphs.mutable.MutableBalancingGraph`
    editing its adjacency in place keeps the operator current for free.
    """
    inflow = _INFLOW.get(graph)
    if inflow is None:
        n, degree = graph.adjacency.shape
        inflow = sp.csr_matrix((n, n), dtype=np.int64)
        inflow.data = np.ones(n * degree, dtype=np.int64)
        inflow.indptr = np.arange(
            0, n * degree + 1, degree, dtype=np.int64
        )
        inflow.indices = graph.adjacency.reshape(-1)
        _INFLOW[graph] = inflow
    return inflow


def rotor_gather(
    graph: BalancingGraph, reverse_flat: np.ndarray
) -> sp.csr_matrix:
    """The ``(n, n·d)`` CSR inflow operator of a rotor round.

    Row ``u`` holds a one at each of its ``d`` reverse-edge slots
    ``reverse_flat[u·d : (u+1)·d]``.  The arrays are assigned after
    construction so that ``indices`` *is* ``reverse_flat`` (int64, no
    scipy int32 downcast copy), while ``data`` and ``indptr`` *are*
    those of the graph's :func:`inflow_gather` operator (same row
    layout), so the rotor adds no operator memory of its own; see
    :class:`RotorWindow` for the alias invariant this buys.  The
    scalar-step ``indptr`` needs every row padded to exactly
    ``graph.degree`` edge ports.
    """
    size = reverse_flat.size
    if size != graph.num_nodes * graph.degree:
        raise ValueError(
            f"rotor gather needs a degree-padded adjacency: {size} edge "
            f"ports for {graph.num_nodes} nodes of degree {graph.degree}"
        )
    inflow = inflow_gather(graph)
    gather = sp.csr_matrix((graph.num_nodes, size), dtype=np.int64)
    gather.data = inflow.data
    gather.indptr = inflow.indptr
    gather.indices = reverse_flat
    return gather


def in_window(positions, rotors, extra, d_plus: int) -> np.ndarray:
    """The rotor window rule, the one copy of it in the package: is
    cyclic position ``positions`` inside ``[rotors, rotors + extra)``
    modulo ``d_plus``?  (Broadcasts.)"""
    return (positions - rotors) % d_plus < extra


def _outside(array: np.ndarray, upper: int | None) -> bool:
    """Does any entry lie outside ``[0, upper]`` (``[0, ∞)`` for
    ``None``)?  One reduction: a signed integer array viewed as unsigned
    puts every negative entry above any bound."""
    if not array.size:
        return False
    if upper is None:
        return bool(array.min() < 0)
    if array.dtype.kind == "i":
        array = array.view(f"u{array.dtype.itemsize}")
    elif array.dtype.kind != "u":
        return bool(array.min() < 0 or array.max() > upper)
    return bool(array.max() > upper)


class WindowTables(NamedTuple):
    """Rotor window lookups for every ``state = rotor·d+ + extra``.

    Built once per bind for a port order shared by every node (the
    default broadcast order): row ``state`` describes the window
    ``[rotor, rotor + extra)`` over that order.  ``d+²`` rows, so the
    ``d+² <= n`` rule the rotor router applies keeps each table no
    larger than the per-node array a lookup replaces.
    """

    ports: np.ndarray  # (d+², d+) bool: port in window
    hits: np.ndarray  # (d+², d) bool: original-edge port in window
    edge_hits: np.ndarray  # (d+²,) int64: row sums of ``hits``
    loop_hits: np.ndarray  # (d+²,) int64: self-loop ports in window


def window_tables(position_row: np.ndarray, degree: int) -> WindowTables:
    """The :class:`WindowTables` of one port order's position row.

    ``position_row[p]`` is the cyclic position of port ``p``; ports
    ``< degree`` are original edges, the rest self-loops.
    """
    d_plus = position_row.size
    rotor, extra = np.divmod(np.arange(d_plus * d_plus), d_plus)
    inside = in_window(
        position_row, rotor[:, None], extra[:, None], d_plus
    )
    return WindowTables(
        ports=inside,
        hits=np.ascontiguousarray(inside[:, :degree]),
        edge_hits=inside[:, :degree].sum(axis=1, dtype=np.int64),
        loop_hits=inside[:, degree:].sum(axis=1, dtype=np.int64),
    )


@dataclass
class RotorWindow:
    """A cyclic +1 window over each node's ports, in rotor-order space.

    Port ``p`` of node ``u`` receives one extra token iff its cyclic
    position ``positions[u, p]`` lies in the half-open window
    ``[rotors[u], rotors[u] + extra[u])`` taken modulo ``d+``.

    A window describes exactly one round (fresh ``rotors``/``extra``
    every round), so the derived quantities are computed at most once
    per instance and cached — the engine, probe and fault paths can
    each ask for them in the same round.  Callers must not mutate
    ``rotors``/``extra`` after the first query.

    Two ways to answer a query, bit-identical by construction:

    * with ``tables`` (a :class:`WindowTables`; default port order and
      ``d+² <= n``): :attr:`state` ``= rotors·d+ + extra`` is computed
      once, and every query is a table lookup — one flat O(n) gather
      per per-node query, no modulo and no reduction over the short
      port axis;
    * without (custom port orders, or ``d+² > n``): the
      ``(positions - rotors) % d+ < extra`` formula over the ports
      asked about.

    Every consumer (engine apply, :meth:`StructuredRound.to_dense`, the
    flow probe, fault corrections) asks through these methods, so the
    window's representation lives here only: ``edge_hit_matrix``
    (``(n, d)``, cached: the apply builds it, so a fault correction
    indexing it afterwards pays O(pairs)), ``hit_matrix`` (``(n, d+)``)
    and ``edge_hits`` / ``loop_hits`` (per node).

    ``positions``, ``reverse_flat``, ``gather`` and ``tables`` are
    static per-bind precomputes owned by the balancer (shared across
    rounds):

    * ``positions[u, p]`` — cyclic position of port ``p`` in node
      ``u``'s rotor order (the inverse permutation of the port order);
    * ``reverse_flat`` — flat index ``adjacency * d + reverse_port``
      (raveled): entry ``(u, j)`` is the sender-side ``(n, d)`` slot of
      the token arriving at ``u`` over port ``j``;
    * ``gather`` — the :func:`rotor_gather` CSR operator over
      ``reverse_flat``: applied to a raveled sender-side ``(n, d)``
      per-port value matrix it yields each node's inflow, so one
      quotient-plus-hit matrix serves both sides of the round.

    Alias invariant: ``gather.indices`` *is* ``reverse_flat`` and
    ``gather.data``/``gather.indptr`` *are* those of the graph's
    :func:`inflow_gather` operator, whose ``indices`` are the graph's
    ``adjacency`` — one int64 memory each.  Repairing ``adjacency`` and
    ``reverse_flat`` in place under churn therefore repairs both
    operators.  Never rebind ``reverse_flat`` without rebuilding
    ``gather``.
    """

    rotors: np.ndarray
    extra: np.ndarray
    positions: np.ndarray
    reverse_flat: np.ndarray
    gather: sp.csr_matrix
    tables: WindowTables | None = None
    _edge_hit_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _loop_hit_cache: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def state(self) -> np.ndarray:
        """Each node's table row, ``rotors·d+ + extra`` (one buffer)."""
        state = self.rotors * self.positions.shape[1]
        state += self.extra
        return state

    def edge_hit_matrix(self, graph: BalancingGraph) -> np.ndarray:
        """``(n, d)`` bool: does port ``j`` of ``u`` get a window token?"""
        if self._edge_hit_cache is None:
            if self.tables is not None:
                self._edge_hit_cache = np.take(
                    self.tables.hits, self.state, axis=0
                )
            else:
                self._edge_hit_cache = self._inside(
                    graph, slice(None, graph.degree)
                )
        return self._edge_hit_cache

    def hit_matrix(self, graph: BalancingGraph) -> np.ndarray:
        """``(n, d+)`` bool: does port ``p`` of ``u`` get a window token?"""
        if self.tables is not None:
            return np.take(self.tables.ports, self.state, axis=0)
        return self._inside(graph, slice(None))

    def edge_hits(
        self, graph: BalancingGraph, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-node count of original-edge ports inside the window.

        With ``out`` the lookup writes straight into it (``"clip"``
        mode: numpy buffers ``out`` under the default ``"raise"``); the
        rows were range-checked when :meth:`edge_hit_matrix` read them,
        as the engine apply does first.
        """
        if self.tables is not None:
            if out is None:
                return np.take(self.tables.edge_hits, self.state)
            return np.take(
                self.tables.edge_hits, self.state, out=out, mode="clip"
            )
        return self.edge_hit_matrix(graph).sum(axis=1, out=out)

    def loop_hits(self, graph: BalancingGraph) -> np.ndarray:
        """Per-node count of self-loop ports inside the window."""
        if self._loop_hit_cache is None:
            if self.tables is not None:
                self._loop_hit_cache = np.take(
                    self.tables.loop_hits, self.state
                )
            else:
                self._loop_hit_cache = self._inside(
                    graph, slice(graph.degree, None)
                ).sum(axis=1)
        return self._loop_hit_cache

    def _inside(self, graph: BalancingGraph, ports: slice) -> np.ndarray:
        """The modulo formula: which of ``ports`` lie in the window."""
        return in_window(
            self.positions[:, ports],
            self.rotors[:, None],
            self.extra[:, None],
            graph.total_degree,
        )


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
        regardless of where the window falls.  A ``loop_base`` that *is*
        ``edge_share`` (the rotor's uniform quotient) is counted once,
        as ``d+·edge_share``; so is ``loop_base`` when ``d° = d``
        (``d·(edge_share + loop_base)``).

        Built in one fresh buffer, one pass per term, ``loads``
        included — three for a rotor round, four for SEND at ``d° = d``
        — with one temporary only for ``d°·loop_base`` at
        ``d° ∉ {1, d}``.  int64 wraparound cancels, so the order of the
        terms does not change a single bit.  The buffer is per call, not
        kept: the engines drop it before the apply allocates, which
        keeps it out of the round's peak.
        """
        share = self.edge_share
        base = self.loop_base
        degree = graph.degree
        num_loops = graph.num_self_loops
        dtype = np.result_type(loads, share)
        if base is share:
            out = np.multiply(share, -graph.total_degree, dtype=dtype)
        elif base is not None and num_loops == degree:
            out = np.add(share, base, dtype=dtype)
            out *= -degree
        else:
            out = np.multiply(share, -degree, dtype=dtype)
            if base is not None:
                out -= base if num_loops == 1 else num_loops * base
        out += loads
        if self.loop_ceil is not None:
            out -= self.loop_ceil
        if self.window is not None:
            out -= self.window.extra
        return out

    # -- execution ------------------------------------------------------

    def apply(
        self, graph: BalancingGraph, loads: np.ndarray
    ) -> np.ndarray:
        """Execute the round: the new load vector (or stacked vectors).

        Self-loop tokens and the remainder both stay at the node, so
        only the edge flows move:
        ``new = loads - edge_outflow + share-gather (+ window hits)``.
        A windowless round gathers the share through the graph's
        :func:`inflow_gather` operator (one matvec per replica stack);
        a rotor round gathers quotient and window hit in one CSR
        matvec over the sender-side per-port values.  Neither reduces
        over the short port axis.

        The tail works in place on the fresh matvec result (int64 sums
        are exact in any order): a windowless round adds ``loads`` and
        subtracts ``d·share`` through one temporary; a rotor round
        writes ``d·share`` and then the window's edge hits into the
        first ``n`` slots of its per-port value buffer, which is dead
        once the matvec has read it, so its tail allocates nothing.
        """
        share = self.edge_share
        degree = graph.degree
        window = self.window
        if window is None:
            inflow = inflow_gather(graph)
            if share.ndim == 1:
                new = inflow @ share
                new += loads
            else:
                new = loads + (inflow @ share.T).T
            new -= degree * share
            return new
        # Sender-side per-port values, built flat: the share repeated
        # over each node's d edge ports plus the window hit.
        values = np.repeat(share, degree)
        values += window.edge_hit_matrix(graph).reshape(-1)
        new = window.gather @ values
        scratch = values[: share.size]
        new -= np.multiply(share, degree, out=scratch)
        new -= window.edge_hits(graph, out=scratch)
        new += loads
        return new

    # -- validation (compact form; no dense allocation) -----------------

    def validate(self, graph: BalancingGraph, loads: np.ndarray) -> None:
        """Structural validation mirroring the dense sends checks.

        Shape/dtype/nonnegativity of every component, ``loop_ceil``
        within the number of self-loops, window lengths and rotor
        positions within ``[0, d+)`` — all on O(n) vectors, one pass
        per field: a bounded range check reads an integer field once
        through its unsigned view (a negative entry wraps above any
        bound), and a ``loop_base`` that *is* ``edge_share`` is checked
        once.  Only a failed check pays a second pass, to tell a
        negative entry from one over its bound, so the messages and
        which of several faults is reported first stay those of one
        check per bound.  Overdraw (negative remainder) is checked
        separately by the engines because it is enforced even when
        per-round validation is off.
        """
        expected = loads.shape
        num_loops = graph.num_self_loops
        share = self.edge_share
        base = self.loop_base
        if base is share and num_loops > 0:
            base = None
        # Upper bounds: loop_base is 0 without self-loops, loop_ceil
        # at most d°; None means nonnegativity only.
        loop_bound = 0 if num_loops == 0 else None
        over = False
        for label, array, upper in (
            ("edge_share", share, None),
            ("loop_base", base, loop_bound),
            ("loop_ceil", self.loop_ceil, num_loops),
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
            if _outside(array, upper):
                if array.min() < 0:
                    raise InvalidSendMatrix(
                        f"structured {label} contains negative entries; "
                        "tokens can only move forward along edges"
                    )
                over = True
        if over and num_loops == 0:
            raise InvalidSendMatrix(
                "structured round assigns self-loop tokens but the graph "
                "has no self-loops"
            )
        if over:
            raise InvalidSendMatrix(
                f"structured loop_ceil exceeds the {num_loops} "
                "self-loops available"
            )
        window = self.window
        if window is not None:
            if share.ndim != 1:
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
            if _outside(window.extra, d_plus - 1):
                raise InvalidSendMatrix(
                    f"rotor window lengths must lie in [0, {d_plus})"
                )
            if _outside(window.rotors, d_plus - 1):
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
            sends += self.window.hit_matrix(graph)
        return sends
