"""The ROTOR-ROUTER (Propp machine) as a load balancer.

Each node's ``d+`` ports are arranged in a fixed cyclic order and the
node keeps a rotor pointing at one of them.  To distribute load ``x``
the node sends one token along the rotor's port, advances the rotor,
and repeats — equivalently, every port receives ``⌊x/d+⌋`` tokens and
the ``x mod d+`` extra tokens go to the next ``x mod d+`` ports in
cyclic order starting at the rotor, which then advances by ``x mod d+``.

Observation 2.2: cumulatively 1-fair (the round-robin guarantees that
cumulative counts of any two ports differ by at most 1).  Table 1
flags: deterministic, **stateful**, never negative, no communication.

Theorem 4.3 is about this algorithm with ``d° = 0``; the class supports
arbitrary self-loop counts including zero, plus custom per-node port
orders and initial rotor positions (needed for the lower-bound
construction in :mod:`repro.lower_bounds.rotor_alternating`).
"""

from __future__ import annotations

import numpy as np

from repro.core.balancer import AlgorithmProperties, Balancer
from repro.core.errors import BindingError
from repro.core.structured import (
    RotorWindow,
    StructuredRound,
    divider,
    rotor_gather,
    window_tables,
)
from repro.graphs.balancing import BalancingGraph


def interleaved_port_order(degree: int, num_self_loops: int) -> np.ndarray:
    """A port order alternating original edges and self-loops.

    With ``d° >= d`` this yields ``original, loop, original, loop, ...``
    followed by leftover loops; it spreads self-loop laziness evenly
    through the rotor cycle (the arrangement analyzed in [3]).

    Strided assembly instead of the obvious alternating-pop loop: the
    latter is O(d+²) per call (``list.pop(0)`` shifts the tail), which
    showed up at bind time on high-degree fat-tree core switches.
    """
    paired = min(degree, num_self_loops)
    order = np.empty(degree + num_self_loops, dtype=np.int64)
    order[0: 2 * paired: 2] = np.arange(paired)
    order[1: 2 * paired: 2] = degree + np.arange(paired)
    if degree > paired:
        order[2 * paired:] = np.arange(paired, degree)
    else:
        order[2 * paired:] = degree + np.arange(paired, num_self_loops)
    return order


class RotorRouter(Balancer):
    """Rotor-router load balancing on ``G+``.

    Args:
        port_orders: optional ``(n, d+)`` array; row ``u`` is the cyclic
            port order of node ``u`` (a permutation of ``0..d+-1``).
            Default: the same interleaved order at every node.
        initial_rotors: optional length-``n`` initial rotor positions
            (indices *into the cyclic order*, not port numbers).
    """

    name = "rotor_router"
    properties = AlgorithmProperties(
        deterministic=True,
        stateless=False,
        negative_load_safe=True,
        communication_free=True,
    )
    supports_structured_sends = True

    def __init__(
        self,
        port_orders: np.ndarray | None = None,
        initial_rotors: np.ndarray | None = None,
    ) -> None:
        super().__init__()
        self._custom_orders = port_orders
        self._custom_rotors = initial_rotors
        self._orders: np.ndarray | None = None
        self._rotors: np.ndarray | None = None
        self._reverse_flat: np.ndarray | None = None
        self._gather = None
        self._tables = None
        self.refresh_rows = 0
        self.refresh_full = 0

    def _validate_graph(self, graph: BalancingGraph) -> None:
        d_plus = graph.total_degree
        if self._custom_orders is not None:
            orders = np.asarray(self._custom_orders, dtype=np.int64)
            if orders.shape != (graph.num_nodes, d_plus):
                raise BindingError(
                    f"port_orders shape {orders.shape} does not match "
                    f"(n={graph.num_nodes}, d+={d_plus})"
                )
            expected = np.arange(d_plus)
            if not np.all(np.sort(orders, axis=1) == expected[None, :]):
                raise BindingError(
                    "each port_orders row must be a permutation of ports"
                )
        if self._custom_rotors is not None:
            rotors = np.asarray(self._custom_rotors, dtype=np.int64)
            if rotors.shape != (graph.num_nodes,):
                raise BindingError(
                    f"initial_rotors must have length {graph.num_nodes}"
                )
            if rotors.min() < 0 or rotors.max() >= d_plus:
                raise BindingError(
                    f"rotor positions must lie in [0, {d_plus})"
                )

    def _on_bind(self, graph: BalancingGraph) -> None:
        d_plus = graph.total_degree
        # Structured-execution precomputes: positions is the inverse
        # permutation of the port order (cyclic position of each port);
        # reverse_flat and its CSR gather carry the sender-side (n, d)
        # per-port values to the receiver side; the window tables turn
        # per-node window queries into lookups (see RotorWindow).  All
        # are static per bind and shared by every round's RotorWindow.
        self._tables = None
        if self._custom_orders is not None:
            self._orders = np.asarray(self._custom_orders, dtype=np.int64)
            self._positions = np.argsort(self._orders, axis=1)
        else:
            # Every node shares one interleaved row: read-only broadcast
            # views instead of two (n, d+) copies.
            row = interleaved_port_order(
                graph.degree, graph.num_self_loops
            )
            shape = (graph.num_nodes, d_plus)
            position_row = np.argsort(row)
            self._orders = np.broadcast_to(row, shape)
            self._positions = np.broadcast_to(position_row, shape)
            # d+² table rows never outgrow the (n, d) hit matrix.
            if d_plus * d_plus <= graph.num_nodes:
                self._tables = window_tables(position_row, graph.degree)
        self._position_window = np.arange(d_plus)[None, :]
        self._reverse_flat = (
            graph.adjacency * graph.degree + graph.reverse_port
        ).ravel()
        self._gather = rotor_gather(graph, self._reverse_flat)
        self._divider = divider(d_plus)

    def refresh_topology(self, graph: BalancingGraph, dirty=None) -> None:
        """Repair ``reverse_flat`` for the mutated rows only.

        ``_orders``/``_positions``/``_position_window``/``_tables``
        depend only on ``(n, d, d+)`` — unchanged under in-place churn —
        and the rotors deliberately keep their positions, so the
        receiver-side gather index is the only structure that goes
        stale.  It is also the gather operator's ``indices``, so the
        in-place repair keeps the operator current (its ``data`` and
        ``indptr`` are the graph's inflow operator's, which churn
        leaves as they are).  Repair cost is O(|dirty| * d), independent
        of ``n``; the counters back the incrementality regression test.
        """
        self._graph = graph
        if dirty is None or self._reverse_flat is None:
            self._on_bind(graph)
            self.refresh_full += 1
            return
        rows = np.asarray(dirty, dtype=np.int64)
        if rows.size == 0:
            return
        d = graph.degree
        view = self._reverse_flat.reshape(-1, d)
        view[rows] = (
            graph.adjacency[rows] * d + graph.reverse_port[rows]
        )
        self.refresh_rows += int(rows.size)

    def reset(self) -> None:
        graph = self.graph
        # Per-run contract: the incrementality counters describe the
        # run that is about to start, not the lifetime of the instance
        # — without this they bleed across replicas/reruns of one
        # balancer (bind() resets before every run).
        self.refresh_rows = 0
        self.refresh_full = 0
        if self._custom_rotors is not None:
            self._rotors = np.asarray(
                self._custom_rotors, dtype=np.int64
            ).copy()
        else:
            self._rotors = np.zeros(graph.num_nodes, dtype=np.int64)

    @property
    def rotors(self) -> np.ndarray:
        """Current rotor positions (cyclic-order indices)."""
        return self._rotors

    def sends(self, loads: np.ndarray, t: int) -> np.ndarray:
        graph = self.graph
        d_plus = graph.total_degree
        quotient, extra = np.divmod(loads, d_plus)
        # Value at cyclic position k: quotient, plus 1 if k falls in the
        # window [rotor, rotor + extra) mod d+.
        offsets = (self._position_window - self._rotors[:, None]) % d_plus
        values = quotient[:, None] + (offsets < extra[:, None])
        sends = np.empty((graph.num_nodes, d_plus), dtype=np.int64)
        np.put_along_axis(sends, self._orders, values, axis=1)
        self._rotors = (self._rotors + extra) % d_plus
        return sends

    def sends_structured(self, loads: np.ndarray, t: int) -> StructuredRound:
        # The compact form of the rule above: the uniform quotient on
        # every port plus a +1 window of length x mod d+ starting at the
        # rotor.  Advances the rotors exactly as sends() does; the
        # handed-out window keeps the pre-advance positions.
        if loads.ndim != 1:
            raise ValueError(
                "rotor-router is stateful; structured sends take one "
                "(n,) load vector per instance"
            )
        quotient, extra = self._divider.divmod(loads)
        window = RotorWindow(
            rotors=self._rotors,
            extra=extra,
            positions=self._positions,
            reverse_flat=self._reverse_flat,
            gather=self._gather,
            tables=self._tables,
        )
        # rotors + extra < 2·d+: less than one turn to wrap.
        self._rotors = self._divider.wrap(self._rotors + extra)
        return StructuredRound(
            edge_share=quotient,
            loop_base=quotient if self.graph.num_self_loops else None,
            window=window,
        )
