"""SEND(⌊x/d+⌋): the simplest stateless cumulatively 0-fair balancer.

A node with load ``x`` sends ``⌊x/d+⌋`` tokens over every original edge;
the remaining ``x - d·⌊x/d+⌋`` tokens are distributed over the
self-loops so that every self-loop receives at least ``⌊x/d+⌋``
(Section 1.1).  Observation 2.2: cumulatively 0-fair.  Table 1 flags:
deterministic, stateless, never negative, no communication.
"""

from __future__ import annotations

import numpy as np

from repro.core.balancer import AlgorithmProperties, Balancer
from repro.core.structured import StructuredRound, divider
from repro.graphs.balancing import BalancingGraph


class SendFloor(Balancer):
    """SEND(⌊x/d+⌋) (see module docstring).

    With ``d° = 0`` the excess ``x mod d`` simply stays at the node as
    its remainder, which is the natural degenerate case.
    """

    name = "send_floor"
    properties = AlgorithmProperties(
        deterministic=True,
        stateless=True,
        negative_load_safe=True,
        communication_free=True,
    )
    supports_batched_sends = True
    supports_structured_sends = True
    _batch_scratch: np.ndarray | None = None

    def _on_bind(self, graph: BalancingGraph) -> None:
        # Bind-time dividers: shift and mask wherever d+ (or d°) is a
        # power of two, so the structured rule never branches per round.
        self._by_d_plus = divider(graph.total_degree)
        self._by_loops = (
            divider(graph.num_self_loops) if graph.num_self_loops else None
        )

    def reset(self) -> None:
        self._batch_scratch = None

    def _fill_sends(self, loads: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Shape-polymorphic rule: works for one (n,) vector and for a
        # (replicas, n) stack alike, filling out with (..., n, d+).
        # Equivalent to a uniform quotient fill followed by
        # split_extras_over_self_loops, with one less full-width pass.
        graph = self.graph
        degree = graph.degree
        d_plus = graph.total_degree
        num_loops = graph.num_self_loops
        quotient = loads // d_plus
        out[..., :degree] = quotient[..., None]
        if num_loops > 0:
            extras = loads - d_plus * quotient
            per_loop, leftover = np.divmod(extras, num_loops)
            out[..., degree:] = (quotient + per_loop)[..., None]
            out[..., degree:] += np.arange(num_loops) < leftover[..., None]
        return out

    def sends(self, loads: np.ndarray, t: int) -> np.ndarray:
        shape = loads.shape + (self.graph.total_degree,)
        return self._fill_sends(loads, np.empty(shape, dtype=np.int64))

    def sends_batch(self, loads: np.ndarray, t: int) -> np.ndarray:
        # The batch engine consumes the sends within the round and no
        # monitors can hold a reference, so one scratch buffer is reused
        # across rounds (fresh multi-MB allocations dominate otherwise).
        shape = loads.shape + (self.graph.total_degree,)
        if self._batch_scratch is None or self._batch_scratch.shape != shape:
            self._batch_scratch = np.empty(shape, dtype=np.int64)
        return self._fill_sends(loads, self._batch_scratch)

    def sends_structured(self, loads: np.ndarray, t: int) -> StructuredRound:
        # Compact form of _fill_sends: the uniform quotient on every
        # port, the excess x mod d+ split over the self-loops.  Accepts
        # (n,) vectors and (replicas, n) stacks alike.
        if self._by_loops is None:
            return StructuredRound(edge_share=self._by_d_plus.floor(loads))
        quotient, extras = self._by_d_plus.divmod(loads)
        per_loop, leftover = self._by_loops.divmod(extras)
        per_loop += quotient
        return StructuredRound(
            edge_share=quotient,
            loop_base=per_loop,
            loop_ceil=leftover,
        )
