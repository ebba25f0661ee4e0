"""SEND([x/d+]): round the fair share to the nearest integer.

A node with load ``x`` sends ``[x/d+]`` tokens over every original edge,
where ``[·]`` rounds to the nearest integer (ties upward); the remaining
tokens go over self-loops, each receiving ``⌊x/d+⌋`` or ``⌈x/d+⌉``.

Classification (Observations 2.2 / 3.2):

* cumulatively 0-fair for ``d+ >= 2d`` (all original edges always carry
  identical cumulative flow);
* a good s-balancer for ``d+ > 2d``.  The paper states
  ``s = d+ - 2d``; counting the tokens actually available for self-loops
  in a round with excess ``e >= ⌈d+/2⌉`` shows the guaranteed number of
  ceiling self-loops is ``e - d >= ⌈(d° - d)/2⌉``, so we expose the
  provable value :func:`effective_self_preference` — still ``Ω(d)`` for
  ``d+ >= 3d``, which is what Theorem 3.3's fast regime needs.  (See
  DESIGN.md, "Fidelity notes".)
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.balancer import AlgorithmProperties, Balancer
from repro.core.errors import BindingError
from repro.core.structured import StructuredRound, divider
from repro.graphs.balancing import BalancingGraph


def nearest_share(loads: np.ndarray, d_plus: int) -> np.ndarray:
    """``[x/d+]`` with ties rounded up, computed in exact integers."""
    return (2 * loads + d_plus) // (2 * d_plus)


def effective_self_preference(degree: int, d_plus: int) -> int:
    """Largest ``s`` for which SEND([x/d+]) is provably s-self-preferring.

    ``min(d+ - 2d, ⌈(d° - d)/2⌉)``; zero when ``d+ <= 2d``.
    """
    if d_plus <= 2 * degree:
        return 0
    d_self = d_plus - degree
    return min(d_plus - 2 * degree, math.ceil((d_self - degree) / 2))


class SendRounded(Balancer):
    """SEND([x/d+]) (see module docstring). Requires ``d+ >= 2d``."""

    name = "send_rounded"
    properties = AlgorithmProperties(
        deterministic=True,
        stateless=True,
        negative_load_safe=True,
        communication_free=True,
    )

    def _validate_graph(self, graph: BalancingGraph) -> None:
        if graph.total_degree < 2 * graph.degree:
            raise BindingError(
                "SEND([x/d+]) requires d+ >= 2d so the rounded share can "
                f"always be paid: d={graph.degree}, d+={graph.total_degree}"
            )

    supports_batched_sends = True
    supports_structured_sends = True
    _batch_scratch: np.ndarray | None = None

    def _on_bind(self, graph: BalancingGraph) -> None:
        # Bind-time divider (shift and mask for a power-of-two d+) and
        # the excess x mod d+ from which the share rounds up.
        d_plus = graph.total_degree
        self._by_d_plus = divider(d_plus)
        self._round_up_from = d_plus - d_plus // 2

    def reset(self) -> None:
        self._batch_scratch = None

    def _fill_sends(self, loads: np.ndarray, out: np.ndarray) -> np.ndarray:
        # Shape-polymorphic rule: works for one (n,) vector and for a
        # (replicas, n) stack alike, filling out with (..., n, d+).
        graph = self.graph
        degree = graph.degree
        d_plus = graph.total_degree
        share = nearest_share(loads, d_plus)
        out[..., :degree] = share[..., None]
        quotient = loads // d_plus
        # Self-loops each receive the floor share, plus one extra token on
        # the first `num_ceil` loops, consuming exactly the leftover.
        remaining = loads - degree * share
        num_loops = d_plus - degree
        out[..., degree:] = quotient[..., None]
        num_ceil = remaining - num_loops * quotient
        loop_index = np.arange(num_loops)
        out[..., degree:] += loop_index < num_ceil[..., None]
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
        # Compact form of _fill_sends: the rounded share on every
        # original edge, floor share on the loops with the leftover as
        # ceiling tokens on the first loops.  d+ >= 2d (validated at
        # bind) guarantees 0 <= loop_ceil <= d°.  Accepts (n,) vectors
        # and (replicas, n) stacks alike.
        #
        # With x = q·d+ + r, nearest_share(x) is q plus one exactly when
        # r >= d+ - ⌊d+/2⌋, and the loops' ceiling tokens are then
        # x - d·share - d°·q = r - d·[rounded up].
        quotient, ceiling = self._by_d_plus.divmod(loads)
        up = ceiling >= self._round_up_from
        share = quotient + up
        ceiling -= self.graph.degree * up
        return StructuredRound(
            edge_share=share,
            loop_base=quotient,
            loop_ceil=ceiling,
        )

    @property
    def self_preference(self) -> int:
        """The bound-relevant ``s`` on the bound graph."""
        return effective_self_preference(
            self.graph.degree, self.graph.total_degree
        )
