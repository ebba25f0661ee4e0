"""Flow accounting: the paper's ``f_t``, ``F_t``, ``F^in``, ``F^out``.

For a directed edge ``e = (u, v)`` the paper writes ``f_t(e)`` for the
tokens sent over ``e`` in round ``t`` and ``F_t(e) = Σ_{τ<=t} f_τ(e)``
for the cumulative flow.  :class:`FlowTracker` is a probe maintaining
these quantities per *port* (so per directed original edge, plus the
aggregated self-loop flow ``F_t(u, u)``), along with the remainder
vector ``r_t`` of Proposition A.2.
"""

from __future__ import annotations

import numpy as np

from repro.core.probes import SENDS, Probe, register_probe


@register_probe("flows")
class FlowTracker(Probe):
    """Accumulates per-port flows over an entire run.

    A sends-consuming probe (registered as ``flows``) with a structured
    fast path: a compact round updates the cumulative matrix directly
    from the uniform edge share, the self-loop floor/ceil assignment,
    and the rotor window — the balancer and engine stay matrix-free.
    On the structured path ``last_sends`` is only materialized when
    ``record_rounds`` asks for per-round matrices.

    Attributes:
        cumulative: ``(n, d+)`` int64; ``cumulative[u, p]`` is
            ``F_t(u, port p target)`` after the last observed round.
        last_sends: the most recent round's ``(n, d+)`` sends (``None``
            on the structured path unless ``record_rounds``).
        last_remainder: the most recent remainder vector ``r_t``.
        max_abs_remainder: ``max_t max_u |r_t(u)|`` (the paper's ``r``).
    """

    needs = SENDS
    accepts_structured = True

    def __init__(self, record_rounds: bool = False) -> None:
        self.record_rounds = record_rounds
        self.cumulative: np.ndarray | None = None
        self.last_sends: np.ndarray | None = None
        self.last_remainder: np.ndarray | None = None
        self.max_abs_remainder: int = 0
        self.round_history: list[np.ndarray] = []
        self._graph = None

    def start(self, graph, balancer, loads) -> None:
        self._graph = graph
        self.cumulative = np.zeros(
            (graph.num_nodes, graph.total_degree), dtype=np.int64
        )
        self.last_sends = None
        self.last_remainder = None
        self.max_abs_remainder = 0
        self.round_history = []

    def observe(self, t, loads_before, sends, loads_after) -> None:
        self.cumulative += sends
        self.last_sends = sends
        remainder = loads_before - sends.sum(axis=1)
        self.last_remainder = remainder
        self.max_abs_remainder = max(
            self.max_abs_remainder, int(np.abs(remainder).max())
        )
        if self.record_rounds:
            self.round_history.append(sends.copy())

    def observe_structured(self, t, loads_before, compact, loads_after):
        graph = self._graph
        degree = graph.degree
        num_loops = graph.num_self_loops
        self.cumulative[:, :degree] += compact.edge_share[:, None]
        if compact.loop_base is not None:
            self.cumulative[:, degree:] += compact.loop_base[:, None]
        if compact.loop_ceil is not None and num_loops > 0:
            self.cumulative[:, degree:] += (
                np.arange(num_loops) < compact.loop_ceil[:, None]
            )
        if compact.window is not None:
            self.cumulative += compact.window.hit_matrix(graph)
        remainder = compact.remainder(graph, loads_before)
        self.last_remainder = remainder
        self.max_abs_remainder = max(
            self.max_abs_remainder, int(np.abs(remainder).max())
        )
        if self.record_rounds:
            sends = compact.to_dense(graph)
            self.last_sends = sends
            self.round_history.append(sends)
        else:
            self.last_sends = None

    # ------------------------------------------------------------------
    # Paper quantities
    # ------------------------------------------------------------------

    def cumulative_original(self) -> np.ndarray:
        """``(n, d)`` cumulative flow over original edges only."""
        return self.cumulative[:, : self._graph.degree]

    def cumulative_self(self) -> np.ndarray:
        """``F_t(u, u)`` — total cumulative flow over u's self-loops."""
        return self.cumulative[:, self._graph.degree:].sum(axis=1)

    def cumulative_out(self) -> np.ndarray:
        """``F^out_t(u)`` — all flow that left ``u`` (incl. self-loops)."""
        return self.cumulative.sum(axis=1)

    def cumulative_in(self) -> np.ndarray:
        """``F^in_t(u)`` — all flow that arrived at ``u`` (incl. loops)."""
        graph = self._graph
        incoming = self.cumulative[
            graph.adjacency, graph.reverse_port
        ].sum(axis=1)
        return incoming + self.cumulative_self()

    def original_spread(self) -> np.ndarray:
        """Per-node cumulative-fairness spread over original edges.

        ``spread[u] = max_{e1,e2 in E_u} |F_t(e1) - F_t(e2)|`` — the
        quantity Definition 2.1 bounds by δ.
        """
        original = self.cumulative_original()
        return original.max(axis=1) - original.min(axis=1)

    def conservation_identity_error(self, initial_loads) -> np.ndarray:
        """Residual of the paper's flow identity (1).

        Identity (1): ``x₁(u) + F^in_{t-1}(u) = r_t(u) + F^out_t(u)``.
        Rearranged to the equivalent end-of-round form used here:
        ``x_{t+1}(u) = x₁(u) + F^in_t(u) - F^out_t(u)``, so the residual
        of ``x₁ + F^in - F^out`` against the current load vector must be
        zero.  Callers provide the initial vector; the current vector is
        reconstructed from flows.
        """
        reconstructed = (
            initial_loads + self.cumulative_in() - self.cumulative_out()
        )
        return reconstructed

    def summary(self) -> dict:
        return {"max_abs_remainder": self.max_abs_remainder}

    def flow_per_round(self) -> np.ndarray:
        """Stacked ``(rounds, n, d+)`` history (requires record_rounds)."""
        if not self.record_rounds:
            raise RuntimeError(
                "FlowTracker(record_rounds=True) required for history"
            )
        return np.stack(self.round_history, axis=0)


def directed_edge_flows(
    tracker: FlowTracker,
    graph,
) -> dict[tuple[int, int], int]:
    """Cumulative flow per directed original edge as a dictionary."""
    flows: dict[tuple[int, int], int] = {}
    original = tracker.cumulative_original()
    for u in range(graph.num_nodes):
        for port, v in enumerate(graph.neighbors(u)):
            flows[(u, v)] = int(original[u, port])
    return flows


def antisymmetric_net_flow(
    tracker: FlowTracker,
    graph,
) -> dict[tuple[int, int], int]:
    """Net cumulative flow ``F(u,v) - F(v,u)`` per undirected edge."""
    directed = directed_edge_flows(tracker, graph)
    net: dict[tuple[int, int], int] = {}
    for (u, v), flow in directed.items():
        if u < v:
            net[(u, v)] = flow - directed[(v, u)]
    return net
