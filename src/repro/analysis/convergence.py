"""Standardized measurement runs used by every experiment.

The paper's statements have the form "after ``O(T)`` rounds the
discrepancy is at most ...", where ``T`` is the continuous balancing
time.  :func:`measure_after_t` grants each algorithm exactly
``horizon_multiplier · T`` rounds (with ``T`` computed from the
spectral gap) and reports the discrepancy plateau at the end;
:func:`measure_time_to_target` reports how long an algorithm needs to
reach a given discrepancy (Theorem 3.3's second column).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.balancer import Balancer
from repro.core.engine import Simulator
from repro.core.metrics import final_plateau, time_to_discrepancy
from repro.core.monitors import LoadBoundsMonitor
from repro.graphs.balancing import BalancingGraph
from repro.graphs.spectral import (
    continuous_balancing_time,
    eigenvalue_gap,
)


@dataclass
class ConvergenceReport:
    """Outcome of one standardized measurement run."""

    algorithm: str
    graph: str
    n: int
    degree: int
    d_plus: int
    gap: float
    horizon: int
    rounds_executed: int
    initial_discrepancy: int
    final_discrepancy: int
    plateau_discrepancy: int
    min_load_ever: int
    time_to_target: int | None = None
    target: int | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        data = {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "n": self.n,
            "d": self.degree,
            "d_plus": self.d_plus,
            "gap": self.gap,
            "horizon": self.horizon,
            "rounds": self.rounds_executed,
            "K": self.initial_discrepancy,
            "final_discrepancy": self.final_discrepancy,
            "plateau": self.plateau_discrepancy,
            "min_load": self.min_load_ever,
        }
        if self.target is not None:
            data["target"] = self.target
            data["time_to_target"] = self.time_to_target
        data.update(self.extra)
        return data


def horizon_for(
    graph: BalancingGraph,
    initial_loads: np.ndarray,
    multiplier: float = 1.0,
    gap: float | None = None,
) -> int:
    """``multiplier · T`` rounds for this graph and initial vector."""
    if gap is None:
        gap = eigenvalue_gap(graph)
    k = int(initial_loads.max() - initial_loads.min())
    base = continuous_balancing_time(graph.num_nodes, k, gap)
    return max(1, int(round(multiplier * base)))


def measure_after_t(
    graph: BalancingGraph,
    balancer: Balancer,
    initial_loads: np.ndarray,
    *,
    horizon_multiplier: float = 1.0,
    gap: float | None = None,
    max_rounds: int | None = None,
    probes: tuple = (),
    plateau_window: int = 16,
) -> ConvergenceReport:
    """Run for ``O(T)`` rounds and report the final discrepancy plateau.

    The built-in load-bounds observer rides as a loads-only probe, so
    supported balancers stay on the structured engine; extra
    ``probes`` ride along at their declared capability.
    """
    if gap is None:
        gap = eigenvalue_gap(graph)
    horizon = horizon_for(graph, initial_loads, horizon_multiplier, gap)
    if max_rounds is not None:
        horizon = min(horizon, max_rounds)
    bounds = LoadBoundsMonitor()
    simulator = Simulator(
        graph,
        balancer,
        initial_loads,
        probes=(bounds, *probes),
    )
    result = simulator.run(horizon)
    return ConvergenceReport(
        algorithm=balancer.name,
        graph=graph.name,
        n=graph.num_nodes,
        degree=graph.degree,
        d_plus=graph.total_degree,
        gap=gap,
        horizon=horizon,
        rounds_executed=result.rounds_executed,
        initial_discrepancy=result.initial_discrepancy,
        final_discrepancy=result.final_discrepancy,
        plateau_discrepancy=final_plateau(
            result.discrepancy_history, plateau_window
        ),
        min_load_ever=bounds.min_ever,
    )


def measure_time_to_target(
    graph: BalancingGraph,
    balancer: Balancer,
    initial_loads: np.ndarray,
    target: int,
    *,
    max_multiplier: float = 50.0,
    gap: float | None = None,
    max_rounds: int | None = None,
) -> ConvergenceReport:
    """Run until the discrepancy reaches ``target`` (or give up).

    The budget is ``max_multiplier · T`` rounds; Theorem 3.3 predicts
    good s-balancers hit ``target = O(d)`` well inside it.
    """
    if gap is None:
        gap = eigenvalue_gap(graph)
    budget = horizon_for(graph, initial_loads, max_multiplier, gap)
    if max_rounds is not None:
        budget = min(budget, max_rounds)
    bounds = LoadBoundsMonitor()
    simulator = Simulator(
        graph,
        balancer,
        initial_loads,
        probes=(bounds,),
    )
    result = simulator.run_to_discrepancy(target, budget)
    reached = time_to_discrepancy(result.discrepancy_history, target)
    return ConvergenceReport(
        algorithm=balancer.name,
        graph=graph.name,
        n=graph.num_nodes,
        degree=graph.degree,
        d_plus=graph.total_degree,
        gap=gap,
        horizon=budget,
        rounds_executed=result.rounds_executed,
        initial_discrepancy=result.initial_discrepancy,
        final_discrepancy=result.final_discrepancy,
        plateau_discrepancy=result.final_discrepancy,
        min_load_ever=bounds.min_ever,
        time_to_target=reached,
        target=target,
    )


def discrepancy_trajectory(
    graph: BalancingGraph,
    balancer: Balancer,
    initial_loads: np.ndarray,
    rounds: int,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """(rounds, discrepancy) series for figure-style plots."""
    simulator = Simulator(graph, balancer, initial_loads)
    simulator.run(rounds)
    history = np.array(simulator.discrepancy_history)
    index = np.arange(history.shape[0])
    return index[::stride], history[::stride]
