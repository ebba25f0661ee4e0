"""Property-based invariants of the engine + deterministic algorithms.

For arbitrary small graphs and arbitrary nonnegative load vectors:

* token conservation holds at every round;
* loads never go negative for negative-load-safe algorithms;
* deterministic algorithms are reproducible run-to-run.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    RotorRouter,
    RotorRouterStar,
    SendFloor,
    SendRounded,
)
from repro.core.engine import Simulator
from repro.core.monitors import LoadBoundsMonitor

from tests.helpers import balancing_graphs, load_vectors


COMMON_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_loads(draw):
    graph = draw(balancing_graphs())
    loads = draw(load_vectors(graph.num_nodes))
    return graph, loads


@given(case=graph_and_loads(), rounds=st.integers(1, 12))
@settings(**COMMON_SETTINGS)
def test_conservation_send_floor(case, rounds):
    graph, loads = case
    total = int(loads.sum())
    simulator = Simulator(graph, SendFloor(), loads)
    result = simulator.run(rounds)
    assert result.final_loads.sum() == total


@given(case=graph_and_loads(), rounds=st.integers(1, 12))
@settings(**COMMON_SETTINGS)
def test_conservation_rotor_router(case, rounds):
    graph, loads = case
    total = int(loads.sum())
    simulator = Simulator(graph, RotorRouter(), loads)
    result = simulator.run(rounds)
    assert result.final_loads.sum() == total


@given(case=graph_and_loads())
@settings(**COMMON_SETTINGS)
def test_never_negative_for_safe_algorithms(case):
    graph, loads = case
    for balancer in (
        SendFloor(),
        SendRounded(),
        RotorRouter(),
        RotorRouterStar(),
    ):
        monitor = LoadBoundsMonitor()
        simulator = Simulator(
            graph, balancer, loads, probes=(monitor,)
        )
        simulator.run(8)
        assert monitor.min_ever >= 0


@given(case=graph_and_loads())
@settings(**COMMON_SETTINGS)
def test_rotor_router_reproducible(case):
    graph, loads = case
    a = Simulator(graph, RotorRouter(), loads)
    b = Simulator(graph, RotorRouter(), loads)
    for _ in range(8):
        np.testing.assert_array_equal(a.step(), b.step())


@given(case=graph_and_loads())
@settings(**COMMON_SETTINGS)
def test_max_load_never_explodes(case):
    """φ(c) monotonicity caps the max load for round-fair schemes.

    For any round-fair balancer, tokens above height c·d+ never
    increase (token-coloring argument of Lemma 3.5), so the max load
    stays below ``⌈max/d+⌉·d+ <= max + d+ - 1`` forever.
    """
    graph, loads = case
    d_plus = graph.total_degree
    ceiling = -(-int(loads.max()) // d_plus) * d_plus
    simulator = Simulator(graph, RotorRouter(), loads)
    for _ in range(8):
        after = simulator.step()
        assert after.max() <= ceiling
