"""Property-based tests for Lemmas 3.5/3.7 and basic potential algebra."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import RotorRouterStar
from repro.core.engine import Simulator
from repro.core.potentials import PotentialMonitor, phi, phi_prime

from tests.helpers import balancing_graphs, load_vectors


COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_and_loads(draw):
    graph = draw(balancing_graphs())
    loads = draw(load_vectors(graph.num_nodes))
    return graph, loads


@given(
    loads=load_vectors(12),
    c=st.integers(0, 30),
    d_plus=st.integers(2, 12),
)
@settings(**COMMON_SETTINGS)
def test_phi_definition_algebra(loads, c, d_plus):
    value = phi(loads, c, d_plus)
    assert value == int(np.maximum(loads - c * d_plus, 0).sum())
    assert value >= 0
    # φ decreasing in c.
    assert phi(loads, c + 1, d_plus) <= value


@given(
    loads=load_vectors(12),
    c=st.integers(0, 30),
    d_plus=st.integers(2, 12),
    s=st.integers(0, 6),
)
@settings(**COMMON_SETTINGS)
def test_phi_prime_definition_algebra(loads, c, d_plus, s):
    value = phi_prime(loads, c, d_plus, s)
    assert value >= 0
    # φ' increasing in c and in s.
    assert phi_prime(loads, c + 1, d_plus, s) >= value
    assert phi_prime(loads, c, d_plus, s + 1) >= value


@given(case=graph_and_loads(), rounds=st.integers(2, 10))
@settings(**COMMON_SETTINGS)
def test_potentials_monotone_for_good_balancers(case, rounds):
    """Lemmas 3.5 / 3.7 hold on every random instance."""
    graph, loads = case
    average = loads.mean()
    c_center = max(int(average // graph.total_degree), 0)
    monitor = PotentialMonitor(
        [c_center, c_center + 1, c_center + 3], s=1
    )
    simulator = Simulator(
        graph, RotorRouterStar(), loads, probes=(monitor,)
    )
    simulator.run(rounds)
    assert monitor.all_monotone()
