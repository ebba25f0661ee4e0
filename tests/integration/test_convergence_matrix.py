"""Integration: every algorithm balances on every graph family.

A coarse acceptance grid — conservation, no unexpected negative loads,
and a sane final discrepancy for all (algorithm × graph) pairs.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.algorithms.registry import all_names, make
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.core.monitors import LoadBoundsMonitor
from repro.graphs import families


GRAPHS = {
    "expander": lambda: families.random_regular(20, 4, seed=23),
    "cycle": lambda: families.cycle(12),
    "torus": lambda: families.torus(4, 2),
    "hypercube": lambda: families.hypercube(4),
    "complete": lambda: families.complete(12),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm", all_names())
def test_balances_everywhere(graph_name, algorithm):
    graph = GRAPHS[graph_name]()
    n = graph.num_nodes
    tokens = n * 40
    monitor = LoadBoundsMonitor()
    simulator = Simulator(
        graph,
        make(algorithm, seed=3),
        point_mass(n, tokens),
        probes=(monitor,),
    )
    rounds = 600 if graph_name == "cycle" else 300
    result = simulator.run(rounds)

    assert result.final_loads.sum() == tokens
    # Generous acceptance threshold: every scheme must get within a
    # small multiple of the [17] bound's d log n scale.
    assert result.final_discrepancy <= 6 * graph.degree + 10
    balancer = make(algorithm, seed=3)
    if balancer.properties.negative_load_safe:
        assert monitor.min_ever >= 0


@pytest.mark.parametrize("algorithm", all_names())
def test_fixed_point_when_perfectly_balanced(algorithm):
    """A perfectly divisible balanced vector stays balanced."""
    graph = families.random_regular(16, 4, seed=29)
    per_node = 4 * graph.total_degree
    loads = point_mass(16, 0) + per_node
    simulator = Simulator(graph, make(algorithm, seed=1), loads)
    result = simulator.run(40)
    assert result.final_discrepancy == 0
