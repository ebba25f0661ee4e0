"""Differential parity on the datacenter fabrics with traffic dynamics.

The padded fat-tree / leaf-spine graphs route their padding ports back
to the owning node, so every engine (dense matrix, structured
matrix-free, and the batched scenario path) must agree with the naive
per-token :class:`ReferenceDynamicSimulator` under the repro.traffic
injectors — load vector for load vector, round for round.
"""

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.dynamics import DynamicsSpec
from repro.graphs.datacenter import fat_tree, leaf_spine
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)
from tests.differential.reference_dynamics import ReferenceDynamicSimulator

FABRICS = {
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(4, 2, 3),
}

TRAFFIC_CASES = [
    DynamicsSpec("poisson_arrivals", {"rate": 0.6, "seed": 5}),
    DynamicsSpec(
        "pareto_flows",
        {"rate": 1.2, "alpha": 1.5, "max_size": 40, "seed": 5},
    ),
    DynamicsSpec(
        "diurnal", {"rate": 1.5, "period": 10, "amplitude": 0.7, "seed": 5}
    ),
    DynamicsSpec(
        "hotspot_shift",
        {"rate": 9, "hotspots": 2, "shift_every": 6, "seed": 5},
    ),
    DynamicsSpec(
        "correlated_burst",
        {"tokens": 8, "nodes": 3, "probability": 0.3, "seed": 5},
    ),
]


@pytest.mark.parametrize("fabric", sorted(FABRICS))
@pytest.mark.parametrize(
    "spec", TRAFFIC_CASES, ids=lambda s: s.name
)
def test_dense_matches_reference(fabric, spec):
    graph = FABRICS[fabric]()
    loads = np.random.default_rng(13).integers(
        0, 40, graph.num_nodes
    ).astype(np.int64)
    fast = Simulator(
        graph,
        make("send_floor"),
        loads,
        dynamics=spec.build(),
        engine="dense",
    )
    slow = ReferenceDynamicSimulator(
        graph, make("send_floor"), loads, injector=spec.build()
    )
    for _ in range(25):
        fast.step()
        slow.step()
        assert fast.loads.tolist() == slow.loads


@pytest.mark.parametrize(
    "algorithm", ["send_floor", "send_rounded", "rotor_router"]
)
def test_structured_matches_reference_on_leaf_spine(algorithm):
    graph = leaf_spine(4, 2, 3)
    loads = np.random.default_rng(29).integers(
        0, 60, graph.num_nodes
    ).astype(np.int64)
    spec = DynamicsSpec("poisson_arrivals", {"rate": 0.8, "seed": 2})
    fast = Simulator(
        graph,
        make(algorithm),
        loads,
        dynamics=spec.build(),
        engine="structured",
    )
    slow = ReferenceDynamicSimulator(
        graph, make(algorithm), loads, injector=spec.build()
    )
    for _ in range(35):
        fast.step()
        slow.step()
        assert fast.loads.tolist() == slow.loads


def test_batched_scenario_matches_reference_on_leaf_spine():
    """A scenario's replica stack against the per-token loops.

    Each replica must equal a naive solo run with the replica's offset
    seed applied to both loads and dynamics.
    """
    spec = GraphSpec(
        "leaf_spine", {"leaves": 4, "spines": 2, "hosts_per_leaf": 3}
    )
    loads = LoadSpec("uniform_random", {"total_tokens": 300, "seed": 7})
    dynamics = DynamicsSpec("poisson_arrivals", {"rate": 0.7, "seed": 4})
    outcome = Scenario(
        graph=spec,
        algorithm=AlgorithmSpec("send_floor"),
        loads=loads,
        stop=StopRule.fixed(25),
        replicas=3,
        dynamics=dynamics,
    ).run()
    graph = spec.build()
    for replica in range(3):
        slow = ReferenceDynamicSimulator(
            graph,
            make("send_floor"),
            loads.build(graph.num_nodes, replica),
            injector=dynamics.build(replica),
        )
        slow.run(25)
        assert outcome.replica(replica).final_loads.tolist() == slow.loads
