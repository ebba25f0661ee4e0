"""Differential suite: dense == structured == batched == reference
under topology churn.

The acceptance property of the dynamic-topology subsystem: with a
topology schedule attached, every execution path — looped dense,
looped structured, the stacked batch runner, ``Scenario.run``,
``run_until``, with and without probes — produces bit-identical load
trajectories replica-for-replica, and all of them match the
rebuild-from-scratch reference implementation in
:mod:`tests.differential.reference_churn`.

Coverage spans every registered topology schedule on the four core
families *and* both datacenter fabrics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.core.monitors import LoadBoundsMonitor
from repro.dynamics import DynamicsSpec
from repro.graphs import families
from repro.graphs.datacenter import fat_tree, leaf_spine
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)
from repro.scenarios.batch import BatchRunner
from repro.topology import TOPOLOGIES, TopologySpec
from tests.differential.reference_churn import ReferenceChurnSimulator
from tests.differential.strategies import topology_specs
from tests.helpers import (
    assert_same_results,
    balancing_graphs,
    load_vectors,
    run_per_replica,
)

FAMILIES = {
    "cycle": lambda: families.cycle(15),
    "torus": lambda: families.torus(4, 2),
    "hypercube": lambda: families.hypercube(4),
    "random_regular": lambda: families.random_regular(20, 4, seed=9),
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(4, 2, 3),
}


def _scripted_spec(graph) -> TopologySpec:
    """A per-graph scripted stream touching all four event kinds."""
    degrees = getattr(graph, "true_degrees", None)
    v = int(graph.adjacency[0, 0])
    w = graph.num_nodes - 1
    w_deg = graph.degree if degrees is None else int(degrees[w])
    w_neighbors = [int(x) for x in graph.adjacency[w, :w_deg]]
    return TopologySpec(
        "scripted",
        {
            "events": [
                ["drop", 2, 0, v],
                ["add", 5, 0, v],
                ["leave", 8, w],
                ["join", 12, w, w_neighbors],
            ]
        },
    )


# Values are ``graph -> TopologySpec`` factories: scripted streams
# must reference the concrete edge set, the rest ignore the graph.
TOPOLOGY_VARIANTS = {
    "edge_churn/random": lambda graph: TopologySpec(
        "edge_churn", {"rate": 0.12, "downtime": 4, "seed": 3}
    ),
    "edge_churn/cut": lambda graph: TopologySpec(
        "edge_churn", {"mode": "cut", "period": 6, "down": 3}
    ),
    "node_join_leave": lambda graph: TopologySpec(
        "node_join_leave",
        {"rate": 0.06, "rejoin_after": 4, "seed": 7},
    ),
    "expander_rewire": lambda graph: TopologySpec(
        "expander_rewire", {"swaps": 2, "seed": 5}
    ),
    "scripted": _scripted_spec,
}


def _initial(graph, replicas=None, seed=31):
    rng = np.random.default_rng(seed)
    shape = (
        graph.num_nodes
        if replicas is None
        else (replicas, graph.num_nodes)
    )
    return rng.integers(0, 300, shape).astype(np.int64)


def test_every_registered_topology_is_covered():
    """Adding a schedule without differential rows must fail."""
    covered = {key.split("/")[0] for key in TOPOLOGY_VARIANTS}
    assert covered == set(TOPOLOGIES.names())


@pytest.mark.parametrize("variant", sorted(TOPOLOGY_VARIANTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_looped_parity_across_families(family, variant):
    """Dense vs structured under every schedule on every family."""
    graph = FAMILIES[family]()
    loads = _initial(graph)
    spec = TOPOLOGY_VARIANTS[variant](graph)
    dense = Simulator(
        graph,
        make("send_floor"),
        loads,
        topology=spec.build(),
        engine="dense",
    ).run(40)
    structured = Simulator(
        graph,
        make("send_floor"),
        loads,
        topology=spec.build(),
        engine="structured",
    ).run(40)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.discrepancy_history == structured.discrepancy_history
    assert dense.record.summary == structured.record.summary
    assert dense.record.summary["topology_schedule"] == spec.name
    assert int(dense.final_loads.sum()) == int(loads.sum())


@pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reference_parity_across_families(family, algorithm):
    """Every schedule matches the rebuild-from-scratch reference.

    The fast path repairs ports in place and refreshes only dirty
    balancer rows; the reference rebuilds the whole graph every
    churned round and rebinds wholesale.  Agreement here is the proof
    that the incremental machinery changes nothing but the cost.
    """
    graph = FAMILIES[family]()
    loads = _initial(graph, seed=7)
    for variant, make_spec in sorted(TOPOLOGY_VARIANTS.items()):
        spec = make_spec(graph)
        balancer = make(algorithm)
        fast = Simulator(
            graph,
            balancer,
            loads,
            topology=spec.build(),
            engine="structured",
        ).run(15)
        reference = ReferenceChurnSimulator(
            graph, make(algorithm), loads, topology=spec.build()
        )
        reference.run(15)
        assert fast.final_loads.tolist() == reference.loads, variant
        assert sum(reference.loads) == int(loads.sum()), variant
        if algorithm == "rotor_router":
            # The looped engine must never have fallen back to a full
            # rebind: churn is served by the dirty-row fast path.
            assert balancer.refresh_full == 0, variant


@pytest.mark.parametrize("engine", ["dense", "structured"])
@pytest.mark.parametrize("variant", sorted(TOPOLOGY_VARIANTS))
def test_batched_parity_with_topology(variant, engine):
    """Batch replica r == solo Simulator with the offset-r schedule."""
    graph = families.torus(4, 2)
    replicas = 4
    initial = _initial(graph, replicas)
    spec = TOPOLOGY_VARIANTS[variant](graph)
    batch = BatchRunner(
        graph,
        [make("send_floor") for _ in range(replicas)],
        initial,
        topology=spec,
        engine=engine,
    ).run(40)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            topology=spec.build(replica),
            engine="dense",
        ).run(40)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.histories[replica] == solo.discrepancy_history
        assert batch.records[replica].summary == solo.record.summary


def test_parity_with_probes_attached():
    """Loads-only probes ride every path under churn, bit-identically."""
    graph = fat_tree(4)
    replicas = 3
    initial = _initial(graph, replicas, seed=13)
    spec = TOPOLOGY_VARIANTS["node_join_leave"](graph)
    batch = BatchRunner(
        graph,
        [make("send_floor") for _ in range(replicas)],
        initial,
        probes=[(LoadBoundsMonitor(),) for _ in range(replicas)],
        topology=spec,
        engine="structured",
    ).run(35)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            probes=(LoadBoundsMonitor(),),
            topology=spec.build(replica),
            engine="dense",
        ).run(35)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.records[replica].summary == solo.record.summary


def test_topology_composes_with_dynamics():
    """Churn and injectors stack: all paths still agree."""
    graph = leaf_spine(4, 2, 3)
    replicas = 3
    initial = _initial(graph, replicas, seed=17)
    spec = TOPOLOGY_VARIANTS["edge_churn/random"](graph)
    dynamics = DynamicsSpec("random_churn", {"rate": 9, "seed": 12})
    batch = BatchRunner(
        graph,
        [make("send_floor") for _ in range(replicas)],
        initial,
        dynamics=dynamics,
        topology=spec,
        engine="structured",
    ).run(40)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            dynamics=dynamics.build(replica),
            topology=spec.build(replica),
            engine="dense",
        ).run(40)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.records[replica].summary == solo.record.summary
        reference = ReferenceChurnSimulator(
            graph,
            make("send_floor"),
            initial[replica],
            topology=spec.build(replica),
            injector=dynamics.build(replica),
        )
        reference.run(40)
        assert solo.final_loads.tolist() == reference.loads


def test_run_until_parity_under_churn():
    """Early-stopping replicas freeze their schedules identically."""
    graph = families.hypercube(4)
    replicas = 3
    initial = _initial(graph, replicas, seed=23)
    spec = TOPOLOGY_VARIANTS["edge_churn/random"](graph)
    bound = 24

    def predicate(loads):
        return int(loads.max() - loads.min()) <= bound

    batch = BatchRunner(
        graph,
        [make("send_floor") for _ in range(replicas)],
        initial,
        topology=spec,
        engine="structured",
    ).run_until([predicate] * replicas, max_rounds=30, check_every=2)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            topology=spec.build(replica),
            engine="structured",
        ).run_until(predicate, max_rounds=30, check_every=2)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert (
            batch.records[replica].rounds_executed
            == solo.record.rounds_executed
        )
        assert batch.records[replica].summary == solo.record.summary


def test_scenario_executor_parity_with_topology():
    """A scenario stack matches per-replica Simulators, replica for
    replica."""
    scenario = Scenario(
        graph=GraphSpec("fat_tree", {"k": 4}),
        algorithm=AlgorithmSpec("send_floor"),
        loads=LoadSpec(
            "uniform_random", {"total_tokens": 800, "seed": 3}
        ),
        stop=StopRule.fixed(30),
        replicas=4,
        topology=TopologySpec(
            "edge_churn", {"rate": 0.15, "downtime": 3, "seed": 4}
        ),
    )
    looped = run_per_replica(scenario)
    batched = scenario.run()
    assert_same_results(looped, batched)
    assert looped.replica_summary(2) == batched.replica_summary(2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_parity_dense_structured_batched_reference(data):
    """Hypothesis: one random churned case through all four paths."""
    graph = data.draw(balancing_graphs(max_self_loops=4))
    replicas = data.draw(st.integers(1, 3))
    rounds = data.draw(st.integers(1, 10))
    spec = data.draw(topology_specs(graph.num_nodes, rounds))
    initial = np.stack(
        [
            data.draw(load_vectors(graph.num_nodes))
            for _ in range(replicas)
        ]
    )
    batch_dense = BatchRunner(
        graph,
        [make("send_floor") for _ in range(replicas)],
        initial,
        topology=spec,
        engine="dense",
    ).run(rounds)
    batch_structured = BatchRunner(
        graph,
        [make("send_floor") for _ in range(replicas)],
        initial,
        topology=spec,
        engine="structured",
    ).run(rounds)
    np.testing.assert_array_equal(
        batch_dense.final_loads, batch_structured.final_loads
    )
    assert batch_dense.histories == batch_structured.histories
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            topology=spec.build(replica),
            engine="structured",
        ).run(rounds)
        np.testing.assert_array_equal(
            batch_dense.final_loads[replica], solo.final_loads
        )
        reference = ReferenceChurnSimulator(
            graph,
            make("send_floor"),
            initial[replica],
            topology=spec.build(replica),
        )
        reference.run(rounds)
        assert solo.final_loads.tolist() == reference.loads
