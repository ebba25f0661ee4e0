"""Differential suite: dense == structured == batched == reference
under network faults.

The acceptance property of the fault-injection subsystem: with a fault
schedule attached, every execution path — looped dense, looped
structured, the stacked batch runner, ``Scenario.run``, with and
without probes — produces bit-identical load trajectories
replica-for-replica, and all of them match the per-port reference
implementation in :mod:`tests.differential.reference_faults`.

Coverage spans every registered fault schedule on the four core
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
from repro.faults import FAULTS, FaultSpec
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
from tests.differential.reference_faults import ReferenceFaultySimulator
from tests.differential.strategies import fault_specs
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

FAULT_VARIANTS = {
    "link_failures/random": FaultSpec(
        "link_failures", {"rate": 0.3, "seed": 3}
    ),
    "link_failures/cut": FaultSpec(
        "link_failures", {"mode": "cut", "period": 6, "down": 3}
    ),
    "node_crashes/neighbors": FaultSpec(
        "node_crashes", {"rate": 0.08, "downtime": 4, "seed": 7}
    ),
    "node_crashes/lost": FaultSpec(
        "node_crashes",
        {"rate": 0.08, "downtime": 4, "handoff": "lost", "seed": 7},
    ),
    "message_drop": FaultSpec("message_drop", {"rate": 0.2, "seed": 11}),
}


def _initial(graph, replicas=None, seed=31):
    rng = np.random.default_rng(seed)
    shape = (
        graph.num_nodes
        if replicas is None
        else (replicas, graph.num_nodes)
    )
    return rng.integers(0, 300, shape).astype(np.int64)


def test_every_registered_fault_is_covered():
    """Adding a fault schedule without differential rows must fail."""
    covered = {key.split("/")[0] for key in FAULT_VARIANTS}
    assert covered == set(FAULTS.names())


@pytest.mark.parametrize("variant", sorted(FAULT_VARIANTS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_looped_parity_across_families(family, variant):
    """Dense vs structured under every fault on every family."""
    graph = FAMILIES[family]()
    loads = _initial(graph)
    spec = FAULT_VARIANTS[variant]
    dense = Simulator(
        graph,
        make("send_floor"),
        loads,
        faults=spec.build(),
        engine="dense",
    ).run(40)
    structured = Simulator(
        graph,
        make("send_floor"),
        loads,
        faults=spec.build(),
        engine="structured",
    ).run(40)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.discrepancy_history == structured.discrepancy_history
    assert dense.record.summary == structured.record.summary
    assert dense.record.summary["fault_schedule"] == spec.name


@pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_reference_parity_across_families(family, algorithm):
    """Every fault variant matches the per-port reference engine."""
    graph = FAMILIES[family]()
    loads = _initial(graph, seed=7)
    for variant, spec in sorted(FAULT_VARIANTS.items()):
        fast = Simulator(
            graph,
            make(algorithm),
            loads,
            faults=spec.build(),
            engine="structured",
        ).run(15)
        reference = ReferenceFaultySimulator(
            graph, make(algorithm), loads, faults=spec.build()
        )
        reference.run(15)
        assert fast.final_loads.tolist() == reference.loads, variant
        assert (
            fast.record.summary["tokens_dropped"]
            == reference.tokens_dropped
        ), variant


@pytest.mark.parametrize("engine", ["dense", "structured"])
@pytest.mark.parametrize("variant", sorted(FAULT_VARIANTS))
def test_batched_parity_with_faults(variant, engine):
    """Batch replica r == solo Simulator with the seed-r schedule."""
    graph = families.torus(4, 2)
    replicas = 4
    initial = _initial(graph, replicas)
    spec = FAULT_VARIANTS[variant]
    batch = BatchRunner(
        graph,
        make("send_floor"),
        initial,
        faults=spec,
        engine=engine,
    ).run(40)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            faults=spec.build(replica),
            engine="dense",
        ).run(40)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.histories[replica] == solo.discrepancy_history
        assert batch.records[replica].summary == solo.record.summary


def test_parity_with_probes_attached():
    """Loads-only probes ride every path under faults, bit-identically."""
    graph = fat_tree(4)
    replicas = 3
    initial = _initial(graph, replicas, seed=13)
    spec = FAULT_VARIANTS["node_crashes/neighbors"]
    batch = BatchRunner(
        graph,
        make("send_floor"),
        initial,
        probes=[(LoadBoundsMonitor(),) for _ in range(replicas)],
        faults=spec,
        engine="structured",
    ).run(35)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            probes=(LoadBoundsMonitor(),),
            faults=spec.build(replica),
            engine="dense",
        ).run(35)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.records[replica].summary == solo.record.summary


def test_faults_compose_with_dynamics():
    """Fault schedules and injectors stack: all paths still agree."""
    graph = leaf_spine(4, 2, 3)
    replicas = 3
    initial = _initial(graph, replicas, seed=17)
    faults = FAULT_VARIANTS["message_drop"]
    dynamics = DynamicsSpec("random_churn", {"rate": 9, "seed": 12})
    batch = BatchRunner(
        graph,
        make("send_floor"),
        initial,
        dynamics=dynamics,
        faults=faults,
        engine="structured",
    ).run(40)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            dynamics=dynamics.build(replica),
            faults=faults.build(replica),
            engine="dense",
        ).run(40)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.records[replica].summary == solo.record.summary
        reference = ReferenceFaultySimulator(
            graph,
            make("send_floor"),
            initial[replica],
            faults=faults.build(replica),
            injector=dynamics.build(replica),
        )
        reference.run(40)
        assert solo.final_loads.tolist() == reference.loads


def test_scenario_executor_parity_with_faults():
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
        faults=FaultSpec("link_failures", {"rate": 0.25, "seed": 4}),
    )
    looped = run_per_replica(scenario)
    batched = scenario.run()
    assert_same_results(looped, batched)
    assert looped.replica_summary(2) == batched.replica_summary(2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_parity_dense_structured_batched_reference(data):
    """Hypothesis: one random faulty case through all four paths."""
    graph = data.draw(balancing_graphs(max_self_loops=4))
    replicas = data.draw(st.integers(1, 3))
    rounds = data.draw(st.integers(1, 10))
    spec = data.draw(fault_specs(graph.num_nodes, rounds))
    initial = np.stack(
        [
            data.draw(load_vectors(graph.num_nodes))
            for _ in range(replicas)
        ]
    )
    batch_dense = BatchRunner(
        graph, make("send_floor"), initial, faults=spec, engine="dense"
    ).run(rounds)
    batch_structured = BatchRunner(
        graph,
        make("send_floor"),
        initial,
        faults=spec,
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
            faults=spec.build(replica),
            engine="structured",
        ).run(rounds)
        np.testing.assert_array_equal(
            batch_dense.final_loads[replica], solo.final_loads
        )
        reference = ReferenceFaultySimulator(
            graph,
            make("send_floor"),
            initial[replica],
            faults=spec.build(replica),
        )
        reference.run(rounds)
        assert solo.final_loads.tolist() == reference.loads
