"""Differential suite: dense == structured == batched under dynamics.

The acceptance property of the dynamic-workload subsystem: with an
injector attached, every execution path — looped dense, looped
structured, the stacked batch runner (both engines, fixed-round and
``run_until``), with and without probes — produces bit-identical load
trajectories replica-for-replica.
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
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)
from repro.scenarios.batch import BatchRunner
from tests.differential.strategies import dynamics_specs
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
}

CHURN = DynamicsSpec("random_churn", {"rate": 11, "seed": 8})


def _initial(graph, replicas=None, seed=31):
    rng = np.random.default_rng(seed)
    shape = (
        graph.num_nodes
        if replicas is None
        else (replicas, graph.num_nodes)
    )
    return rng.integers(0, 300, shape).astype(np.int64)


@pytest.mark.parametrize(
    "algorithm", ["send_floor", "send_rounded", "rotor_router"]
)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_looped_parity_across_families(algorithm, family):
    """Dense vs structured with churn on every standard family."""
    graph = FAMILIES[family]()
    loads = _initial(graph)
    dense = Simulator(
        graph,
        make(algorithm),
        loads,
        dynamics=CHURN.build(),
        engine="dense",
    ).run(60)
    structured = Simulator(
        graph,
        make(algorithm),
        loads,
        dynamics=CHURN.build(),
        engine="structured",
    ).run(60)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.discrepancy_history == structured.discrepancy_history
    assert (
        dense.record.summary["tokens_injected"]
        == structured.record.summary["tokens_injected"]
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("engine", ["dense", "structured"])
def test_batched_parity_with_dynamics(family, engine):
    """Batch replica r == solo Simulator with the seed-r injector."""
    graph = FAMILIES[family]()
    replicas = 4
    initial = _initial(graph, replicas)
    batch = BatchRunner(
        graph,
        make("send_floor"),
        initial,
        dynamics=CHURN,
        engine=engine,
    ).run(50)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            dynamics=CHURN.build(replica),
            engine="dense",
        ).run(50)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert batch.histories[replica] == solo.discrepancy_history
        assert (
            batch.records[replica].summary
            == solo.record.summary
        )


@pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
def test_batched_run_until_parity_with_dynamics(algorithm):
    """Early stopping freezes replicas (and their injectors) identically."""
    graph = families.cycle(15)
    replicas = 4
    initial = _initial(graph, replicas, seed=5)
    spec = DynamicsSpec("constant_rate", {"rate": 6, "seed": 2})

    def balancers():
        if algorithm == "rotor_router":
            return [make(algorithm) for _ in range(replicas)]
        return make(algorithm)

    def predicates():
        return [
            lambda loads: int(loads.max() - loads.min()) <= 14
            for _ in range(replicas)
        ]

    dense = BatchRunner(
        graph, balancers(), initial, dynamics=spec, engine="dense"
    ).run_until(predicates(), max_rounds=200, check_every=2)
    structured = BatchRunner(
        graph, balancers(), initial, dynamics=spec, engine="structured"
    ).run_until(predicates(), max_rounds=200, check_every=2)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    np.testing.assert_array_equal(
        dense.rounds_executed, structured.rounds_executed
    )
    np.testing.assert_array_equal(
        dense.stopped_early, structured.stopped_early
    )
    assert dense.histories == structured.histories
    # ... and each batch replica matches its looped twin.
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make(algorithm),
            initial[replica],
            dynamics=spec.build(replica),
            engine="dense",
        ).run_until(
            lambda loads: int(loads.max() - loads.min()) <= 14,
            max_rounds=200,
            check_every=2,
        )
        np.testing.assert_array_equal(
            dense.final_loads[replica], solo.final_loads
        )
        assert (
            int(dense.rounds_executed[replica])
            == solo.rounds_executed
        )


def test_parity_with_probes_attached():
    """Loads-only probes ride every path under dynamics, bit-identically."""
    graph = families.torus(4, 2)
    replicas = 3
    initial = _initial(graph, replicas, seed=13)
    spec = DynamicsSpec("batch_arrivals", {"tokens": 25, "period": 4, "seed": 6})
    batch = BatchRunner(
        graph,
        make("send_floor"),
        initial,
        probes=[(LoadBoundsMonitor(),) for _ in range(replicas)],
        dynamics=spec,
        engine="structured",
    ).run(45)
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make("send_floor"),
            initial[replica],
            probes=(LoadBoundsMonitor(),),
            dynamics=spec.build(replica),
            engine="dense",
        ).run(45)
        np.testing.assert_array_equal(
            batch.final_loads[replica], solo.final_loads
        )
        assert (
            batch.records[replica].summary == solo.record.summary
        )


def test_sends_probe_parity_with_dynamics():
    """A structured-capable sends probe sees identical flow totals."""
    from repro.core.flows import FlowTracker

    graph = families.cycle(12)
    loads = _initial(graph, seed=41)
    spec = DynamicsSpec("adversarial_peak", {"rate": 5})
    dense_flows = FlowTracker()
    structured_flows = FlowTracker()
    Simulator(
        graph,
        make("send_floor"),
        loads,
        probes=(dense_flows,),
        dynamics=spec.build(),
        engine="dense",
    ).run(30)
    Simulator(
        graph,
        make("send_floor"),
        loads,
        probes=(structured_flows,),
        dynamics=spec.build(),
        engine="structured",
    ).run(30)
    np.testing.assert_array_equal(
        dense_flows.cumulative, structured_flows.cumulative
    )
    assert dense_flows.summary() == structured_flows.summary()


def test_scenario_executor_parity_with_dynamics():
    """A scenario stack matches per-replica Simulators, replica for
    replica."""
    scenario = Scenario(
        graph=GraphSpec("torus", {"side": 4, "dimensions": 2}),
        algorithm=AlgorithmSpec("send_floor"),
        loads=LoadSpec("uniform_random", {"total_tokens": 800, "seed": 3}),
        stop=StopRule.fixed(40),
        replicas=4,
        dynamics=DynamicsSpec("random_churn", {"rate": 9, "seed": 12}),
    )
    looped = run_per_replica(scenario)
    batched = scenario.run()
    assert_same_results(looped, batched)
    assert looped.replica_summary(2) == batched.replica_summary(2)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_parity_dense_structured_batched(data):
    """Hypothesis: one random dynamic case through all three paths."""
    graph = data.draw(balancing_graphs(max_self_loops=4))
    algorithm = data.draw(st.sampled_from(["send_floor", "send_rounded"]))
    if (
        algorithm == "send_rounded"
        and graph.total_degree < 2 * graph.degree
    ):
        algorithm = "send_floor"
    replicas = data.draw(st.integers(1, 4))
    rounds = data.draw(st.integers(1, 12))
    spec = data.draw(dynamics_specs(graph.num_nodes, rounds))
    initial = np.stack(
        [
            data.draw(load_vectors(graph.num_nodes))
            for _ in range(replicas)
        ]
    )
    batch_dense = BatchRunner(
        graph, make(algorithm), initial, dynamics=spec, engine="dense"
    ).run(rounds)
    batch_structured = BatchRunner(
        graph,
        make(algorithm),
        initial,
        dynamics=spec,
        engine="structured",
    ).run(rounds)
    np.testing.assert_array_equal(
        batch_dense.final_loads, batch_structured.final_loads
    )
    assert batch_dense.histories == batch_structured.histories
    for replica in range(replicas):
        solo = Simulator(
            graph,
            make(algorithm),
            initial[replica],
            dynamics=spec.build(replica),
            engine="structured",
        ).run(rounds)
        np.testing.assert_array_equal(
            batch_dense.final_loads[replica], solo.final_loads
        )
        assert batch_dense.histories[replica] == solo.discrepancy_history
