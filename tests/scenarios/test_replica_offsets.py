"""Regression: replica seed offsetting is batch-size independent.

Replica ``r`` of any scenario must see exactly the workload (initial
loads *and* injected events) it would see running alone with
``seed + r`` — no matter whether it runs alone (a Simulator) or in a
batch of a different size.  A regression here silently decorrelates
"independent" replicas or makes results depend on how they were
grouped, so every seeded registered load spec and every seeded
injector is pinned down explicitly.
"""

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.core.loads import LOAD_SPECS
from repro.dynamics import INJECTORS, DynamicsSpec
from repro.faults import FAULTS, FaultSpec
from repro.graphs import families
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)
from repro.topology import TOPOLOGIES, TopologySpec

N = 16

#: Valid params for every *registered* load spec (seeded and not);
#: a newly registered spec must be added here to stay covered.
LOAD_SPEC_PARAMS = {
    "point_mass": {"tokens": 160},
    "bimodal": {"high": 20},
    "uniform_random": {"total_tokens": 320, "seed": 5},
    "balanced": {"per_node": 10},
    "linear_gradient": {"step": 2},
    "random_spikes": {
        "num_spikes": 4,
        "spike_height": 25,
        "seed": 5,
    },
    "adversarial_split": {"tokens": 200},
    "skewed": {"total_tokens": 320, "alpha": 1.5, "seed": 5},
}

#: Valid params for every registered injector, mirroring the above.
#: The last five are the repro.traffic datacenter generators, pinned
#: to the same seed/replica-offset discipline as the core injectors.
INJECTOR_PARAMS = {
    "constant_rate": {"rate": 6, "seed": 5},
    "batch_arrivals": {"tokens": 20, "period": 3, "seed": 5},
    "adversarial_peak": {"rate": 4},
    "random_churn": {"rate": 10, "seed": 5},
    "scripted": {"events": [[2, 1, 9], [5, 0, 4]]},
    "poisson_arrivals": {"rate": 1.5, "seed": 5},
    "pareto_flows": {"rate": 2.0, "alpha": 1.4, "seed": 5},
    "diurnal": {"rate": 2.0, "period": 6, "amplitude": 0.9, "seed": 5},
    "hotspot_shift": {
        "rate": 8,
        "hotspots": 2,
        "shift_every": 4,
        "seed": 5,
    },
    "correlated_burst": {
        "tokens": 6,
        "nodes": 3,
        "probability": 0.4,
        "seed": 5,
    },
}


#: Valid params for every registered fault schedule, mirroring the
#: injector table: seeded schedules must offset per replica, and
#: replica ``r``'s fault history must not depend on batch size.
FAULT_PARAMS = {
    "link_failures": {"rate": 0.3, "seed": 5},
    "node_crashes": {"rate": 0.12, "downtime": 3, "seed": 5},
    "message_drop": {"rate": 0.2, "seed": 5},
}


#: Valid params for every registered topology schedule, same contract:
#: seeded schedules offset per replica, and replica ``r``'s event
#: history must not depend on how the batch was grouped.
TOPOLOGY_PARAMS = {
    "edge_churn": {"rate": 0.3, "downtime": 3, "seed": 5},
    "node_join_leave": {"rate": 0.15, "rejoin_after": 3, "seed": 5},
    "expander_rewire": {"swaps": 2, "seed": 5},
    "scripted": {
        "events": [["drop", 2, 0, 1], ["add", 5, 0, 1], ["leave", 8, 4]]
    },
}


def test_every_registered_load_spec_is_covered():
    assert set(LOAD_SPEC_PARAMS) == set(LOAD_SPECS.names())


def test_every_registered_injector_is_covered():
    assert set(INJECTOR_PARAMS) == set(INJECTORS.names())


@pytest.mark.parametrize("name", sorted(LOAD_SPEC_PARAMS))
def test_load_spec_replica_offset(name):
    """build(n, r) == an explicit seed+r build; seedless are constant."""
    params = LOAD_SPEC_PARAMS[name]
    spec = LoadSpec(name, params)
    for replica in (0, 1, 3):
        offset = spec.build(N, replica)
        if "seed" in params:
            explicit = LoadSpec(
                name, {**params, "seed": params["seed"] + replica}
            ).build(N)
        else:
            explicit = spec.build(N)
        np.testing.assert_array_equal(offset, explicit)


@pytest.mark.parametrize("name", sorted(INJECTOR_PARAMS))
def test_injector_replica_offset(name):
    """DynamicsSpec.build(r) emits the explicit seed+r stream."""
    params = INJECTOR_PARAMS[name]
    spec = DynamicsSpec(name, params)
    loads = np.full(N, 30, dtype=np.int64)
    for replica in (0, 2):
        offset = spec.build(replica)
        if "seed" in params:
            explicit = DynamicsSpec(
                name, {**params, "seed": params["seed"] + replica}
            ).build()
        else:
            explicit = spec.build()
        offset.start(None, loads)
        explicit.start(None, loads)
        current = loads.copy()
        for t in range(1, 12):
            a = offset.delta(t, current)
            b = explicit.delta(t, current)
            np.testing.assert_array_equal(a, b)
            current = current + a


@pytest.mark.parametrize("name", sorted(INJECTOR_PARAMS))
def test_injected_replica_independent_of_batch_size(name):
    """Replica r's trajectory is the same in a batch of 2, 4, or alone."""
    graph = families.cycle(N)
    loads = LoadSpec("uniform_random", {"total_tokens": 320, "seed": 5})
    dynamics = DynamicsSpec(name, INJECTOR_PARAMS[name])

    def scenario(replicas):
        return Scenario(
            graph=GraphSpec("cycle", {"n": N}),
            algorithm=AlgorithmSpec("send_floor"),
            loads=loads,
            stop=StopRule.fixed(20),
            replicas=replicas,
            dynamics=dynamics,
        )

    small = scenario(2).run()
    large = scenario(4).run()
    for replica in range(2):
        np.testing.assert_array_equal(
            small.replica(replica).final_loads,
            large.replica(replica).final_loads,
        )
    for replica in range(4):
        solo = Simulator(
            graph,
            make("send_floor"),
            loads.build(N, replica),
            dynamics=dynamics.build(replica),
        ).run(20)
        np.testing.assert_array_equal(
            large.replica(replica).final_loads, solo.final_loads
        )
        assert (
            large.replica(replica).discrepancy_history
            == solo.discrepancy_history
        )


def test_seeded_replicas_actually_differ():
    """The offset produces distinct streams (not a no-op)."""
    spec = DynamicsSpec("constant_rate", {"rate": 8, "seed": 1})
    loads = np.full(N, 10, dtype=np.int64)
    a, b = spec.build(0), spec.build(1)
    a.start(None, loads)
    b.start(None, loads)
    deltas_a = np.stack([a.delta(t, loads).copy() for t in range(1, 6)])
    deltas_b = np.stack([b.delta(t, loads).copy() for t in range(1, 6)])
    assert not np.array_equal(deltas_a, deltas_b)


def test_every_registered_fault_schedule_is_covered():
    assert set(FAULT_PARAMS) == set(FAULTS.names())


def _fault_history(schedule, graph, loads, rounds=12):
    """The (dead, dropped, delta) sequence a schedule emits."""
    schedule.start(graph, loads)
    history = []
    for t in range(1, rounds):
        faults = schedule.round_state(t, loads)
        history.append(
            None
            if faults is None
            else (
                faults.dead.tolist(),
                faults.dropped.tolist(),
                None
                if faults.load_delta is None
                else faults.load_delta.tolist(),
            )
        )
    return history


@pytest.mark.parametrize("name", sorted(FAULT_PARAMS))
def test_fault_schedule_replica_offset(name):
    """FaultSpec.build(r) emits the explicit seed+r fault history."""
    params = FAULT_PARAMS[name]
    spec = FaultSpec(name, params)
    graph = families.cycle(N)
    loads = np.full(N, 30, dtype=np.int64)
    for replica in (0, 2):
        offset = spec.build(replica)
        explicit = FaultSpec(
            name, {**params, "seed": params["seed"] + replica}
        ).build()
        assert _fault_history(offset, graph, loads) == _fault_history(
            explicit, graph, loads
        )


@pytest.mark.parametrize("name", sorted(FAULT_PARAMS))
def test_fault_replica_independent_of_batch_size(name):
    """Replica r's faulty trajectory is the same in any batch size."""
    graph = families.cycle(N)
    loads = LoadSpec("uniform_random", {"total_tokens": 320, "seed": 5})
    faults = FaultSpec(name, FAULT_PARAMS[name])

    def scenario(replicas):
        return Scenario(
            graph=GraphSpec("cycle", {"n": N}),
            algorithm=AlgorithmSpec("send_floor"),
            loads=loads,
            stop=StopRule.fixed(20),
            replicas=replicas,
            faults=faults,
        )

    small = scenario(2).run()
    large = scenario(4).run()
    for replica in range(2):
        np.testing.assert_array_equal(
            small.replica(replica).final_loads,
            large.replica(replica).final_loads,
        )
    for replica in range(4):
        solo = Simulator(
            graph,
            make("send_floor"),
            loads.build(N, replica),
            faults=faults.build(replica),
        ).run(20)
        np.testing.assert_array_equal(
            large.replica(replica).final_loads, solo.final_loads
        )
        assert (
            large.replica(replica).discrepancy_history
            == solo.discrepancy_history
        )


def test_seeded_fault_replicas_actually_differ():
    """The fault-seed offset produces distinct histories (not a no-op)."""
    graph = families.cycle(N)
    loads = np.full(N, 30, dtype=np.int64)
    spec = FaultSpec("link_failures", {"rate": 0.3, "seed": 1})
    assert _fault_history(spec.build(0), graph, loads) != _fault_history(
        spec.build(1), graph, loads
    )


def test_every_registered_topology_schedule_is_covered():
    assert set(TOPOLOGY_PARAMS) == set(TOPOLOGIES.names())


def _topology_history(schedule, graph, loads, rounds=12):
    """The event stream a schedule emits (schedules self-track state)."""
    schedule.start(graph, loads)
    history = []
    for t in range(1, rounds):
        events = schedule.round_events(t, loads)
        history.append(
            None
            if events is None
            else (
                events.edge_drops.tolist(),
                events.edge_adds.tolist(),
                events.leaves.tolist(),
                tuple((n, tuple(vs)) for n, vs in events.joins),
            )
        )
    return history


@pytest.mark.parametrize("name", sorted(TOPOLOGY_PARAMS))
def test_topology_schedule_replica_offset(name):
    """TopologySpec.build(r) emits the explicit seed+r event stream."""
    params = TOPOLOGY_PARAMS[name]
    spec = TopologySpec(name, params)
    graph = families.cycle(N)
    loads = np.full(N, 30, dtype=np.int64)
    for replica in (0, 2):
        offset = spec.build(replica)
        if "seed" in params:
            explicit = TopologySpec(
                name, {**params, "seed": params["seed"] + replica}
            ).build()
        else:
            explicit = spec.build()
        assert _topology_history(
            offset, graph, loads
        ) == _topology_history(explicit, graph, loads)


@pytest.mark.parametrize("name", sorted(TOPOLOGY_PARAMS))
def test_topology_replica_independent_of_batch_size(name):
    """Replica r's churned trajectory is the same in any batch size."""
    graph = families.cycle(N)
    loads = LoadSpec("uniform_random", {"total_tokens": 320, "seed": 5})
    topology = TopologySpec(name, TOPOLOGY_PARAMS[name])

    def scenario(replicas):
        return Scenario(
            graph=GraphSpec("cycle", {"n": N}),
            algorithm=AlgorithmSpec("send_floor"),
            loads=loads,
            stop=StopRule.fixed(20),
            replicas=replicas,
            topology=topology,
        )

    small = scenario(2).run()
    large = scenario(4).run()
    for replica in range(2):
        np.testing.assert_array_equal(
            small.replica(replica).final_loads,
            large.replica(replica).final_loads,
        )
    for replica in range(4):
        solo = Simulator(
            graph,
            make("send_floor"),
            loads.build(N, replica),
            topology=topology.build(replica),
        ).run(20)
        np.testing.assert_array_equal(
            large.replica(replica).final_loads, solo.final_loads
        )
        assert (
            large.replica(replica).discrepancy_history
            == solo.discrepancy_history
        )


def test_seeded_topology_replicas_actually_differ():
    """The topology-seed offset produces distinct event streams."""
    graph = families.cycle(N)
    loads = np.full(N, 30, dtype=np.int64)
    spec = TopologySpec("edge_churn", {"rate": 0.3, "seed": 1})
    assert _topology_history(
        spec.build(0), graph, loads
    ) != _topology_history(spec.build(1), graph, loads)
