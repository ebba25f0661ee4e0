"""Shared test utilities: fixtures, builders, and hypothesis strategies.

This is the single home for test-support code — ad-hoc graph/load
builders, the monitored-run harness, and the hypothesis strategies the
property and differential suites share.  (It absorbed the former
``tests/property/strategies.py``; import everything from here.)
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.engine import SimulationResult, Simulator
from repro.core.fairness import (
    ClassVerdict,
    CumulativeFairnessMonitor,
    FairnessMonitor,
    classify_run,
)
from repro.core.flows import FlowTracker
from repro.core.monitors import LoadBoundsMonitor
from repro.dynamics.spec import DynamicsSpec
from repro.faults.spec import FaultSpec
from repro.graphs import families
from repro.scenarios.spec import GraphSpec, ScenarioResult
from repro.specs import coerce_spec
from repro.topology.spec import TopologySpec


def run_monitored(
    graph,
    balancer,
    initial_loads,
    rounds: int,
    s: int = 1,
) -> tuple[SimulationResult, ClassVerdict, FlowTracker, LoadBoundsMonitor]:
    """Run with the full monitor suite; returns result + class verdict."""
    fairness = FairnessMonitor(s=s)
    cumulative = CumulativeFairnessMonitor()
    flows = FlowTracker()
    bounds = LoadBoundsMonitor()
    simulator = Simulator(
        graph,
        balancer,
        initial_loads,
        probes=(fairness, cumulative, flows, bounds),
    )
    result = simulator.run(rounds)
    return result, classify_run(fairness, cumulative), flows, bounds


def run_per_replica(scenario, graph=None, replica_range=None) -> ScenarioResult:
    """Reference for :meth:`Scenario.run`: one :class:`Simulator` per
    replica, built from that replica's seeds, probes and schedules.

    ``Scenario.run`` runs every replica in one stack; each replica must
    match its own ``Simulator`` here, record for record.
    """
    graph = graph if graph is not None else scenario.build_graph()
    if replica_range is None:
        replica_range = range(scenario.replicas)
    results: list[SimulationResult] = []
    probe_sets: list[tuple] = []
    for replica in replica_range:
        simulator = Simulator(
            graph,
            scenario.build_balancer(replica),
            scenario.build_loads(graph, replica),
            probes=scenario.build_probe_set(),
            dynamics=coerce_spec(scenario.dynamics, DynamicsSpec, replica),
            faults=coerce_spec(scenario.faults, FaultSpec, replica),
            topology=coerce_spec(scenario.topology, TopologySpec, replica),
            record_history=scenario.record_history,
            validate_every_round=scenario.validate_every_round,
            engine=scenario.engine,
        )
        stop = scenario.stop
        if stop.kind == "rounds":
            result = simulator.run(stop.rounds)
        else:
            result = simulator.run_until(
                stop.predicate(),
                stop.max_rounds,
                check_every=stop.check_every,
            )
        if result.record is not None:
            result.record.replica = replica
        results.append(result)
        probe_sets.append(simulator.probes)
    return ScenarioResult(
        scenario=scenario, graph=graph, results=results, probes=probe_sets
    )


def run_scenarios(suite, graph=None) -> list[ScenarioResult]:
    """Reference for :meth:`ScenarioSuite.run`: one :meth:`Scenario.run`
    per scenario, in suite order, with no executor, shards or cache.

    Scenarios sharing a :class:`GraphSpec` share one built graph; a
    spec whose params are unhashable is left to ``Scenario.run`` to
    build.
    """
    graph_cache: dict = {}
    results = []
    for scenario in suite:
        scenario_graph = graph
        if scenario_graph is None and isinstance(scenario.graph, GraphSpec):
            try:
                scenario_graph = graph_cache.get(scenario.graph)
                if scenario_graph is None:
                    scenario_graph = scenario.graph.build()
                    graph_cache[scenario.graph] = scenario_graph
            except TypeError:  # unhashable custom param value
                scenario_graph = None
        results.append(scenario.run(graph=scenario_graph))
    return results


def assert_same_results(left: ScenarioResult, right: ScenarioResult) -> None:
    """Replica-for-replica equality of two scenario outcomes: final
    loads, rounds, early stops, histories and canonical records."""
    assert len(left.results) == len(right.results)
    for a, b in zip(left.results, right.results):
        np.testing.assert_array_equal(a.final_loads, b.final_loads)
        assert a.rounds_executed == b.rounds_executed
        assert a.stopped_early == b.stopped_early
        assert a.discrepancy_history == b.discrepancy_history
        assert (a.record is None) == (b.record is None)
        if a.record is not None:
            assert a.record.to_dict() == b.record.to_dict()


def assert_conserved(result: SimulationResult) -> None:
    assert result.final_loads.sum() == result.initial_loads.sum()


def spread_loads(n: int, seed: int, high: int = 100) -> np.ndarray:
    """Random nonnegative integer loads for ad-hoc cases."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=n).astype(np.int64)


# ----------------------------------------------------------------------
# Hypothesis strategies (shared by the property and differential suites)
# ----------------------------------------------------------------------


@st.composite
def balancing_graphs(draw, max_self_loops: int = 8):
    """A small graph from a random family with a random d° >= d."""
    family = draw(
        st.sampled_from(
            ["cycle", "complete", "hypercube", "torus", "random_regular"]
        )
    )
    if family == "cycle":
        n = draw(st.integers(3, 16))
        base = families.cycle(n)
    elif family == "complete":
        n = draw(st.integers(3, 10))
        base = families.complete(n)
    elif family == "hypercube":
        dim = draw(st.integers(2, 4))
        base = families.hypercube(dim)
    elif family == "torus":
        side = draw(st.integers(3, 4))
        base = families.torus(side, 2)
    else:
        n = draw(st.sampled_from([8, 12, 16]))
        degree = draw(st.sampled_from([3, 4]))
        base = families.random_regular(n, degree, seed=draw(st.integers(0, 50)))
    loops = draw(
        st.integers(base.degree, base.degree + max_self_loops)
    )
    return base.with_self_loops(loops)


@st.composite
def load_vectors(draw, n: int, max_load: int = 200):
    """A nonnegative integer load vector of length n."""
    values = draw(
        st.lists(
            st.integers(0, max_load), min_size=n, max_size=n
        )
    )
    return np.array(values, dtype=np.int64)
