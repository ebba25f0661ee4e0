"""Cross-backend bit-identity: every registered engine == dense.

The acceptance property of the engine registry: for every backend in
``ENGINES`` (not just the built-in two — third-party registrations are
picked up automatically), the load trajectory is bit-identical to the
dense reference on every standard graph family, through every execution
path (looped, batched, ``run_until``), and with probes, dynamics,
faults, and topology churn attached.  Integer token counts make
bitwise equality the right assertion — no tolerance anywhere.
"""

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.algorithms.rotor_router import RotorRouter
from repro.core.engine import Simulator
from repro.core.probes import ProbeSpec
from repro.dynamics import DynamicsSpec
from repro.engines import DENSE, ENGINES, create_engine
from repro.faults import FaultSpec
from repro.graphs import families
from repro.graphs.datacenter import fat_tree, leaf_spine
from repro.scenarios.batch import BatchRunner
from repro.topology import TopologySpec

FAMILIES = {
    "cycle": lambda: families.cycle(15, num_self_loops=2),
    # Odd n = 17 with two offsets: a 4-regular graph off the powers of 2.
    "circulant": lambda: families.circulant(17, [1, 3]),
    # d+^2 > n: default-order rotors take the positions path, not the
    # per-state window tables.
    "complete": lambda: families.complete(8),
    "petersen": lambda: families.petersen(),
    "ring_of_cliques": lambda: families.ring_of_cliques(4, 3),
    "torus": lambda: families.torus(4, 2),
    "hypercube": lambda: families.hypercube(4),
    "random_regular": lambda: families.random_regular(20, 4, seed=9),
    "fat_tree": lambda: fat_tree(4),
    "leaf_spine": lambda: leaf_spine(4, 3, 4),
}

ALL_ENGINES = sorted(ENGINES)
CHURN = DynamicsSpec("random_churn", {"rate": 9, "seed": 12})


def _initial(graph, replicas=None, seed=31):
    rng = np.random.default_rng(seed)
    shape = (
        graph.num_nodes
        if replicas is None
        else (replicas, graph.num_nodes)
    )
    return rng.integers(0, 300, shape).astype(np.int64)


def _algorithms(engine):
    """Structured-protocol backends only run structured-capable schemes."""
    if create_engine(engine).protocol == DENSE:
        return ["rotor_router", "send_floor", "arbitrary_rounding_fixed"]
    return ["rotor_router", "send_floor"]


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_looped_parity_with_probes_and_dynamics(family, engine):
    """Looped path: probes + dynamics, every family x every backend."""
    graph = FAMILIES[family]()
    loads = _initial(graph)
    for algorithm in _algorithms(engine):
        reference = Simulator(
            graph,
            make(algorithm),
            loads,
            probes=(ProbeSpec("discrepancy"),),
            dynamics=CHURN.build(),
            engine="dense",
        ).run(50)
        candidate = Simulator(
            graph,
            make(algorithm),
            loads,
            probes=(ProbeSpec("discrepancy"),),
            dynamics=CHURN.build(),
            engine=engine,
        ).run(50)
        np.testing.assert_array_equal(
            reference.final_loads, candidate.final_loads
        )
        assert (
            reference.discrepancy_history
            == candidate.discrepancy_history
        )
        assert reference.record.summary == candidate.record.summary


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_looped_parity_under_faults(family, engine):
    graph = FAMILIES[family]()
    loads = _initial(graph, seed=17)
    spec = FaultSpec("link_failures", {"rate": 0.3, "seed": 3})
    for algorithm in _algorithms(engine):
        reference = Simulator(
            graph,
            make(algorithm),
            loads,
            faults=spec.build(),
            engine="dense",
        ).run(40)
        candidate = Simulator(
            graph,
            make(algorithm),
            loads,
            faults=spec.build(),
            engine=engine,
        ).run(40)
        np.testing.assert_array_equal(
            reference.final_loads, candidate.final_loads
        )
        assert (
            reference.discrepancy_history
            == candidate.discrepancy_history
        )


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_looped_parity_under_topology_churn(family, engine):
    """Churn exercises each backend's refresh_topology repair path."""
    graph = FAMILIES[family]()
    loads = _initial(graph, seed=23)
    spec = TopologySpec(
        "edge_churn", {"rate": 0.12, "downtime": 4, "seed": 3}
    )
    for algorithm in _algorithms(engine):
        reference = Simulator(
            graph,
            make(algorithm),
            loads,
            topology=spec,
            engine="dense",
        ).run(40)
        candidate = Simulator(
            graph,
            make(algorithm),
            loads,
            topology=spec,
            engine=engine,
        ).run(40)
        np.testing.assert_array_equal(
            reference.final_loads, candidate.final_loads
        )
        assert (
            reference.discrepancy_history
            == candidate.discrepancy_history
        )


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_batched_parity_with_dynamics(family, engine):
    """Batch path: stateful per-replica rotors + shared send_floor."""
    graph = FAMILIES[family]()
    replicas = 3
    initial = _initial(graph, replicas, seed=5)

    def run(balancers, backend):
        return BatchRunner(
            graph, balancers, initial, dynamics=CHURN, engine=backend
        ).run(40)

    for algorithm in ("rotor_router", "send_floor"):
        if algorithm == "rotor_router":
            # Stateful: one instance per replica.
            balancers = lambda: [make(algorithm) for _ in range(replicas)]
        else:
            balancers = lambda: make(algorithm)
        reference = run(balancers(), "dense")
        candidate = run(balancers(), engine)
        np.testing.assert_array_equal(
            reference.final_loads, candidate.final_loads
        )
        assert reference.histories == candidate.histories
        for replica in range(replicas):
            assert (
                reference.records[replica].summary
                == candidate.records[replica].summary
            )


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_batched_run_until_parity(engine):
    """Early stopping freezes replicas identically on every backend."""
    graph = families.torus(4, 2)
    replicas = 3
    initial = _initial(graph, replicas, seed=11)
    spec = DynamicsSpec("constant_rate", {"rate": 6, "seed": 2})

    def predicates():
        return [
            lambda loads: int(loads.max() - loads.min()) <= 14
            for _ in range(replicas)
        ]

    def run(backend):
        return BatchRunner(
            graph,
            [make("rotor_router") for _ in range(replicas)],
            initial,
            dynamics=spec,
            engine=backend,
        ).run_until(predicates(), max_rounds=150, check_every=2)

    reference = run("dense")
    candidate = run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    np.testing.assert_array_equal(
        reference.rounds_executed, candidate.rounds_executed
    )
    np.testing.assert_array_equal(
        reference.stopped_early, candidate.stopped_early
    )
    assert reference.histories == candidate.histories


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_looped_run_until_parity(engine):
    graph = families.hypercube(4)
    loads = _initial(graph, seed=29)

    def run(backend):
        return Simulator(
            graph, make("rotor_router"), loads, engine=backend
        ).run_until(
            lambda vec: int(vec.max() - vec.min()) <= 6,
            max_rounds=200,
            check_every=3,
        )

    reference = run("dense")
    candidate = run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    assert reference.rounds_executed == candidate.rounds_executed
    assert (
        reference.discrepancy_history == candidate.discrepancy_history
    )


# -- custom port orders ------------------------------------------------
#
# A custom rotor order keeps its own ``(n, d+)`` orders and positions
# arrays, where the default order is one broadcast row; these pin the
# non-broadcast path of every structured-protocol backend against the
# dense ``put_along_axis`` scatter.

STRUCTURED_ENGINES = [
    engine
    for engine in ALL_ENGINES
    if create_engine(engine).protocol != DENSE
]


def _custom_rotor(graph, seed=41):
    rng = np.random.default_rng(seed)
    orders = np.stack(
        [rng.permutation(graph.total_degree) for _ in range(graph.num_nodes)]
    )
    return RotorRouter(port_orders=orders)


@pytest.mark.parametrize("engine", STRUCTURED_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_custom_port_order_parity_with_probes_and_dynamics(family, engine):
    graph = FAMILIES[family]()
    loads = _initial(graph)

    def run(backend):
        return Simulator(
            graph,
            _custom_rotor(graph),
            loads,
            probes=(ProbeSpec("discrepancy"),),
            dynamics=CHURN.build(),
            engine=backend,
        ).run(50)

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    assert reference.discrepancy_history == candidate.discrepancy_history
    assert reference.record.summary == candidate.record.summary


@pytest.mark.parametrize("engine", STRUCTURED_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_custom_port_order_parity_under_faults(family, engine):
    graph = FAMILIES[family]()
    loads = _initial(graph, seed=17)
    spec = FaultSpec("link_failures", {"rate": 0.3, "seed": 3})

    def run(backend):
        return Simulator(
            graph,
            _custom_rotor(graph),
            loads,
            faults=spec.build(),
            engine=backend,
        ).run(40)

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    assert reference.discrepancy_history == candidate.discrepancy_history


@pytest.mark.parametrize("engine", STRUCTURED_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_custom_port_order_parity_under_topology_churn(family, engine):
    """Churn repairs reverse_flat in place under a custom order."""
    graph = FAMILIES[family]()
    loads = _initial(graph, seed=23)
    spec = TopologySpec(
        "edge_churn", {"rate": 0.12, "downtime": 4, "seed": 3}
    )

    def run(backend):
        return Simulator(
            graph,
            _custom_rotor(graph),
            loads,
            topology=spec,
            engine=backend,
        ).run(40)

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    assert reference.discrepancy_history == candidate.discrepancy_history


@pytest.mark.parametrize("engine", STRUCTURED_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_custom_port_order_batched_parity(family, engine):
    """A different custom order per replica, in one batched round."""
    graph = FAMILIES[family]()
    replicas = 3
    initial = _initial(graph, replicas, seed=5)

    def run(backend):
        balancers = [
            _custom_rotor(graph, seed=replica)
            for replica in range(replicas)
        ]
        return BatchRunner(
            graph, balancers, initial, dynamics=CHURN, engine=backend
        ).run(40)

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    assert reference.histories == candidate.histories


@pytest.mark.parametrize("engine", STRUCTURED_ENGINES)
def test_custom_port_order_batched_run_until_parity(engine):
    graph = families.torus(4, 2)
    replicas = 3
    initial = _initial(graph, replicas, seed=11)
    spec = DynamicsSpec("constant_rate", {"rate": 6, "seed": 2})

    def run(backend):
        return BatchRunner(
            graph,
            [_custom_rotor(graph, seed=r) for r in range(replicas)],
            initial,
            dynamics=spec,
            engine=backend,
        ).run_until(
            [
                lambda loads: int(loads.max() - loads.min()) <= 14
                for _ in range(replicas)
            ],
            max_rounds=150,
            check_every=2,
        )

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    np.testing.assert_array_equal(
        reference.rounds_executed, candidate.rounds_executed
    )
    assert reference.histories == candidate.histories


@pytest.mark.parametrize("engine", STRUCTURED_ENGINES)
def test_custom_port_order_looped_run_until_parity(engine):
    graph = families.hypercube(4)
    loads = _initial(graph, seed=29)

    def run(backend):
        return Simulator(
            graph, _custom_rotor(graph), loads, engine=backend
        ).run_until(
            lambda vec: int(vec.max() - vec.min()) <= 6,
            max_rounds=200,
            check_every=3,
        )

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    assert reference.rounds_executed == candidate.rounds_executed
    assert reference.discrepancy_history == candidate.discrepancy_history


# -- scripted churn and staggered early stopping -----------------------
#
# Hand-placed topology events whose timing matters: an edge dropped and
# restored on both sides of a cycle, and a node that leaves and rejoins
# while its neighbours still hold rotor state for it.


def _final(graph, engine, *, algorithm="rotor_router", rounds=40,
           topology=None, seed=31):
    return Simulator(
        graph,
        make(algorithm),
        _initial(graph, seed=seed),
        topology=topology,
        engine=engine,
    ).run(rounds).final_loads


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_parity_scripted_edge_drop_and_restore(engine):
    # Drop edges (7, 8) and (15, 0) of a 16-cycle, then restore them:
    # each repair rewrites two adjacency rows and both rotors' ports.
    graph = families.cycle(16)
    spec = TopologySpec(
        "scripted",
        {
            "events": [
                ["drop", 4, 7, 8],
                ["drop", 4, 15, 0],
                ["add", 11, 7, 8],
                ["add", 14, 15, 0],
            ]
        },
    )
    for algorithm in ("rotor_router", "send_floor"):
        reference = _final(
            graph, "dense", algorithm=algorithm, topology=spec
        )
        candidate = _final(
            graph, engine, algorithm=algorithm, topology=spec
        )
        np.testing.assert_array_equal(reference, candidate)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_parity_scripted_node_leave_and_rejoin(engine):
    # A leaving node hands its load to its neighbours; on rejoin its
    # edges are re-created on both endpoints.
    graph = families.cycle(16)
    spec = TopologySpec(
        "scripted",
        {
            "events": [
                ["leave", 3, 8],
                ["leave", 6, 0],
                ["join", 9, 8, [7, 9]],
                ["join", 12, 0, [15, 1]],
            ]
        },
    )
    for algorithm in ("rotor_router", "send_floor"):
        reference = _final(
            graph, "dense", algorithm=algorithm, topology=spec
        )
        candidate = _final(
            graph, engine, algorithm=algorithm, topology=spec
        )
        np.testing.assert_array_equal(reference, candidate)


@pytest.mark.parametrize("engine", ALL_ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parity_node_join_leave_schedule(family, engine):
    graph = FAMILIES[family]()
    spec = TopologySpec(
        "node_join_leave",
        {"rate": 0.08, "rejoin_after": 3, "seed": 5},
    )
    for algorithm in _algorithms(engine):
        reference = _final(
            graph, "dense", algorithm=algorithm, topology=spec,
            rounds=30,
        )
        candidate = _final(
            graph, engine, algorithm=algorithm, topology=spec,
            rounds=30,
        )
        np.testing.assert_array_equal(reference, candidate)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_batched_run_until_staggered_thresholds_parity(engine):
    # Staggered thresholds freeze replicas at different rounds, so the
    # engine sees a shrinking set of live replicas.
    graph = families.cycle(18)
    replicas = 3
    initial = _initial(graph, replicas, seed=11)
    thresholds = [2, 6, 40]

    def run(backend):
        return BatchRunner(
            graph,
            [make("rotor_router") for _ in range(replicas)],
            initial,
            engine=backend,
        ).run_until(
            [
                (lambda t: lambda v: int(v.max() - v.min()) <= t)(t)
                for t in thresholds
            ],
            max_rounds=120,
            check_every=2,
        )

    reference, candidate = run("dense"), run(engine)
    np.testing.assert_array_equal(
        reference.final_loads, candidate.final_loads
    )
    np.testing.assert_array_equal(
        reference.rounds_executed, candidate.rounds_executed
    )
    np.testing.assert_array_equal(
        reference.stopped_early, candidate.stopped_early
    )
    assert reference.histories == candidate.histories
