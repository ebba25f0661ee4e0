"""Property tests: structured execution is bit-identical to dense.

The structured engine (compact rounds, matrix-free gathers) must
reproduce the dense engine's trajectories exactly — same loads after
every round, same discrepancy history — for every structured balancer,
across graph families, load shapes, self-loop counts, looped and
batched execution.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.core.structured import ShiftDivider, divider
from repro.graphs import families
from repro.graphs.datacenter import fat_tree
from repro.scenarios.batch import BatchRunner
from tests.helpers import balancing_graphs, load_vectors

STRUCTURED_ALGORITHMS = ["send_floor", "send_rounded", "rotor_router"]


def _graph_for(name):
    return {
        "cycle": lambda: families.cycle(15),
        "torus": lambda: families.torus(4, 2),
        "hypercube": lambda: families.hypercube(4),
        "random_regular": lambda: families.random_regular(20, 4, seed=9),
    }[name]()


@pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
@pytest.mark.parametrize(
    "family", ["cycle", "torus", "hypercube", "random_regular"]
)
def test_looped_parity_across_families(algorithm, family):
    """Seeded sweep: identical trajectories on every standard family."""
    graph = _graph_for(family)
    rng = np.random.default_rng(42)
    loads = rng.integers(0, 300, graph.num_nodes).astype(np.int64)
    dense = Simulator(graph, make(algorithm), loads, engine="dense").run(
        80
    )
    structured = Simulator(
        graph, make(algorithm), loads, engine="structured"
    ).run(80)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.discrepancy_history == structured.discrepancy_history


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_looped_parity_random_graphs(data):
    """Hypothesis: random graph × d° × loads × algorithm, full parity."""
    graph = data.draw(balancing_graphs())
    algorithm = data.draw(st.sampled_from(STRUCTURED_ALGORITHMS))
    if (
        algorithm == "send_rounded"
        and graph.total_degree < 2 * graph.degree
    ):
        algorithm = "send_floor"
    loads = data.draw(load_vectors(graph.num_nodes))
    rounds = data.draw(st.integers(1, 25))
    dense = Simulator(
        graph, make(algorithm), loads, engine="dense"
    ).run(rounds)
    structured = Simulator(
        graph, make(algorithm), loads, engine="structured"
    ).run(rounds)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.discrepancy_history == structured.discrepancy_history


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batched_parity_stateless(data):
    """Hypothesis: shared stateless balancer over a replica batch."""
    graph = data.draw(balancing_graphs(max_self_loops=4))
    algorithm = data.draw(st.sampled_from(["send_floor", "send_rounded"]))
    if (
        algorithm == "send_rounded"
        and graph.total_degree < 2 * graph.degree
    ):
        algorithm = "send_floor"
    replicas = data.draw(st.integers(1, 5))
    initial = np.stack(
        [
            data.draw(load_vectors(graph.num_nodes))
            for _ in range(replicas)
        ]
    )
    rounds = data.draw(st.integers(1, 15))
    dense = BatchRunner(
        graph, make(algorithm), initial, engine="dense"
    ).run(rounds)
    structured = BatchRunner(
        graph, make(algorithm), initial, engine="structured"
    ).run(rounds)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.histories == structured.histories


@pytest.mark.parametrize(
    "family", ["cycle", "torus", "hypercube", "random_regular"]
)
def test_batched_parity_stateful_rotors(family):
    """Per-replica rotor instances: structured batch matches dense."""
    graph = _graph_for(family)
    rng = np.random.default_rng(3)
    replicas = 6
    initial = rng.integers(0, 400, (replicas, graph.num_nodes)).astype(
        np.int64
    )
    dense = BatchRunner(
        graph,
        [make("rotor_router") for _ in range(replicas)],
        initial,
        engine="dense",
    ).run(40)
    structured = BatchRunner(
        graph,
        [make("rotor_router") for _ in range(replicas)],
        initial,
        engine="structured",
    ).run(40)
    np.testing.assert_array_equal(
        dense.final_loads, structured.final_loads
    )
    assert dense.histories == structured.histories


@pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
def test_batched_run_until_parity(algorithm):
    """Early-stopping batches freeze replicas identically per engine."""
    graph = families.cycle(15)
    rng = np.random.default_rng(11)
    replicas = 4
    initial = rng.integers(0, 300, (replicas, graph.num_nodes)).astype(
        np.int64
    )

    def balancers():
        if algorithm == "rotor_router":
            return [make(algorithm) for _ in range(replicas)]
        return make(algorithm)

    def predicates():
        return [
            lambda loads: int(loads.max() - loads.min()) <= 12
            for _ in range(replicas)
        ]

    dense = BatchRunner(
        graph, balancers(), initial, engine="dense"
    ).run_until(predicates(), max_rounds=300, check_every=2)
    structured = BatchRunner(
        graph, balancers(), initial, engine="structured"
    ).run_until(predicates(), max_rounds=300, check_every=2)
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


def test_simulator_matches_batch_structured():
    """Triangle parity: looped dense == looped structured == batch."""
    graph = families.torus(4, 2)
    rng = np.random.default_rng(21)
    replicas = 5
    initial = rng.integers(0, 500, (replicas, graph.num_nodes)).astype(
        np.int64
    )
    batch = BatchRunner(
        graph, make("send_floor"), initial, engine="structured"
    ).run(60)
    for replica in range(replicas):
        looped = Simulator(
            graph, make("send_floor"), initial[replica], engine="dense"
        ).run(60)
        np.testing.assert_array_equal(
            batch.final_loads[replica], looped.final_loads
        )
        assert batch.histories[replica] == looped.discrepancy_history


INT64 = np.iinfo(np.int64)
DIVISORS = [2, 3, 4, 6, 8, 16, 64]


def _edge_values(divisor):
    """Around zero, around the divisor, and the far ends of int64."""
    values = [0, 1, -1, divisor - 1, divisor, divisor + 1, -divisor,
              -divisor - 1, 2**40 + 7, -(2**40) - 7, 2**62, -(2**62),
              INT64.max, INT64.min, INT64.max - divisor,
              INT64.min + divisor]
    return np.array(values, dtype=np.int64)


@pytest.mark.parametrize("divisor", DIVISORS)
@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.integers(int(INT64.min), int(INT64.max)), min_size=1,
        max_size=40,
    )
)
def test_divider_matches_numpy_divmod(divisor, values):
    """Shift/mask (powers of two) and // alike equal np.divmod."""
    x = np.concatenate(
        [_edge_values(divisor), np.array(values, dtype=np.int64)]
    )
    split = divider(divisor)
    expected_q, expected_r = np.divmod(x, divisor)
    quotient, rest = split.divmod(x)
    np.testing.assert_array_equal(quotient, expected_q)
    np.testing.assert_array_equal(rest, expected_r)
    assert quotient.dtype == rest.dtype == np.int64
    np.testing.assert_array_equal(split.floor(x), expected_q)
    assert isinstance(split, ShiftDivider) == (divisor in (2, 4, 8, 16, 64))
    # Bound balancers hold one; it must survive a pickle round trip.
    clone = pickle.loads(pickle.dumps(split))
    np.testing.assert_array_equal(clone.divmod(x)[1], expected_r)
    # wrap: in place, for one turn's worth of overshoot.
    turn = np.arange(2 * divisor, dtype=np.int64)
    wrapped = turn.copy()
    assert split.wrap(wrapped) is wrapped
    np.testing.assert_array_equal(wrapped, turn % divisor)


def test_divider_rejects_nonpositive_divisors():
    for divisor in (0, -4):
        with pytest.raises(ValueError, match="positive"):
            divider(divisor)


PARITY_GRAPHS = {
    "cycle_loops1": lambda: families.cycle(16, num_self_loops=1),
    "cycle_loops2": lambda: families.cycle(16, num_self_loops=2),
    "cycle_loops3": lambda: families.cycle(16, num_self_loops=3),
    "cycle_loops4": lambda: families.cycle(16, num_self_loops=4),
    "hypercube": lambda: families.hypercube(4),
    "fat_tree": lambda: fat_tree(4),
}


@pytest.mark.parametrize(
    "algorithm, name",
    [
        (algorithm, name)
        for name in sorted(PARITY_GRAPHS)
        for algorithm in STRUCTURED_ALGORITHMS
        # SEND([x/d+]) needs d+ >= 2d.
        if (algorithm, name) != ("send_rounded", "cycle_loops1")
    ],
)
def test_structured_to_dense_and_dense_engine_agree(algorithm, name):
    """Per round: the compact round expands to the dense rule's sends,
    its remainder is the dense one, and the structured engine's loads
    equal the dense engine's, over d+ = 3, 4, 5, 6, 8 (shift and
    ``//``) and a padded fabric."""
    graph = PARITY_GRAPHS[name]()
    rng = np.random.default_rng(5)
    loads = rng.integers(0, 10 * graph.total_degree, graph.num_nodes)
    twin = make(algorithm).bind(graph)
    balancer = make(algorithm).bind(graph)
    dense_run = Simulator(graph, make(algorithm), loads, engine="dense")
    structured_run = Simulator(
        graph, make(algorithm), loads, engine="structured"
    )
    for t in range(1, 25):
        compact = balancer.sends_structured(loads, t)
        sends = twin.sends(loads, t)
        np.testing.assert_array_equal(compact.to_dense(graph), sends)
        np.testing.assert_array_equal(
            compact.remainder(graph, loads), loads - sends.sum(axis=1)
        )
        loads = compact.apply(graph, loads)
        np.testing.assert_array_equal(loads, dense_run.step())
        np.testing.assert_array_equal(loads, structured_run.step())
