"""Stack-vs-looped parity: the core guarantee of the vectorized runner.

The property test runs a scenario as its one replica stack and as one
looped :class:`~repro.core.engine.Simulator` per replica (same seeds,
same graph) and requires identical trajectories and records replica
for replica — across deterministic stateless schemes (one shared
balancer), stateful rotor-routers, randomized baselines and
sends-consuming probes (one balancer per replica).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InvalidLoadVector
from repro.scenarios import (
    AlgorithmSpec,
    BatchRunner,
    GraphSpec,
    LoadSpec,
    ProbeSpec,
    Scenario,
    StopRule,
)
from tests.helpers import assert_same_results, run_per_replica

PARITY_ALGORITHMS = (
    "send_floor",
    "send_rounded",
    "rotor_router",
    "rotor_router_star",
    "arbitrary_rounding_fixed",
    "arbitrary_rounding_random",
    "randomized_extra_tokens",
    "randomized_edge_rounding",
)


def assert_parity(scenario: Scenario, graph=None) -> None:
    looped = run_per_replica(scenario, graph=graph)
    batched = scenario.run(graph=graph)
    for left, right in zip(looped.results, batched.results):
        np.testing.assert_array_equal(left.initial_loads, right.initial_loads)
    assert_same_results(looped, batched)


@settings(max_examples=20, deadline=None)
@given(
    algorithm=st.sampled_from(PARITY_ALGORITHMS),
    n=st.integers(min_value=8, max_value=24),
    degree=st.sampled_from([2, 4]),
    tokens_per_node=st.integers(min_value=1, max_value=50),
    replicas=st.integers(min_value=1, max_value=5),
    rounds=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_batch_matches_loop(
    algorithm, n, degree, tokens_per_node, replicas, rounds, seed
):
    if n * degree % 2:
        n += 1
    scenario = Scenario(
        graph=GraphSpec(
            "random_regular", {"n": n, "degree": degree, "seed": 1}
        ),
        algorithm=AlgorithmSpec(algorithm, seed=seed),
        loads=LoadSpec(
            "uniform_random",
            {"total_tokens": tokens_per_node * n, "seed": seed + 1},
        ),
        stop=StopRule.fixed(rounds),
        replicas=replicas,
    )
    assert_parity(scenario)


@pytest.mark.parametrize("algorithm", ["rotor_router", "send_rounded"])
def test_parity_under_target_stop_rule(algorithm):
    scenario = Scenario(
        graph=GraphSpec("cycle", {"n": 17}),
        algorithm=AlgorithmSpec(algorithm),
        loads=LoadSpec("point_mass", {"tokens": 850}),
        stop=StopRule.discrepancy(target=10, max_rounds=600, check_every=2),
        replicas=3,
    )
    assert_parity(scenario)


def test_parity_under_converged_stop_rule():
    scenario = Scenario(
        graph=GraphSpec("complete", {"n": 10}),
        algorithm=AlgorithmSpec("send_floor"),
        loads=LoadSpec("linear_gradient", {"step": 3}),
        stop=StopRule.converged(max_rounds=200, window=6),
        replicas=2,
    )
    assert_parity(scenario)


def _staggered_sends_scenario(engine: str) -> Scenario:
    return Scenario(
        graph=GraphSpec("cycle", {"n": 16}),
        algorithm=AlgorithmSpec("send_floor"),
        loads=LoadSpec("uniform_random", {"total_tokens": 800, "seed": 4}),
        stop=StopRule.discrepancy(target=3, max_rounds=200),
        replicas=4,
        probes=(
            ProbeSpec("flows"),
            ProbeSpec("fairness"),
            ProbeSpec("cumulative_fairness"),
        ),
        engine=engine,
    )


@pytest.mark.parametrize("engine", ["dense", "structured"])
def test_sends_probes_under_staggered_stops(engine):
    """Replicas that stop at different rounds keep feeding their sends
    probes the right round; frozen rows are never observed."""
    scenario = _staggered_sends_scenario(engine)
    batched = scenario.run()
    assert len({r.rounds_executed for r in batched.results}) > 1
    assert all(r.stopped_early for r in batched.results)
    assert_same_results(run_per_replica(scenario), batched)


@pytest.mark.parametrize("engine", ["dense", "structured"])
def test_runner_with_per_replica_balancers_carries_sends_probes(engine):
    scenario = _staggered_sends_scenario(engine)
    graph = scenario.build_graph()
    replicas = range(scenario.replicas)
    runner = BatchRunner(
        graph,
        [scenario.build_balancer(r) for r in replicas],
        np.stack([scenario.build_loads(graph, r) for r in replicas]),
        probes=[scenario.build_probe_set() for _ in replicas],
        engine=engine,
    )
    stop = scenario.stop
    batch = runner.run_until(
        [stop.predicate() for _ in replicas], stop.max_rounds
    )
    assert [record.to_dict() for record in batch.records] == [
        record.to_dict() for record in run_per_replica(scenario).records
    ]


def test_parity_with_distinct_replica_workloads():
    scenario = Scenario(
        graph=GraphSpec("random_regular", {"n": 16, "degree": 4, "seed": 2}),
        algorithm=AlgorithmSpec("randomized_edge_rounding", seed=9),
        loads=LoadSpec("skewed", {"total_tokens": 800, "seed": 11}),
        stop=StopRule.fixed(25),
        replicas=4,
    )
    assert_parity(scenario)


class TestBatchRunnerDirect:
    def test_rejects_1d_loads(self, expander24):
        from repro.algorithms import SendFloor

        with pytest.raises(InvalidLoadVector, match="replicas"):
            BatchRunner(
                expander24, SendFloor(), np.ones(24, dtype=np.int64)
            )

    def test_rejects_balancer_count_mismatch(self, expander24):
        from repro.algorithms import RotorRouter

        with pytest.raises(ValueError, match="balancers"):
            BatchRunner(
                expander24,
                [RotorRouter(), RotorRouter(), RotorRouter()],
                np.ones((2, 24), dtype=np.int64),
            )

    def test_rejects_sharing_stateful_balancer(self, expander24):
        from repro.algorithms import RotorRouter

        with pytest.raises(ValueError, match="shared"):
            BatchRunner(
                expander24,
                RotorRouter(),
                np.ones((2, 24), dtype=np.int64),
            )

    def test_shared_stateless_balancer_runs_vectorized(self, expander24):
        from repro.algorithms import SendFloor

        initial = np.tile(
            np.arange(24, dtype=np.int64) * 4, (3, 1)
        )
        runner = BatchRunner(expander24, SendFloor(), initial)
        result = runner.run(10)
        assert len(result) == 3
        np.testing.assert_array_equal(
            result.final_loads.sum(axis=1), initial.sum(axis=1)
        )
        # Identical replicas stay identical under a deterministic rule.
        np.testing.assert_array_equal(
            result.final_loads[0], result.final_loads[2]
        )

    def test_histories_include_initial_discrepancy(self, expander24):
        from repro.algorithms import SendFloor

        initial = np.zeros((2, 24), dtype=np.int64)
        initial[:, 0] = 240
        runner = BatchRunner(expander24, SendFloor(), initial)
        result = runner.run(5)
        for history in result.histories:
            assert history[0] == 240
            assert len(history) == 6


class TestVectorizedLoadValidation:
    """BatchRunner validates the whole (replicas, n) stack in one pass."""

    def test_rejects_fractional_loads_naming_replica(self, expander24):
        from repro.algorithms import SendFloor

        initial = np.ones((3, 24))
        initial[1, 5] = 0.5
        with pytest.raises(InvalidLoadVector, match="replica 1"):
            BatchRunner(expander24, SendFloor(), initial)

    def test_rejects_negative_loads_naming_replica(self, expander24):
        from repro.algorithms import SendFloor

        initial = np.ones((3, 24), dtype=np.int64)
        initial[2, 0] = -1
        with pytest.raises(InvalidLoadVector, match="replica 2"):
            BatchRunner(expander24, SendFloor(), initial)

    def test_accepts_integral_floats(self, expander24):
        from repro.algorithms import SendFloor

        initial = np.full((2, 24), 3.0)
        runner = BatchRunner(expander24, SendFloor(), initial)
        assert runner.initial_loads.dtype == np.int64

    def test_rejects_empty_batch(self, expander24):
        from repro.algorithms import SendFloor

        with pytest.raises(InvalidLoadVector, match="non-empty"):
            BatchRunner(
                expander24,
                SendFloor(),
                np.empty((0, 24), dtype=np.int64),
            )


class TestBatchEngineSelection:
    def test_auto_prefers_structured(self, expander24):
        from repro.algorithms import SendFloor

        runner = BatchRunner(
            expander24, SendFloor(), np.ones((2, 24), dtype=np.int64)
        )
        assert runner.engine == "structured"

    def test_auto_falls_back_to_dense(self, expander24):
        from repro.algorithms.mimicking import ContinuousMimicking

        runner = BatchRunner(
            expander24,
            [ContinuousMimicking(), ContinuousMimicking()],
            np.ones((2, 24), dtype=np.int64),
        )
        assert runner.engine == "dense"

    def test_structured_requires_support(self, expander24):
        from repro.algorithms.mimicking import ContinuousMimicking

        with pytest.raises(ValueError, match="structured"):
            BatchRunner(
                expander24,
                [ContinuousMimicking(), ContinuousMimicking()],
                np.ones((2, 24), dtype=np.int64),
                engine="structured",
            )


class TestBatchProbes:
    @staticmethod
    def _floor():
        from repro.algorithms import SendFloor

        return SendFloor()

    def test_sends_probe_rejected(self, expander24):
        from repro.core.flows import FlowTracker

        with pytest.raises(ValueError, match="one balancer per replica"):
            BatchRunner(
                expander24,
                self._floor(),
                np.ones((2, 24), dtype=np.int64),
                probes=[(FlowTracker(),), (FlowTracker(),)],
            )

    def test_probe_set_count_must_match_replicas(self, expander24):
        from repro.core.monitors import LoadBoundsMonitor

        with pytest.raises(ValueError, match="probe sets"):
            BatchRunner(
                expander24,
                [self._floor(), self._floor()],
                np.ones((2, 24), dtype=np.int64),
                probes=[(LoadBoundsMonitor(),)],
            )

    def test_records_include_probe_summaries(self, expander24):
        from repro.core.monitors import LoadBoundsMonitor

        loads = np.zeros((2, 24), dtype=np.int64)
        loads[:, 0] = 240
        runner = BatchRunner(
            expander24,
            self._floor(),
            loads,
            probes=[(LoadBoundsMonitor(),), (LoadBoundsMonitor(),)],
        )
        batch = runner.run(10)
        assert len(batch.records) == 2
        for record in batch.records:
            assert record.summary["min_load"] == 0
            assert record.summary["max_load"] == 240
        assert batch.replica(0).record is batch.records[0]


def _after(checks):
    """A predicate that holds from its ``checks``-th evaluation on."""
    calls = iter(range(10**9))
    return lambda loads: next(calls) >= checks


class TestAcrossCalls:
    """Later calls pick up where run_until left off, per replica."""

    @pytest.mark.parametrize("axis", ["dynamics", "faults"])
    def test_stack_freezing_is_permanent(self, expander24, axis):
        from repro.algorithms import SendFloor
        from repro.core.engine import Simulator
        from repro.dynamics import DynamicsSpec
        from repro.faults.spec import FaultSpec

        spec = {
            "dynamics": DynamicsSpec("constant_rate", {"rate": 6, "seed": 2}),
            "faults": FaultSpec("message_drop", {"rate": 0.1, "seed": 10}),
        }[axis]
        initial = np.random.default_rng(4).integers(0, 200, (2, 24))
        runner = BatchRunner(
            expander24, SendFloor(), initial, **{axis: spec}
        )
        runner.run_until([_after(5), _after(10**9)], max_rounds=12)
        batch = runner.run(7)
        frozen = Simulator(
            expander24, SendFloor(), initial[0], **{axis: spec.build(0)}
        ).run_until(_after(5), max_rounds=12)
        live = Simulator(
            expander24, SendFloor(), initial[1], **{axis: spec.build(1)}
        )
        live.run_until(_after(10**9), max_rounds=12)
        resumed = live.run(7)
        np.testing.assert_array_equal(batch.final_loads[0], frozen.final_loads)
        np.testing.assert_array_equal(batch.final_loads[1], resumed.final_loads)
        assert batch.histories == [
            frozen.discrepancy_history, resumed.discrepancy_history
        ]
        assert batch.rounds_executed.tolist() == [5, 19]
        assert batch.stopped_early.tolist() == [True, False]
        assert batch.records[1].summary == resumed.record.summary

    def test_simulator_resumes_after_satisfied_run_until(self, expander24):
        from repro.algorithms import SendFloor
        from repro.core.engine import Simulator
        from repro.dynamics import DynamicsSpec

        spec = DynamicsSpec("constant_rate", {"rate": 6, "seed": 2})
        initial = np.random.default_rng(4).integers(0, 200, 24)
        sim = Simulator(expander24, SendFloor(), initial, dynamics=spec)
        assert sim.run_until(_after(5), max_rounds=12).stopped_early
        later = sim.run(7)
        straight = Simulator(
            expander24, SendFloor(), initial, dynamics=spec
        ).run(12)
        assert not later.stopped_early and sim.round == 13
        np.testing.assert_array_equal(later.final_loads, straight.final_loads)
        assert later.discrepancy_history == straight.discrepancy_history
        assert later.record.summary == straight.record.summary

    def test_attach_rejected_on_stack(self, expander24):
        from repro.algorithms import SendFloor
        from repro.core.monitors import LoadBoundsMonitor

        runner = BatchRunner(
            expander24, SendFloor(), np.ones((2, 24), dtype=np.int64)
        )
        with pytest.raises(ValueError, match="single-replica"):
            runner.attach(LoadBoundsMonitor())

    @pytest.mark.parametrize("axis", ["dynamics", "faults", "topology"])
    def test_bad_schedule_value_is_type_error(self, expander24, axis):
        from repro.algorithms import SendFloor
        from repro.core.engine import Simulator

        with pytest.raises(TypeError, match="cannot interpret"):
            Simulator(
                expander24, SendFloor(), np.ones(24, dtype=np.int64),
                **{axis: 5},
            )
