"""Unit tests for the round executor's semantics and guards."""

import numpy as np
import pytest

from repro.algorithms import RotorRouter, SendFloor
from repro.core.balancer import Balancer
from repro.core.engine import Simulator, simulate
from repro.core.errors import (
    ConservationError,
    InvalidSendMatrix,
    NegativeLoadError,
)
from repro.engines import ENGINES, register_engine
from repro.engines.builtin import DenseEngine
from repro.graphs import families
from repro.scenarios.batch import BatchRunner


class SendNothing(Balancer):
    """Keeps everything — identity dynamics."""

    name = "send_nothing"

    def sends(self, loads, t):
        graph = self.graph
        return np.zeros(
            (graph.num_nodes, graph.total_degree), dtype=np.int64
        )


class SendOneForward(Balancer):
    """Every node pushes one token over port 0 (if it has one)."""

    name = "send_one_forward"

    def sends(self, loads, t):
        graph = self.graph
        sends = np.zeros(
            (graph.num_nodes, graph.total_degree), dtype=np.int64
        )
        sends[:, 0] = np.minimum(loads, 1)
        return sends


class Overdraw(Balancer):
    name = "overdraw"

    def sends(self, loads, t):
        graph = self.graph
        return np.full(
            (graph.num_nodes, graph.total_degree), 10, dtype=np.int64
        )


class BadShape(Balancer):
    name = "bad_shape"

    def sends(self, loads, t):
        return np.zeros((1, 1), dtype=np.int64)


class NegativeSend(Balancer):
    name = "negative_send"

    def sends(self, loads, t):
        graph = self.graph
        sends = np.zeros(
            (graph.num_nodes, graph.total_degree), dtype=np.int64
        )
        sends[0, 0] = -1
        return sends


class FloatSend(Balancer):
    name = "float_send"

    def sends(self, loads, t):
        graph = self.graph
        return np.zeros(
            (graph.num_nodes, graph.total_degree), dtype=np.float64
        )


class TestRoundSemantics:
    def test_identity_dynamics(self, cycle12):
        loads = np.arange(12, dtype=np.int64)
        simulator = Simulator(cycle12, SendNothing(), loads)
        after = simulator.step()
        np.testing.assert_array_equal(after, loads)

    def test_one_token_rotation(self):
        # Port 0 of node 0 points to its smallest neighbor (node 1).
        graph = families.cycle(5, num_self_loops=1)
        loads = np.array([1, 0, 0, 0, 0], dtype=np.int64)
        simulator = Simulator(graph, SendOneForward(), loads)
        after = simulator.step()
        assert after.sum() == 1
        assert after[graph.port_target(0, 0)] == 1

    def test_self_loop_tokens_return(self):
        graph = families.cycle(4, num_self_loops=2)

        class SelfLoopOnly(Balancer):
            name = "self_loop_only"

            def sends(self, loads, t):
                sends = np.zeros((4, 4), dtype=np.int64)
                sends[:, 2] = loads  # everything onto the first loop
                return sends

        loads = np.array([3, 1, 4, 1], dtype=np.int64)
        simulator = Simulator(graph, SelfLoopOnly(), loads)
        after = simulator.step()
        np.testing.assert_array_equal(after, loads)

    def test_round_counter_starts_at_one(self, cycle12):
        simulator = Simulator(
            cycle12, SendNothing(), np.zeros(12, dtype=np.int64)
        )
        assert simulator.round == 1
        simulator.step()
        assert simulator.round == 2

    def test_conservation_across_run(self, expander24):
        loads = np.arange(24, dtype=np.int64) * 3
        result = simulate(expander24, RotorRouter(), loads, 50)
        assert result.final_loads.sum() == loads.sum()

    def test_history_recording(self, expander24):
        loads = np.zeros(24, dtype=np.int64)
        loads[0] = 240
        simulator = Simulator(expander24, SendFloor(), loads)
        simulator.run(10)
        assert len(simulator.discrepancy_history) == 11
        assert simulator.discrepancy_history[0] == 240

    def test_history_disabled(self, expander24):
        simulator = Simulator(
            expander24,
            SendFloor(),
            np.ones(24, dtype=np.int64),
            record_history=False,
        )
        simulator.run(5)
        assert simulator.discrepancy_history == []


def _simulator(graph, balancer_type, loads, **kwargs):
    return Simulator(graph, balancer_type(), loads, **kwargs)


def _batch(replicas):
    def build(graph, balancer_type, loads, **kwargs):
        return BatchRunner(
            graph,
            [balancer_type() for _ in range(replicas)],
            np.tile(loads, (replicas, 1)),
            **kwargs,
        )

    return build


#: Every way to drive the round executor: the single-run view, and a
#: stack of one and of three replicas.  Guards must fire identically.
ENTRY_POINTS = {
    "simulator": _simulator,
    "batch_1": _batch(1),
    "batch_3": _batch(3),
}


@pytest.fixture(params=sorted(ENTRY_POINTS))
def build(request):
    return ENTRY_POINTS[request.param]


@pytest.fixture
def leaky_engine():
    """A dense backend that invents one token per round."""

    @register_engine
    class LeakyEngine(DenseEngine):
        name = "leaky_test"

        def incoming(self, graph, sends):
            incoming = super().incoming(graph, sends)
            incoming[..., 0] += 1
            return incoming

    yield LeakyEngine.name
    ENGINES.remove(LeakyEngine.name)


class TestGuards:
    def test_overdraw_raises(self, cycle12, build):
        runner = build(cycle12, Overdraw, np.ones(12, dtype=np.int64))
        with pytest.raises(NegativeLoadError, match="sent"):
            runner.step()

    def test_overdraw_allowed_when_declared(self, cycle12):
        balancer = Overdraw()
        balancer.allows_negative = True
        simulator = Simulator(
            cycle12, balancer, np.ones(12, dtype=np.int64)
        )
        after = simulator.step()
        assert after.sum() == 12  # still conserved

    def test_bad_shape_raises(self, cycle12, build):
        runner = build(cycle12, BadShape, np.ones(12, dtype=np.int64))
        with pytest.raises(InvalidSendMatrix, match="shape"):
            runner.step()

    def test_negative_send_raises(self, cycle12, build):
        runner = build(cycle12, NegativeSend, np.ones(12, dtype=np.int64))
        with pytest.raises(InvalidSendMatrix, match="negative"):
            runner.step()

    def test_float_send_raises(self, cycle12, build):
        runner = build(cycle12, FloatSend, np.ones(12, dtype=np.int64))
        with pytest.raises(InvalidSendMatrix, match="integer"):
            runner.step()

    def test_wrong_load_length(self, cycle12, build):
        with pytest.raises(InvalidSendMatrix, match="entries"):
            build(cycle12, SendNothing, np.ones(5, dtype=np.int64))

    def test_conservation_violation_raises(
        self, cycle12, build, leaky_engine
    ):
        runner = build(
            cycle12,
            SendOneForward,
            np.ones(12, dtype=np.int64),
            engine=leaky_engine,
        )
        with pytest.raises(ConservationError, match="token count"):
            runner.step()


class TestRunUntil:
    def test_run_to_discrepancy(self, expander24):
        loads = np.zeros(24, dtype=np.int64)
        loads[0] = 2400
        simulator = Simulator(expander24, RotorRouter(), loads)
        result = simulator.run_to_discrepancy(10, max_rounds=5000)
        assert result.stopped_early
        assert result.final_discrepancy <= 10

    def test_record_matches_run_until_result(self):
        loads = np.zeros(16, dtype=np.int64)
        loads[0] = 1600
        simulator = Simulator(families.cycle(16), RotorRouter(), loads)
        result = simulator.run_to_discrepancy(4, 500)
        assert result.record.stopped_early
        assert simulator.record().to_dict() == result.record.to_dict()
        # A later fixed-round run is not an early stop.
        result = simulator.run(3)
        assert not simulator.record().stopped_early
        assert simulator.record().to_dict() == result.record.to_dict()

    def test_run_until_immediate(self, expander24):
        simulator = Simulator(
            expander24, SendFloor(), np.ones(24, dtype=np.int64)
        )
        result = simulator.run_until(lambda x: True, max_rounds=10)
        assert result.rounds_executed == 0
        assert result.stopped_early

    def test_run_until_budget_exhausted(self, expander24):
        simulator = Simulator(
            expander24, SendNothing(), np.ones(24, dtype=np.int64)
        )
        result = simulator.run_until(lambda x: False, max_rounds=7)
        assert result.rounds_executed == 7
        assert not result.stopped_early

    def test_result_summary(self, expander24):
        result = simulate(
            expander24, SendFloor(), np.ones(24, dtype=np.int64), 3
        )
        summary = result.summary()
        assert summary["rounds"] == 3
        assert summary["final_discrepancy"] == 0


class TestCumulativeRoundsReporting:
    """`rounds_executed` is cumulative across run/run_until calls."""

    def test_run_after_run_accumulates(self, expander24):
        simulator = Simulator(
            expander24, SendFloor(), np.full(24, 5, dtype=np.int64)
        )
        simulator.run(4)
        result = simulator.run(3)
        assert result.rounds_executed == 7

    def test_run_until_early_return_is_cumulative(self, expander24):
        simulator = Simulator(
            expander24, SendFloor(), np.full(24, 5, dtype=np.int64)
        )
        simulator.run(4)
        result = simulator.run_until(lambda loads: True, max_rounds=10)
        assert result.stopped_early
        assert result.rounds_executed == 4

    def test_run_until_counts_all_rounds(self, expander24):
        simulator = Simulator(
            expander24, SendFloor(), np.full(24, 5, dtype=np.int64)
        )
        simulator.run(2)
        result = simulator.run_until(lambda loads: False, max_rounds=3)
        assert result.rounds_executed == 5
        assert not result.stopped_early
