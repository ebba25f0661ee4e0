"""Unit tests for the structured-sends protocol and engines."""

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.algorithms.rotor_router import RotorRouter
from repro.algorithms.send_floor import SendFloor
from repro.core.engine import Simulator
from repro.core.errors import InvalidSendMatrix, NegativeLoadError
from repro.core.structured import StructuredRound
from repro.graphs import families

STRUCTURED_ALGORITHMS = ["send_floor", "send_rounded", "rotor_router"]


def _loads_for(graph, seed=7, high=200):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, graph.num_nodes).astype(np.int64)


class TestToDenseParity:
    """sends_structured().to_dense() == sends(), bit for bit, per round."""

    @pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
    def test_multi_round_parity(self, expander24, algorithm):
        dense_balancer = make(algorithm).bind(expander24)
        structured_balancer = make(algorithm).bind(expander24)
        loads = _loads_for(expander24)
        for t in range(1, 8):
            dense = dense_balancer.sends(loads, t)
            compact = structured_balancer.sends_structured(loads, t)
            np.testing.assert_array_equal(
                compact.to_dense(expander24), dense
            )
            # Advance via an independent simulator so both balancers
            # see the same trajectory.
            loads = Simulator(
                expander24, make(algorithm), loads, engine="dense"
            ).step()

    def test_no_self_loops_floor(self):
        graph = families.cycle(9, num_self_loops=0)
        balancer = make("send_floor").bind(graph)
        loads = _loads_for(graph)
        compact = balancer.sends_structured(loads, 1)
        assert compact.loop_base is None
        assert compact.window is None
        np.testing.assert_array_equal(
            compact.to_dense(graph), balancer.sends(loads, 1)
        )
        # The excess x mod d+ stays put as the remainder.
        remainder = compact.remainder(graph, loads)
        np.testing.assert_array_equal(remainder, loads % graph.degree)

    def test_rotor_custom_orders_and_rotors(self):
        graph = families.cycle(12)
        rng = np.random.default_rng(5)
        orders = np.stack(
            [rng.permutation(graph.total_degree) for _ in range(12)]
        )
        rotors = rng.integers(0, graph.total_degree, 12)
        dense_balancer = RotorRouter(orders, rotors).bind(graph)
        structured_balancer = RotorRouter(orders, rotors).bind(graph)
        loads = _loads_for(graph)
        dense = dense_balancer.sends(loads, 1)
        compact = structured_balancer.sends_structured(loads, 1)
        np.testing.assert_array_equal(compact.to_dense(graph), dense)
        np.testing.assert_array_equal(
            dense_balancer.rotors, structured_balancer.rotors
        )


class TestRemainder:
    @pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
    def test_matches_dense_remainder(self, torus9, algorithm):
        balancer = make(algorithm).bind(torus9)
        loads = _loads_for(torus9)
        compact = balancer.sends_structured(loads, 1)
        dense = compact.to_dense(torus9)
        np.testing.assert_array_equal(
            compact.remainder(torus9, loads),
            loads - dense.sum(axis=1),
        )

    def test_outflow_and_kept_split(self, cycle12):
        balancer = make("rotor_router").bind(cycle12)
        loads = _loads_for(cycle12)
        compact = balancer.sends_structured(loads, 1)
        dense = compact.to_dense(cycle12)
        degree = cycle12.degree
        np.testing.assert_array_equal(
            compact.edge_outflow(cycle12), dense[:, :degree].sum(axis=1)
        )
        np.testing.assert_array_equal(
            compact.kept_tokens(cycle12), dense[:, degree:].sum(axis=1)
        )


class TestValidation:
    def test_negative_share_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.full(12, -1, dtype=np.int64)
        )
        with pytest.raises(InvalidSendMatrix, match="negative"):
            compact.validate(cycle12, loads)

    def test_wrong_shape_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(edge_share=np.zeros(5, dtype=np.int64))
        with pytest.raises(InvalidSendMatrix, match="shape"):
            compact.validate(cycle12, loads)

    def test_float_share_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(edge_share=np.zeros(12))
        with pytest.raises(InvalidSendMatrix, match="integer"):
            compact.validate(cycle12, loads)

    def test_loop_ceil_beyond_loops_rejected(self, cycle12):
        loads = np.full(12, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.zeros(12, dtype=np.int64),
            loop_base=np.zeros(12, dtype=np.int64),
            loop_ceil=np.full(
                12, cycle12.num_self_loops + 1, dtype=np.int64
            ),
        )
        with pytest.raises(InvalidSendMatrix, match="loop_ceil"):
            compact.validate(cycle12, loads)

    def test_loop_tokens_without_loops_rejected(self):
        graph = families.cycle(9, num_self_loops=0)
        loads = np.full(9, 10, dtype=np.int64)
        compact = StructuredRound(
            edge_share=np.zeros(9, dtype=np.int64),
            loop_base=np.ones(9, dtype=np.int64),
        )
        with pytest.raises(InvalidSendMatrix, match="no self-loops"):
            compact.validate(graph, loads)


class _OverdrawingStructured(SendFloor):
    """A structured balancer that claims more tokens than it holds."""

    def sends_structured(self, loads, t):
        compact = super().sends_structured(loads, t)
        compact.edge_share = compact.edge_share + loads.max() + 1
        return compact


class TestEngineSelection:
    def test_auto_prefers_structured(self, cycle12):
        simulator = Simulator(
            cycle12, make("send_floor"), np.full(12, 5, dtype=np.int64)
        )
        assert simulator.engine == "structured"

    def test_auto_falls_back_for_dense_only_balancers(self, expander24):
        simulator = Simulator(
            expander24,
            make("continuous_mimicking"),
            np.full(24, 5, dtype=np.int64),
        )
        assert simulator.engine == "dense"

    def test_structured_unsupported_balancer_rejected(self, expander24):
        with pytest.raises(ValueError, match="structured"):
            Simulator(
                expander24,
                make("continuous_mimicking"),
                np.full(24, 5, dtype=np.int64),
                engine="structured",
            )

    def test_unknown_engine_rejected(self, cycle12):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(
                cycle12,
                make("send_floor"),
                np.full(12, 5, dtype=np.int64),
                engine="warp",
            )


class TestStructuredEngineInvariants:
    def test_overdraw_raises(self, cycle12):
        simulator = Simulator(
            cycle12,
            _OverdrawingStructured(),
            np.full(12, 3, dtype=np.int64),
            engine="structured",
            validate_every_round=False,
        )
        with pytest.raises(NegativeLoadError, match="does not allow"):
            simulator.step()

    @pytest.mark.parametrize("algorithm", STRUCTURED_ALGORITHMS)
    def test_conservation_and_history(self, hypercube16, algorithm):
        loads = _loads_for(hypercube16)
        result = Simulator(
            hypercube16, make(algorithm), loads, engine="structured"
        ).run(30)
        assert result.final_loads.sum() == loads.sum()
        assert len(result.discrepancy_history) == 31


class TestLateAttach:
    """Attach-after-construction goes through `attach()`."""

    def test_attach_starts_probe_and_keeps_structured(self, cycle12):
        from repro.core.monitors import DiscrepancyRecorder

        simulator = Simulator(
            cycle12, make("send_floor"), _loads_for(cycle12)
        )
        probe = simulator.attach(DiscrepancyRecorder())
        assert simulator.engine == "structured"  # loads-only probe
        simulator.run(5)
        assert len(probe.history) == 6  # started with current loads
        assert probe.history == simulator.discrepancy_history

    def test_attach_mid_run_observes_from_now_on(self, cycle12):
        from repro.core.monitors import DiscrepancyRecorder

        simulator = Simulator(
            cycle12, make("send_floor"), _loads_for(cycle12)
        )
        simulator.run(3)
        probe = simulator.attach(DiscrepancyRecorder())
        simulator.run(4)
        assert len(probe.history) == 5  # attach-time state + 4 rounds
        assert probe.history == simulator.discrepancy_history[3:]

    def test_attach_dense_probe_downgrades_auto_engine(self, cycle12):
        from repro.core.probes import Probe

        class DenseOnly(Probe):
            needs = "sends"

            def __init__(self):
                self.seen = 0

            def observe(self, t, loads_before, sends, loads_after):
                assert sends.ndim == 2
                self.seen += 1

        simulator = Simulator(
            cycle12, make("send_floor"), _loads_for(cycle12)
        )
        assert simulator.engine == "structured"
        probe = simulator.attach(DenseOnly())
        assert simulator.engine == "dense"
        simulator.run(4)
        assert probe.seen == 4

    def test_attach_dense_probe_on_explicit_structured_raises(
        self, cycle12
    ):
        from repro.core.probes import Probe

        class DenseOnly(Probe):
            needs = "sends"

        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads_for(cycle12),
            engine="structured",
        )
        with pytest.raises(ValueError, match="dense sends"):
            simulator.attach(DenseOnly())
