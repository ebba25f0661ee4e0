"""Unit tests for the load-event injectors and DynamicsSpec."""

import numpy as np
import pytest

from repro.core.engine import Simulator
from repro.core.errors import InvalidInjection
from repro.dynamics import (
    INJECTORS,
    AdversarialPeak,
    ConstantRate,
    DynamicsSpec,
    RandomChurn,
    Scripted,
    validate_delta,
)
from repro.graphs import families
from repro.specs import coerce_spec


class TestRegistry:
    def test_builtins_registered(self):
        assert set(INJECTORS.names()) >= {
            "constant_rate",
            "batch_arrivals",
            "adversarial_peak",
            "random_churn",
            "scripted",
        }

    def test_spec_builds_instances(self):
        injector = DynamicsSpec("constant_rate", {"rate": 3}).build()
        assert isinstance(injector, ConstantRate)
        assert injector.rate == 3


class TestConstantRate:
    def test_round_robin_is_deterministic(self):
        injector = ConstantRate(5, placement="round_robin")
        loads = np.zeros(8, dtype=np.int64)
        injector.start(None, loads)
        # deltas may be reused scratch buffers — copy to retain
        first = injector.delta(1, loads).copy()
        second = injector.delta(2, loads).copy()
        assert first.sum() == second.sum() == 5
        # the cursor continues where the previous round stopped
        assert first.tolist() == [1, 1, 1, 1, 1, 0, 0, 0]
        assert second.tolist() == [1, 1, 0, 0, 0, 1, 1, 1]

    @pytest.mark.parametrize("rate", [0, 3, 8, 13, 27])
    def test_round_robin_deals_cyclically_past_whole_laps(self, rate):
        n = 8
        injector = ConstantRate(rate, placement="round_robin")
        loads = np.zeros(n, dtype=np.int64)
        injector.start(None, loads)
        cursor = 0
        for t in range(1, 12):
            expected = np.zeros(n, dtype=np.int64)
            np.add.at(expected, (cursor + np.arange(rate)) % n, 1)
            cursor = (cursor + rate) % n
            np.testing.assert_array_equal(injector.delta(t, loads), expected)

    def test_random_placement_reproducible_after_restart(self):
        injector = ConstantRate(16, seed=4)
        loads = np.zeros(10, dtype=np.int64)
        injector.start(None, loads)
        stream = [injector.delta(t, loads).tolist() for t in range(1, 5)]
        injector.start(None, loads)  # reset re-seeds the RNG
        again = [injector.delta(t, loads).tolist() for t in range(1, 5)]
        assert stream == again

    def test_invalid_params(self):
        with pytest.raises(InvalidInjection):
            ConstantRate(-1)
        with pytest.raises(InvalidInjection):
            ConstantRate(1, placement="teleport")


class TestBatchArrivals:
    def test_period_and_fixed_node(self):
        spec = DynamicsSpec(
            "batch_arrivals", {"tokens": 12, "period": 3, "node": 2}
        )
        injector = spec.build()
        loads = np.zeros(6, dtype=np.int64)
        injector.start(None, loads)
        deltas = [injector.delta(t, loads).copy() for t in range(1, 7)]
        for t, delta in zip(range(1, 7), deltas):
            if t % 3 == 0:
                assert delta[2] == 12 and delta.sum() == 12
            else:
                assert delta.sum() == 0


class TestAdversarialPeak:
    def test_targets_current_maximum(self):
        injector = AdversarialPeak(rate=4)
        loads = np.array([1, 9, 2, 9], dtype=np.int64)
        injector.start(None, loads)
        delta = injector.delta(1, loads)
        assert delta[1] == 4  # ties break to the lowest index
        assert delta.sum() == 4


class TestRandomChurn:
    def test_refill_conserves_total(self):
        injector = RandomChurn(rate=20, seed=9)
        loads = np.full(12, 5, dtype=np.int64)
        injector.start(None, loads)
        for t in range(1, 30):
            delta = injector.delta(t, loads)
            assert delta.sum() == 0
            loads = loads + delta
            assert loads.min() >= 0

    def test_drain_only_never_overdraws(self):
        injector = RandomChurn(rate=50, refill=False, seed=1)
        loads = np.array([3, 0, 1, 0, 2], dtype=np.int64)
        injector.start(None, loads)
        while loads.sum() > 0:
            delta = injector.delta(1, loads)
            assert delta.max() <= 0
            loads = loads + delta
            assert loads.min() >= 0
        assert injector.summary()["tokens_departed"] == 6


class TestScripted:
    def test_events_apply_on_their_rounds(self):
        injector = Scripted([[2, 1, 10], [2, 1, 5], [4, 0, -3]])
        loads = np.array([20, 0, 0], dtype=np.int64)
        injector.start(None, loads)
        assert injector.delta(1, loads).tolist() == [0, 0, 0]
        assert injector.delta(2, loads).tolist() == [0, 15, 0]
        assert injector.delta(3, loads).tolist() == [0, 0, 0]
        assert injector.delta(4, loads).tolist() == [-3, 0, 0]

    def test_malformed_events_rejected(self):
        with pytest.raises(InvalidInjection):
            Scripted([[1, 2]])
        with pytest.raises(InvalidInjection):
            Scripted([[0, 1, 5]])

    def test_overdraw_raises_in_engine(self):
        graph = families.cycle(6)
        from repro.algorithms.registry import make

        simulator = Simulator(
            graph,
            make("send_floor"),
            np.full(6, 2, dtype=np.int64),
            dynamics=Scripted([[3, 0, -40]]),
        )
        simulator.step()
        simulator.step()
        with pytest.raises(InvalidInjection, match="drained node 0"):
            simulator.step()


class TestValidateDelta:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidInjection, match="shape"):
            validate_delta(
                np.zeros(3, dtype=np.int64),
                np.zeros(4, dtype=np.int64),
                "x",
                1,
            )

    def test_float_delta_rejected(self):
        with pytest.raises(InvalidInjection, match="integer"):
            validate_delta(
                np.zeros(3), np.zeros(3, dtype=np.int64), "x", 1
            )

    def test_overdraw_rejected(self):
        with pytest.raises(InvalidInjection, match="below"):
            validate_delta(
                np.array([-5, 0], dtype=np.int64),
                np.array([4, 0], dtype=np.int64),
                "x",
                1,
            )


class TestDynamicsSpec:
    def test_json_round_trip(self):
        spec = DynamicsSpec("random_churn", {"rate": 7, "seed": 2})
        assert DynamicsSpec.from_dict(spec.to_dict()) == spec

    def test_parse_shorthand(self):
        assert DynamicsSpec.parse("adversarial_peak") == DynamicsSpec(
            "adversarial_peak"
        )
        parsed = DynamicsSpec.parse('constant_rate:{"rate": 8}')
        assert parsed == DynamicsSpec("constant_rate", {"rate": 8})
        with pytest.raises(ValueError, match="JSON object"):
            DynamicsSpec.parse("constant_rate:[1]")

    def test_replica_seed_offset(self):
        spec = DynamicsSpec("constant_rate", {"rate": 4, "seed": 10})
        assert spec.build(3).seed == 13
        assert spec.build(0).seed == 10
        # seedless (deterministic) injectors are identical per replica
        peak = DynamicsSpec("adversarial_peak", {"rate": 2})
        assert peak.build(5).rate == 2

    def test_coerce_spec_injectors(self):
        assert coerce_spec(None, DynamicsSpec) is None
        built = coerce_spec(
            DynamicsSpec("adversarial_peak", {"rate": 1}), DynamicsSpec
        )
        assert isinstance(built, AdversarialPeak)
        instance = AdversarialPeak(rate=1)
        assert coerce_spec(instance, DynamicsSpec) is instance
        with pytest.raises(TypeError):
            coerce_spec("adversarial_peak", DynamicsSpec)


class TestEngineBookkeeping:
    def test_totals_and_record_track_injection(self):
        from repro.algorithms.registry import make

        graph = families.cycle(8)
        simulator = Simulator(
            graph,
            make("send_floor"),
            np.full(8, 4, dtype=np.int64),
            dynamics=ConstantRate(3, placement="round_robin"),
        )
        result = simulator.run(10)
        assert simulator.total_tokens == 32 + 30
        assert result.final_loads.sum() == 62
        assert result.record.summary["tokens_injected"] == 30
        assert result.record.summary["tokens_arrived"] == 30

    def test_static_records_have_no_injection_keys(self):
        from repro.algorithms.registry import make

        graph = families.cycle(8)
        result = Simulator(
            graph,
            make("send_floor"),
            np.full(8, 4, dtype=np.int64),
        ).run(5)
        assert "tokens_injected" not in result.record.summary
