"""Unit tests for the capability-typed probe API."""

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.core.coloring import TokenColoringLedger
from repro.core.engine import Simulator
from repro.core.fairness import CumulativeFairnessMonitor, FairnessMonitor
from repro.core.flows import FlowTracker
from repro.core.loads import point_mass
from repro.core.monitors import (
    DiscrepancyRecorder,
    LoadBoundsMonitor,
    PeriodDetector,
    TrajectoryRecorder,
)
from repro.core.potentials import PotentialMonitor
from repro.core.probes import (
    PROBES,
    MonitorProbe,
    Probe,
    ProbeSpec,
    as_probe,
    dense_required,
    loads_only,
)
from repro.core.trace import SamplingSchedule


class DenseOnly(Probe):
    """A sends consumer without a compact-round hook."""

    needs = "sends"


def _loads(n, tokens=None):
    return point_mass(n, tokens if tokens is not None else 10 * n)


class TestCapabilityDeclarations:
    def test_recorders_are_loads_only(self):
        for cls in (
            DiscrepancyRecorder,
            LoadBoundsMonitor,
            PeriodDetector,
        ):
            assert cls().needs == "loads"
        assert TrajectoryRecorder().needs == "loads"
        assert PotentialMonitor([1], s=1).needs == "loads"
        assert TokenColoringLedger(c=2).needs == "loads"

    def test_sends_consumers_accept_structured(self):
        for probe in (
            FlowTracker(),
            FairnessMonitor(s=1),
            CumulativeFairnessMonitor(),
        ):
            assert probe.needs == "sends"
            assert probe.accepts_structured

    def test_sends_probe_without_structured_hook_is_dense_requiring(self):
        probe = DenseOnly()
        assert not probe.accepts_structured
        assert dense_required([probe])
        assert not dense_required([LoadBoundsMonitor(), FlowTracker()])

    def test_loads_only_helper(self):
        assert loads_only([LoadBoundsMonitor(), PeriodDetector()])
        assert not loads_only([FlowTracker()])


class TestAsProbe:
    def test_probe_passes_through(self):
        probe = LoadBoundsMonitor()
        assert as_probe(probe) is probe

    def test_duck_typed_observer_wraps(self):
        class OldSchool:
            def __init__(self):
                self.calls = 0

            def start(self, graph, balancer, loads):
                pass

            def observe(self, t, loads_before, sends, loads_after):
                self.calls += 1

        wrapped = as_probe(OldSchool())
        assert isinstance(wrapped, MonitorProbe)
        assert wrapped.needs == "sends"

    def test_garbage_rejected(self):
        with pytest.raises(TypeError, match="probe"):
            as_probe(42)


class TestProbeSpec:
    def test_registry_has_builtin_probes(self):
        for name in (
            "discrepancy",
            "load_bounds",
            "trajectory",
            "period",
            "potentials",
            "fairness",
            "cumulative_fairness",
            "flows",
            "token_coloring",
        ):
            assert name in PROBES

    def test_build_with_params(self):
        probe = ProbeSpec("potentials", {"c_values": [2], "s": 1}).build()
        assert isinstance(probe, PotentialMonitor)
        assert probe.c_values == [2]

    def test_round_trip(self):
        spec = ProbeSpec("token_coloring", {"c": 3})
        assert ProbeSpec.from_dict(spec.to_dict()) == spec

    def test_parse_plain_and_json(self):
        assert ProbeSpec.parse("load_bounds") == ProbeSpec("load_bounds")
        parsed = ProbeSpec.parse('potentials:{"c_values": [1], "s": 2}')
        assert parsed == ProbeSpec(
            "potentials", {"c_values": [1], "s": 2}
        )

    def test_parse_rejects_non_object_params(self):
        with pytest.raises(ValueError, match="JSON object"):
            ProbeSpec.parse("load_bounds:[1]")

    def test_schedule_params_round_trip_from_json(self):
        spec = ProbeSpec(
            "discrepancy", {"schedule": {"kind": "geometric"}}
        )
        probe = spec.build()
        assert probe.schedule == SamplingSchedule.geometric()


class TestEngineSelection:
    def test_loads_probes_keep_structured_auto(self, cycle12):
        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads(12),
            probes=(LoadBoundsMonitor(), DiscrepancyRecorder()),
        )
        assert simulator.engine == "structured"

    def test_structured_accepting_sends_probes_keep_structured(
        self, cycle12
    ):
        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads(12),
            probes=(FlowTracker(), CumulativeFairnessMonitor()),
        )
        assert simulator.engine == "structured"

    def test_dense_requiring_probe_forces_dense(self, cycle12):
        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads(12),
            probes=(DenseOnly(),),
        )
        assert simulator.engine == "dense"

    def test_explicit_structured_with_loads_probes_allowed(self, cycle12):
        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads(12),
            probes=(LoadBoundsMonitor(),),
            engine="structured",
        )
        assert simulator.engine == "structured"

    def test_explicit_structured_with_dense_probe_rejected(self, cycle12):
        with pytest.raises(ValueError, match="dense sends"):
            Simulator(
                cycle12,
                make("send_floor"),
                _loads(12),
                probes=(DenseOnly(),),
                engine="structured",
            )


class TestProbeObservation:
    def test_loads_probe_output_matches_dense_run(self, expander24):
        loads = _loads(24, 240)

        def run(engine):
            probe = DiscrepancyRecorder()
            bounds = LoadBoundsMonitor()
            Simulator(
                expander24,
                make("send_floor"),
                loads,
                probes=(probe, bounds),
                engine=engine,
            ).run(25)
            return probe.history, bounds.min_ever, bounds.max_ever

        # structured and dense runs must feed probes identical data
        assert run("structured") == run("dense")

    def test_flow_tracker_structured_matches_dense(self, expander24):
        loads = _loads(24, 480)

        def run(engine):
            tracker = FlowTracker()
            Simulator(
                expander24,
                make("rotor_router"),
                loads,
                probes=(tracker,),
                engine=engine,
            ).run(30)
            return tracker

        structured = run("structured")
        dense = run("dense")
        np.testing.assert_array_equal(
            structured.cumulative, dense.cumulative
        )
        assert (
            structured.max_abs_remainder == dense.max_abs_remainder
        )
        np.testing.assert_array_equal(
            structured.last_remainder, dense.last_remainder
        )

    def test_flow_tracker_record_rounds_on_structured(self, cycle12):
        tracker = FlowTracker(record_rounds=True)
        simulator = Simulator(
            cycle12,
            make("send_floor"),
            _loads(12),
            probes=(tracker,),
            engine="structured",
        )
        simulator.run(4)
        assert tracker.flow_per_round().shape == (4, 12, 4)

    def test_fairness_monitors_structured_match_dense(self, expander24):
        loads = _loads(24, 480)

        def run(engine):
            fairness = FairnessMonitor(s=1)
            cumulative = CumulativeFairnessMonitor()
            Simulator(
                expander24,
                make("rotor_router"),
                loads,
                probes=(fairness, cumulative),
                engine=engine,
            ).run(30)
            return (
                fairness.total_floor_violations,
                fairness.total_ceil_violations,
                fairness.total_self_preference_deficit,
                cumulative.observed_delta,
            )

        assert run("structured") == run("dense")

    def test_sparse_discrepancy_schedule_keeps_final(self, expander24):
        probe = DiscrepancyRecorder(
            schedule=SamplingSchedule.geometric(2.0)
        )
        simulator = Simulator(
            expander24,
            make("send_floor"),
            _loads(24, 240),
            probes=(probe,),
        )
        simulator.run(23)
        rounds, values = probe.columns()["discrepancy"]
        assert rounds == [0, 1, 2, 4, 8, 16, 23]  # final retained
        full = simulator.discrepancy_history
        assert values == [full[t] for t in rounds]

    def test_record_collects_probe_summaries(self, expander24):
        result = Simulator(
            expander24,
            make("send_floor"),
            _loads(24, 240),
            probes=(LoadBoundsMonitor(), PeriodDetector()),
        ).run(10)
        record = result.record
        assert record is not None
        assert record.summary["min_load"] == 0
        assert record.summary["max_load"] == 240
        assert "period" in record.summary
        assert record.trace.series("discrepancy")[1] == (
            result.discrepancy_history
        )
