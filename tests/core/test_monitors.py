"""Unit tests for the monitor framework."""

import numpy as np

from repro.algorithms import RotorRouter, SendFloor
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.core.monitors import (
    DiscrepancyRecorder,
    LoadBoundsMonitor,
    PeriodDetector,
    TrajectoryRecorder,
)
from repro.lower_bounds import build_rotor_alternating_instance
from repro.graphs import families


class TestDiscrepancyRecorder:
    def test_records_initial_and_rounds(self, expander24):
        recorder = DiscrepancyRecorder()
        simulator = Simulator(
            expander24,
            SendFloor(),
            point_mass(24, 240),
            probes=(recorder,),
        )
        simulator.run(5)
        assert len(recorder.history) == 6
        assert recorder.history[0] == 240
        assert recorder.final == recorder.history[-1]
        assert recorder.minimum <= recorder.history[0]

    def test_matches_engine_history(self, expander24):
        recorder = DiscrepancyRecorder()
        simulator = Simulator(
            expander24,
            RotorRouter(),
            point_mass(24, 480),
            probes=(recorder,),
        )
        simulator.run(20)
        assert recorder.history == simulator.discrepancy_history


class TestLoadBoundsMonitor:
    def test_tracks_extremes(self, expander24):
        monitor = LoadBoundsMonitor()
        simulator = Simulator(
            expander24,
            SendFloor(),
            point_mass(24, 240),
            probes=(monitor,),
        )
        simulator.run(10)
        assert monitor.max_ever == 240
        assert monitor.min_ever == 0
        assert not monitor.went_negative


class TestTrajectoryRecorder:
    def test_records_with_stride(self, cycle12):
        recorder = TrajectoryRecorder(stride=2)
        simulator = Simulator(
            cycle12,
            SendFloor(),
            point_mass(12, 120),
            probes=(recorder,),
        )
        simulator.run(6)
        assert recorder.rounds == [0, 2, 4, 6]
        stacked = recorder.as_array()
        assert stacked.shape == (4, 12)
        np.testing.assert_array_equal(stacked[0], point_mass(12, 120))

    def test_rejects_bad_stride(self):
        import pytest

        with pytest.raises(ValueError):
            TrajectoryRecorder(stride=0)


class TestPeriodDetector:
    def test_detects_period_two(self):
        graph = families.cycle(9, num_self_loops=0)
        instance = build_rotor_alternating_instance(graph)
        detector = PeriodDetector()
        simulator = Simulator(
            graph,
            instance.balancer,
            instance.initial_loads,
            probes=(detector,),
        )
        simulator.run(6)
        assert detector.period == 2

    def test_detects_fixed_point(self, expander24):
        detector = PeriodDetector()
        simulator = Simulator(
            expander24,
            SendFloor(),
            np.full(24, 5, dtype=np.int64),
            probes=(detector,),
        )
        simulator.run(3)
        assert detector.period == 1
        assert detector.first_repeat_round == 1
