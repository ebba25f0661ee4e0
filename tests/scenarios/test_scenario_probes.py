"""Scenario-level probe behavior: serialization, replica stacks."""

import json

import numpy as np
import pytest

from repro.core.flows import FlowTracker
from repro.core.monitors import LoadBoundsMonitor, PeriodDetector
from repro.core.probes import ProbeSpec
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)
from tests.helpers import assert_same_results, run_per_replica


def make_scenario(**overrides):
    defaults = dict(
        graph=GraphSpec("cycle", {"n": 12}),
        algorithm=AlgorithmSpec("send_floor"),
        loads=LoadSpec("point_mass", {"tokens": 120}),
        stop=StopRule.fixed(20),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestSerialization:
    def test_probe_specs_round_trip(self):
        scenario = make_scenario(
            probes=(
                ProbeSpec("load_bounds"),
                ProbeSpec("potentials", {"c_values": [2], "s": 1}),
            ),
            replicas=3,
        )
        data = json.loads(json.dumps(scenario.to_dict()))
        rebuilt = Scenario.from_dict(data)
        assert rebuilt.probes == scenario.probes
        assert rebuilt.replicas == 3

    def test_probe_factories_not_serializable(self):
        scenario = make_scenario(probes=(LoadBoundsMonitor,))
        with pytest.raises(ValueError, match="ProbeSpec"):
            scenario.to_dict()

    def test_probe_instances_rejected_for_multi_replica(self):
        with pytest.raises(ValueError, match="fresh probes"):
            make_scenario(probes=(LoadBoundsMonitor(),), replicas=2)

    def test_duck_typed_instance_rejected_for_multi_replica(self):
        # regression: a legacy duck-typed observer instance would be
        # silently shared (and its state corrupted) across replicas
        class OldSchool:
            def start(self, graph, balancer, loads):
                pass

            def observe(self, t, loads_before, sends, loads_after):
                pass

        with pytest.raises(ValueError, match="fresh probes"):
            make_scenario(probes=(OldSchool(),), replicas=2)


class TestReplicaStack:
    def test_loads_probes_on_a_stack(self):
        scenario = make_scenario(
            probes=(ProbeSpec("load_bounds"),), replicas=4
        )
        outcome = scenario.run()
        for replica in range(4):
            bounds = outcome.monitor(LoadBoundsMonitor, replica)
            assert bounds is not None
            assert bounds.min_ever == 0
            assert bounds.max_ever == 120

    def test_sends_probes_on_a_stack(self):
        scenario = make_scenario(
            probes=(ProbeSpec("flows"),), replicas=2
        )
        outcome = scenario.run()
        assert outcome.monitor(FlowTracker, 1) is not None
        assert_same_results(run_per_replica(scenario), outcome)

    def test_stack_and_loop_probe_outputs_identical(self):
        scenario = make_scenario(
            probes=(ProbeSpec("discrepancy"), ProbeSpec("period")),
            replicas=3,
        )
        batch = scenario.run()
        loop = run_per_replica(scenario)
        for replica in range(3):
            np.testing.assert_array_equal(
                batch.replica(replica).final_loads,
                loop.replica(replica).final_loads,
            )
            left = batch.monitor(PeriodDetector, replica)
            right = loop.monitor(PeriodDetector, replica)
            assert (left.period, left.first_repeat_round) == (
                right.period,
                right.first_repeat_round,
            )


class TestRecords:
    def test_records_carry_probe_summaries(self):
        scenario = make_scenario(
            probes=(ProbeSpec("load_bounds"),), replicas=2
        )
        outcome = scenario.run()
        records = outcome.records
        assert len(records) == 2
        for replica, record in enumerate(records):
            assert record.replica == replica
            assert record.summary["min_load"] == 0
            assert "discrepancy" in record.trace

    def test_replica_summary_merges_probe_scalars(self):
        scenario = make_scenario(probes=(ProbeSpec("load_bounds"),))
        outcome = scenario.run()
        summary = outcome.replica_summary()
        assert summary["min_load"] == 0
        assert summary["max_load"] == 120
        assert "plateau" in summary

    def test_suite_cartesian_forwards_probes(self):
        suite = ScenarioSuite.cartesian(
            graphs=GraphSpec("cycle", {"n": 12}),
            algorithms=[
                AlgorithmSpec("send_floor"),
                AlgorithmSpec("rotor_router"),
            ],
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
            probes=(ProbeSpec("load_bounds"),),
        )
        for outcome in suite.run():
            assert outcome.replica_summary()["min_load"] >= 0
