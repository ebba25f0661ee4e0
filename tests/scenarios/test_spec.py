"""Tests for the declarative scenario data model."""

import json

import numpy as np
import pytest

from repro.core.monitors import LoadBoundsMonitor
from repro.graphs import fat_tree
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)
from tests.helpers import run_per_replica


def make_scenario(**overrides) -> Scenario:
    base = dict(
        graph=GraphSpec("cycle", {"n": 12}),
        algorithm=AlgorithmSpec("rotor_router", seed=3),
        loads=LoadSpec("point_mass", {"tokens": 240}),
        stop=StopRule.fixed(40),
        replicas=2,
        name="demo",
    )
    base.update(overrides)
    return Scenario(**base)


class TestRoundTrip:
    def test_scenario_json_round_trip(self):
        scenario = make_scenario()
        data = json.loads(json.dumps(scenario.to_dict()))
        assert Scenario.from_dict(data) == scenario

    def test_suite_round_trip(self):
        suite = ScenarioSuite(
            (make_scenario(), make_scenario(name="other")), name="sweep"
        )
        data = json.loads(json.dumps(suite.to_dict()))
        restored = ScenarioSuite.from_dict(data)
        assert restored.name == "sweep"
        assert tuple(restored) == tuple(suite)

    @pytest.mark.parametrize(
        "stop",
        [
            StopRule.fixed(7),
            StopRule.discrepancy(4, 100, check_every=3),
            StopRule.converged(50, window=5),
        ],
    )
    def test_stop_rule_round_trip(self, stop):
        assert StopRule.from_dict(stop.to_dict()) == stop

    def test_prebuilt_graph_not_serializable(self):
        scenario = make_scenario(
            graph=GraphSpec("cycle", {"n": 12}).build()
        )
        with pytest.raises(ValueError, match="prebuilt graph"):
            scenario.to_dict()

    def test_prebuilt_padded_graph_runs_like_its_spec(self):
        prebuilt = make_scenario(graph=fat_tree(4))
        from_spec = make_scenario(graph=GraphSpec("fat_tree", {"k": 4}))
        assert prebuilt.label() == from_spec.label().replace(
            "fat_tree", "fat_tree(k=4)", 1
        )
        assert [r.to_dict() for r in prebuilt.run().records] == [
            r.to_dict() for r in from_spec.run().records
        ]
        with pytest.raises(ValueError, match="prebuilt graph"):
            prebuilt.to_dict()

    def test_cartesian_takes_one_prebuilt_padded_graph(self):
        graph = fat_tree(4)
        suite = ScenarioSuite.cartesian(
            graphs=graph,
            algorithms=AlgorithmSpec("send_floor"),
            loads=LoadSpec("point_mass", {"tokens": 100}),
            stop=StopRule.fixed(5),
        )
        assert [s.graph for s in suite] == [graph]

    def test_dynamics_round_trip(self):
        from repro.scenarios import DynamicsSpec

        scenario = make_scenario(
            dynamics=DynamicsSpec(
                "random_churn", {"rate": 6, "seed": 3}
            )
        )
        data = json.loads(json.dumps(scenario.to_dict()))
        restored = Scenario.from_dict(data)
        assert restored == scenario
        assert restored.dynamics.params == {"rate": 6, "seed": 3}
        # ... and the restored scenario actually injects.
        outcome = restored.run()
        assert (
            "tokens_departed"
            in outcome.record(0).summary
        )

    def test_static_scenario_dict_has_no_dynamics_key(self):
        assert "dynamics" not in make_scenario().to_dict()

    def test_injector_instance_not_serializable(self):
        from repro.dynamics import AdversarialPeak

        scenario = make_scenario(
            replicas=1, dynamics=AdversarialPeak(rate=2)
        )
        with pytest.raises(ValueError, match="injector instances"):
            scenario.to_dict()

    def test_injector_instance_rejected_for_multi_replica(self):
        from repro.dynamics import AdversarialPeak

        with pytest.raises(ValueError, match="fresh injectors"):
            make_scenario(replicas=2, dynamics=AdversarialPeak(rate=2))

    def test_cartesian_carries_dynamics(self):
        from repro.scenarios import DynamicsSpec

        suite = ScenarioSuite.cartesian(
            graphs=GraphSpec("cycle", {"n": 12}),
            algorithms=AlgorithmSpec("send_floor"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
            dynamics=DynamicsSpec("constant_rate", {"rate": 2}),
        )
        (scenario,) = tuple(suite)
        assert scenario.dynamics.name == "constant_rate"
        assert "constant_rate" in scenario.label()


def _from_dict(**changes):
    data = make_scenario().to_dict()
    data.update(changes)
    return lambda: Scenario.from_dict(data)


MALFORMED = [
    pytest.param(
        _from_dict(record_history="false"), "record_history",
        id="record_history-str",
    ),
    pytest.param(
        _from_dict(validate_every_round="false"), "validate_every_round",
        id="validate_every_round-str",
    ),
    pytest.param(_from_dict(replicas=2.5), "replicas", id="replicas-float"),
    pytest.param(_from_dict(replicas="3"), "replicas", id="replicas-str"),
    pytest.param(
        _from_dict(algorithm={"name": "rotor_router", "seed": 1.7}), "seed",
        id="seed-float",
    ),
    pytest.param(
        lambda: make_scenario(replicas=2.5), "replicas",
        id="replicas-float-constructor",
    ),
    pytest.param(lambda: Scenario.from_dict({}), "'graph'", id="empty"),
    pytest.param(
        _from_dict(graph={"params": {"n": 12}}), "'family'",
        id="graph-without-family",
    ),
    pytest.param(_from_dict(graph="cycle"), "graph", id="graph-str"),
    pytest.param(_from_dict(probes=["nope"]), "probe", id="probe-str"),
]


@pytest.mark.parametrize("build, field", MALFORMED)
def test_malformed_scenario_raises_value_error_naming_field(build, field):
    with pytest.raises(ValueError, match=field):
        build()


class TestValidation:
    def test_unknown_stop_kind(self):
        with pytest.raises(ValueError, match="unknown stop kind"):
            StopRule(kind="never")

    def test_rounds_kind_needs_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            StopRule(kind="rounds")

    def test_target_kind_needs_budget(self):
        with pytest.raises(ValueError, match="max_rounds"):
            StopRule(kind="target_discrepancy", target=4)

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError, match="replicas"):
            make_scenario(replicas=0)

    def test_unknown_algorithm_surfaces_keyerror(self):
        scenario = make_scenario(
            algorithm=AlgorithmSpec("quantum_annealer")
        )
        with pytest.raises(KeyError, match="unknown balancer"):
            scenario.run()


class TestSpecs:
    def test_seeded_load_spec_offsets_per_replica(self):
        spec = LoadSpec("uniform_random", {"total_tokens": 500, "seed": 4})
        a0, a1 = spec.build(16, replica=0), spec.build(16, replica=1)
        assert not np.array_equal(a0, a1)
        np.testing.assert_array_equal(
            a1,
            LoadSpec("uniform_random", {"total_tokens": 500, "seed": 5}).build(16),
        )

    def test_deterministic_load_spec_identical_across_replicas(self):
        spec = LoadSpec("point_mass", {"tokens": 64})
        np.testing.assert_array_equal(
            spec.build(8, replica=0), spec.build(8, replica=3)
        )

    def test_algorithm_spec_offsets_seed(self, expander24):
        spec = AlgorithmSpec("randomized_edge_rounding", seed=10)
        a = spec.build(0).bind(expander24)
        b = spec.build(2).bind(expander24)
        loads = np.full(24, 43, dtype=np.int64)
        assert not np.array_equal(a.sends(loads, 1), b.sends(loads, 1))

    def test_specs_are_hashable_by_value(self):
        a = GraphSpec("circulant", {"n": 8, "offsets": [1, 2]})
        b = GraphSpec("circulant", {"offsets": [1, 2], "n": 8})
        assert hash(a) == hash(b) and a == b
        assert len({a, b}) == 1
        assert len({AlgorithmSpec("send_floor"), AlgorithmSpec("send_floor", seed=1)}) == 2
        assert len({LoadSpec("point_mass", {"tokens": 5})}) == 1

    def test_graph_spec_builds_named_family(self):
        graph = GraphSpec("torus", {"side": 3, "dimensions": 2}).build()
        assert graph.num_nodes == 9
        assert graph.degree == 4


class TestRunAndSuite:
    # "loop" is the per-replica Simulator reference, "batch" the stack.
    @pytest.mark.parametrize(
        "run", [run_per_replica, Scenario.run], ids=["loop", "batch"]
    )
    def test_run_with_probe_factories_collects_instances(self, run):
        scenario = make_scenario(probes=(LoadBoundsMonitor,))
        outcome = run(scenario)
        for replica in range(scenario.replicas):
            monitor = outcome.monitor(LoadBoundsMonitor, replica)
            assert monitor is not None
            assert monitor.min_ever >= 0

    def test_replica_summary_reports_target(self):
        scenario = make_scenario(
            stop=StopRule.discrepancy(8, 400), replicas=1
        )
        summary = scenario.run().replica_summary()
        assert summary["target"] == 8
        assert summary["time_to_target"] is not None

    def test_cartesian_order_and_size(self):
        suite = ScenarioSuite.cartesian(
            graphs=[GraphSpec("cycle", {"n": 8}), GraphSpec("cycle", {"n": 12})],
            algorithms=[
                AlgorithmSpec("send_floor"),
                AlgorithmSpec("rotor_router"),
            ],
            loads=LoadSpec("point_mass", {"tokens": 100}),
            stop=StopRule.fixed(10),
        )
        assert len(suite) == 4
        combos = [
            (s.graph.params["n"], s.algorithm.name) for s in suite
        ]
        assert combos == [
            (8, "send_floor"),
            (8, "rotor_router"),
            (12, "send_floor"),
            (12, "rotor_router"),
        ]

    def test_suite_graph_override_rejected_for_multigraph_sweep(self):
        suite = ScenarioSuite.cartesian(
            graphs=[
                GraphSpec("cycle", {"n": 8}),
                GraphSpec("complete", {"n": 8}),
            ],
            algorithms=AlgorithmSpec("send_floor"),
            loads=LoadSpec("point_mass", {"tokens": 80}),
            stop=StopRule.fixed(5),
        )
        with pytest.raises(ValueError, match="multiple graphs"):
            suite.run(graph=GraphSpec("cycle", {"n": 8}).build())

    def test_suite_graph_override_allowed_for_shared_graph(self):
        spec = GraphSpec("cycle", {"n": 8})
        suite = ScenarioSuite.cartesian(
            graphs=spec,
            algorithms=[
                AlgorithmSpec("send_floor"),
                AlgorithmSpec("rotor_router"),
            ],
            loads=LoadSpec("point_mass", {"tokens": 80}),
            stop=StopRule.fixed(5),
        )
        outcomes = suite.run(graph=spec.build())
        assert len(outcomes) == 2

    def test_suite_builds_each_distinct_graph_once(self):
        suite = ScenarioSuite.cartesian(
            graphs=GraphSpec("cycle", {"n": 10}),
            algorithms=[
                AlgorithmSpec("send_floor"),
                AlgorithmSpec("rotor_router"),
                AlgorithmSpec("send_rounded"),
            ],
            loads=LoadSpec("point_mass", {"tokens": 100}),
            stop=StopRule.fixed(5),
        )
        outcomes = suite.run()
        first = outcomes[0].graph
        assert all(outcome.graph is first for outcome in outcomes)

    def test_suite_run_executes_everything(self):
        suite = ScenarioSuite.cartesian(
            graphs=GraphSpec("complete", {"n": 8}),
            algorithms=[
                AlgorithmSpec("send_floor"),
                AlgorithmSpec("send_rounded"),
            ],
            loads=LoadSpec("point_mass", {"tokens": 160}),
            stop=StopRule.fixed(30),
        )
        outcomes = suite.run()
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert outcome.replica(0).final_discrepancy <= 160
