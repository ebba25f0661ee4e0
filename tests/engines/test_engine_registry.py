"""Engine-backend registry: names, validation, selection, serialization.

The registry contract: every built-in backend is registered under a
stable name, ``"auto"`` stays a selection policy (never a backend),
unknown names fail loudly everywhere an engine can be named, and the
protocol constraints (structured backends need structured-capable
balancers and observers) hold for third-party backends exactly as they
did for the two hard-coded engines.
"""

import re

import numpy as np
import pytest

from repro.algorithms.registry import make
from repro.cli import main as cli_main
from repro.core.engine import Simulator
from repro.core.monitors import LoadBoundsMonitor
from repro.core.probes import SENDS, Probe
from repro.engines import (
    DENSE,
    ENGINES,
    STRUCTURED,
    create_engine,
    engine_names,
    register_engine,
)
from repro.engines.builtin import StructuredEngine
from repro.graphs import families
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)
from repro.scenarios.batch import BatchRunner
from tests.helpers import run_per_replica


def _graph():
    return families.cycle(12, num_self_loops=1)


def _loads(graph, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 200, graph.num_nodes).astype(np.int64)


def _scenario(engine="auto"):
    return Scenario(
        graph=GraphSpec("cycle", {"n": 12}),
        algorithm=AlgorithmSpec("rotor_router"),
        loads=LoadSpec("uniform_random", {"total_tokens": 500, "seed": 1}),
        stop=StopRule.fixed(8),
        engine=engine,
    )


class DenseOnlyProbe(Probe):
    """A sends consumer without a structured hook (forces dense)."""

    needs = SENDS
    accepts_structured = False

    def observe(self, t, loads_before, sends, loads_after):
        pass


class TestRegistryContents:
    def test_builtin_backends_registered(self):
        assert set(ENGINES) == {"dense", "structured"}

    def test_auto_is_a_policy_not_a_backend(self):
        assert "auto" not in ENGINES

    def test_create_engine_yields_fresh_instances(self):
        a = create_engine("structured")
        b = create_engine("structured")
        assert a is not b
        assert a.name == "structured"

    def test_protocols(self):
        assert create_engine("dense").protocol == DENSE
        assert create_engine("structured").protocol == STRUCTURED

    def test_engine_names_sorted(self):
        assert list(engine_names()) == sorted(engine_names())


class TestUnknownEngine:
    def test_simulator_rejects_unknown_engine(self):
        graph = _graph()
        with pytest.raises(ValueError, match="unknown engine 'bogus'"):
            Simulator(
                graph, make("send_floor"), _loads(graph), engine="bogus"
            )

    def test_batch_runner_rejects_unknown_engine(self):
        graph = _graph()
        initial = np.tile(_loads(graph), (2, 1))
        with pytest.raises(ValueError, match="unknown engine"):
            BatchRunner(
                graph, make("send_floor"), initial, engine="bogus"
            )

    def test_scenario_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Scenario(
                graph=GraphSpec("cycle", {"n": 12}),
                algorithm=AlgorithmSpec("send_floor"),
                loads=LoadSpec(
                    "uniform_random", {"total_tokens": 500, "seed": 1}
                ),
                stop=StopRule.fixed(5),
                engine="bogus",
            )

    def test_error_lists_registered_names(self):
        graph = _graph()
        with pytest.raises(ValueError, match="dense, structured"):
            Simulator(
                graph, make("send_floor"), _loads(graph), engine="nope"
            )

    @pytest.mark.parametrize(
        "name",
        ["compiled", "spmm", "partitioned", 'structured:{"workers": 2}'],
    )
    @pytest.mark.parametrize(
        "surface", ["simulator", "batch_runner", "scenario", "cli"]
    )
    def test_removed_backends_are_unknown(self, surface, name):
        """Deleted backends and param-suffixed specs are unknown names.

        An engine spec is a bare registry name: the old ``name:{json}``
        params grammar fails at the boundary, not at run time.
        """
        graph = _graph()
        loads = _loads(graph)
        match = f"unknown engine {re.escape(repr(name))}.*dense, structured"
        with pytest.raises(ValueError, match=match):
            if surface == "simulator":
                Simulator(graph, make("rotor_router"), loads, engine=name)
            elif surface == "batch_runner":
                BatchRunner(
                    graph,
                    make("send_floor"),
                    np.tile(loads, (2, 1)),
                    engine=name,
                )
            elif surface == "scenario":
                Scenario.from_dict(
                    {**_scenario().to_dict(), "engine": name}
                )
            else:
                argv = "simulate rotor_router --family cycle --n 12"
                cli_main(argv.split() + ["--engine", name])


class TestProtocolConstraints:
    """Structured-protocol backends inherit the structured constraints."""

    def test_dense_only_balancer_rejected(self):
        graph = _graph()
        with pytest.raises(
            ValueError, match="does not implement structured sends"
        ):
            Simulator(
                graph,
                make("arbitrary_rounding_fixed"),
                _loads(graph),
                engine="structured",
            )

    def test_dense_protocol_backends_take_any_balancer(self):
        graph = _graph()
        result = Simulator(
            graph,
            make("arbitrary_rounding_fixed"),
            _loads(graph),
            probes=[LoadBoundsMonitor()],
            engine="dense",
        ).run(10)
        assert result.rounds_executed == 10

    def test_auto_ignores_optional_backends(self):
        """Auto picks dense/structured only — never a third-party backend."""
        graph = _graph()
        loads = _loads(graph)
        assert (
            Simulator(graph, make("rotor_router"), loads).engine
            == "structured"
        )
        assert (
            Simulator(
                graph, make("arbitrary_rounding_fixed"), loads
            ).engine
            == "dense"
        )


class TestAttachMidRun:
    def test_auto_structured_degrades_to_dense(self):
        graph = _graph()
        sim = Simulator(graph, make("rotor_router"), _loads(graph))
        sim.run(5)
        assert sim.engine == "structured"
        sim.attach(DenseOnlyProbe())
        assert sim.engine == "dense"
        sim.run(5)

    def test_explicit_structured_refuses_dense_probe(self):
        graph = _graph()
        sim = Simulator(
            graph, make("rotor_router"), _loads(graph), engine="structured"
        )
        sim.run(5)
        with pytest.raises(ValueError, match="explicitly requested"):
            sim.attach(DenseOnlyProbe())


class TestScenarioSerialization:
    def test_auto_engine_omitted_from_dict(self):
        """Cache-key stability: auto scenarios hash as before the field."""
        assert "engine" not in _scenario().to_dict()

    def test_auto_hash_matches_pre_engine_scenarios(self):
        assert (
            _scenario().content_hash()
            == _scenario("auto").content_hash()
        )

    def test_explicit_engine_round_trips(self):
        scenario = _scenario("structured")
        data = scenario.to_dict()
        assert data["engine"] == "structured"
        restored = Scenario.from_dict(data)
        assert restored.engine == "structured"
        assert restored.content_hash() == scenario.content_hash()

    def test_engine_changes_content_hash(self):
        assert (
            _scenario("structured").content_hash()
            != _scenario().content_hash()
        )

    # "loop" is the per-replica Simulator reference, "batch" the stack.
    @pytest.mark.parametrize(
        "run", [run_per_replica, Scenario.run], ids=["loop", "batch"]
    )
    def test_scenario_runs_named_engine(self, run):
        got = run(_scenario("structured"))
        want = run(_scenario("dense"))
        np.testing.assert_array_equal(
            got.results[0].final_loads, want.results[0].final_loads
        )


class TestThirdPartyBackend:
    def test_registered_backend_usable_by_name(self):
        @register_engine
        class EchoEngine(StructuredEngine):
            name = "echo_test"

        try:
            graph = _graph()
            loads = _loads(graph)
            got = Simulator(
                graph, make("rotor_router"), loads, engine="echo_test"
            ).run(15)
            want = Simulator(
                graph, make("rotor_router"), loads, engine="dense"
            ).run(15)
            np.testing.assert_array_equal(
                got.final_loads, want.final_loads
            )
        finally:
            ENGINES.remove("echo_test")
        assert "echo_test" not in ENGINES
