"""``ScenarioSuite.run`` is one path: ``SuiteExecutor`` on the ambient config.

Covers what used to differ between the serial loop and the executor:
setting validation at every entry point, graph build sharing, failure
reporting (with the in-process exception chained), and ambient replica
splitting.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exec import (
    SuiteExecutionError,
    SuiteExecutor,
    configure,
    current,
    run_suite,
)
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)

from tests.exec.factories import canonical_records, make_suite
from tests.helpers import run_scenarios


def _enter_configure(**settings):
    with configure(**settings):
        pass


SURFACES = {
    "configure": _enter_configure,
    "SuiteExecutor": lambda **settings: SuiteExecutor(**settings),
    "run_suite": lambda **settings: run_suite(make_suite(), **settings),
}

BAD_SETTINGS = [
    ({"workers": 0}, ValueError, "workers must be >= 1"),
    ({"workers": -2}, ValueError, "workers must be >= 1"),
    ({"workers": 2.5}, TypeError, "workers must be an int"),
    ({"workers": True}, TypeError, "workers must be an int"),
    ({"max_replicas_per_shard": 0}, ValueError, "max_replicas_per_shard must be >= 1"),
    ({"max_replicas_per_shard": 1.5}, TypeError, "max_replicas_per_shard must be an int"),
    ({"timeout": 0}, ValueError, "timeout must be positive"),
    ({"timeout": -1.0}, ValueError, "timeout must be positive"),
    ({"timeout": float("nan")}, ValueError, "timeout must be positive"),
    ({"timeout": "5"}, TypeError, "timeout must be a number"),
    ({"on_shard_failure": "ignore"}, ValueError, "on_shard_failure must be one of"),
    ({"retry": True}, TypeError, "retry must be"),
    ({"cache": 3}, TypeError, "as a cache"),
]


class TestSettingsValidatedAtConstruction:
    @pytest.mark.parametrize("surface", sorted(SURFACES))
    @pytest.mark.parametrize(
        ("settings", "error", "message"),
        BAD_SETTINGS,
        ids=[
            "-".join(f"{k}={v!r}" for k, v in case[0].items())
            for case in BAD_SETTINGS
        ],
    )
    def test_bad_setting_raises_before_running(
        self, surface, settings, error, message, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(
            Scenario, "run", lambda *args, **kwargs: ran.append(1)
        )
        with pytest.raises(error, match=message):
            SURFACES[surface](**settings)
        assert not ran, "validation must fail before any shard runs"
        assert current().workers == 1, "a bad configure must not stick"

    def test_configure_false_disables_inherited_settings(self, tmp_path):
        with configure(cache=tmp_path, retry=3, timeout=5.0):
            with configure(cache=False, retry=False, timeout=False):
                config = current()
        assert (config.cache, config.retry, config.timeout) == (None, None, None)


def _poisoned_suite() -> ScenarioSuite:
    return ScenarioSuite((
        Scenario(
            graph=GraphSpec("cycle", {"n": 12}),
            algorithm=AlgorithmSpec("no_such_algorithm"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
        ),
    ))


class TestFailureReporting:
    @pytest.mark.parametrize(
        "settings", [{}, {"workers": 2}, {"retry": 2}],
        ids=["default", "workers=2", "retry=2"],
    )
    def test_poisoned_suite_raises_suite_error(self, settings):
        with configure(**settings):
            with pytest.raises(
                SuiteExecutionError, match="1 of 1 shards"
            ) as excinfo:
                _poisoned_suite().run()
        cause = excinfo.value.__cause__
        if "workers" not in settings:
            # In-process: the frame that failed is still chained.
            assert isinstance(cause, KeyError)
            assert "no_such_algorithm" in str(cause)
        else:
            # Worker failures cross the process boundary as text.
            assert cause is None
            assert "KeyError" in excinfo.value.failures[0].traceback

    @pytest.mark.parametrize("workers", [1, 2])
    def test_graph_build_failure_is_a_shard_failure(self, workers):
        good = make_suite().scenarios[0]
        bad = replace(good, graph=GraphSpec("no_such_family", {"n": 12}))
        with configure(workers=workers):
            with pytest.raises(
                SuiteExecutionError, match="1 of 2 shards"
            ) as excinfo:
                ScenarioSuite((bad, good)).run()
        assert "unknown graph family" in excinfo.value.failures[0].error
        # The healthy shard after the broken one still ran.
        assert len(excinfo.value.report.outcomes) == 1

    def test_partial_mode_returns_survivors(self):
        suite = ScenarioSuite(tuple(make_suite()) + tuple(_poisoned_suite()))
        with configure(on_shard_failure="partial"):
            outcomes = suite.run()
        assert len(outcomes) == len(suite) - 1
        assert not outcomes.complete
        assert "KeyError" in outcomes.failures[0].error


class TestGraphSharing:
    def test_build_once_per_distinct_spec(self, monkeypatch):
        calls = []
        original = GraphSpec.build

        def counting_build(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(GraphSpec, "build", counting_build)
        suite = make_suite()  # 2 graph specs x 2 algorithms
        suite.run()
        assert len(calls) == 2
        assert set(calls) == {scenario.graph for scenario in suite}

    def test_unhashable_param_still_runs(self):
        spec = GraphSpec("circulant", {"n": 17, "offsets": np.array([1, 3])})
        with pytest.raises(TypeError):
            hash(spec)
        suite = ScenarioSuite(
            tuple(
                Scenario(
                    graph=spec,
                    algorithm=AlgorithmSpec(name),
                    loads=LoadSpec("point_mass", {"tokens": 170}),
                    stop=StopRule.fixed(10),
                )
                for name in ("send_floor", "rotor_router")
            )
        )
        outcomes = suite.run()
        assert [outcome.graph.num_nodes for outcome in outcomes] == [17, 17]
        assert canonical_records(outcomes) == canonical_records(
            run_scenarios(suite)
        )


class TestAmbientReplicaSplitting:
    def test_serial_run_honors_max_replicas_per_shard(self, monkeypatch):
        suite = make_suite()
        expected = canonical_records(run_scenarios(suite))
        ranges = []
        original = Scenario.run

        def recording_run(self, graph=None, replica_range=None):
            ranges.append(replica_range)
            return original(self, graph=graph, replica_range=replica_range)

        monkeypatch.setattr(Scenario, "run", recording_run)
        with configure(max_replicas_per_shard=1):
            outcomes = suite.run()
        assert len(ranges) == sum(scenario.replicas for scenario in suite)
        assert all(len(r) == 1 for r in ranges)
        assert canonical_records(outcomes) == expected
