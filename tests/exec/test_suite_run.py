"""``ScenarioSuite.run`` is one path: ``SuiteExecutor`` on the ambient config.

Covers what used to differ between the serial loop and the executor:
setting validation at every entry point, graph build sharing (in the
calling process, on the serial and the pool path alike), graph
overrides, failure reporting (with the in-process exception chained),
and ambient replica splitting.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.exec import (
    ResultCache,
    SuiteExecutionError,
    SuiteExecutor,
    configure,
    current,
    run_suite,
)
from repro.graphs import families
from repro.graphs.errors import GraphConstructionError
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


# The three ways a suite's shards run: in-process, on the 2-worker
# pool, and on the pool at workers=1 (a timeout needs a killable
# worker).
ROUTES = [{}, {"workers": 2}, {"timeout": 60.0}]


def _route_id(settings: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in settings.items()) or "serial"


def _count_process_starts(monkeypatch) -> list:
    """Record every worker process the executor starts from here."""
    started = []
    original = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", counting_start
    )
    return started


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

    @pytest.mark.parametrize(
        "settings", ROUTES, ids=[_route_id(r) for r in ROUTES]
    )
    def test_graph_build_failure_is_a_shard_failure(
        self, settings, tmp_path, monkeypatch
    ):
        good = make_suite().scenarios[0]
        bad_spec = GraphSpec("no_such_family", {"n": 12})
        bad = replace(good, graph=bad_spec)
        with pytest.raises(GraphConstructionError) as direct:
            bad_spec.build()
        started = _count_process_starts(monkeypatch)
        cache = ResultCache(tmp_path)
        with configure(**settings, retry=3, cache=cache):
            with pytest.raises(
                SuiteExecutionError, match="1 of 2 shards"
            ) as excinfo:
                ScenarioSuite((bad, good)).run()
        (failure,) = excinfo.value.failures
        # The same "TypeName: message" on every path, and a bad spec is
        # poisoned: no retry, however many attempts are allowed.
        assert failure.error == (
            f"{type(direct.value).__name__}: {direct.value}"
        )
        assert failure.attempts == 1
        # The build ran in this process, so its exception is chained.
        assert isinstance(excinfo.value.__cause__, GraphConstructionError)
        # No worker was started for the broken shard; the healthy one
        # still ran and was cached.
        assert len(started) == (0 if settings == {} else 1)
        assert len(excinfo.value.report.outcomes) == 1
        assert len(cache) == 1

    def test_partial_mode_returns_survivors(self):
        suite = ScenarioSuite(tuple(make_suite()) + tuple(_poisoned_suite()))
        with configure(on_shard_failure="partial"):
            outcomes = suite.run()
        assert len(outcomes) == len(suite) - 1
        assert not outcomes.complete
        assert "KeyError" in outcomes.failures[0].error


def _log_builds(monkeypatch, log) -> None:
    """Append ``pid family`` to ``log`` on every ``GraphSpec.build``,
    from whichever process builds (forked workers inherit the patch)."""
    original = GraphSpec.build

    def logging_build(self):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {self.family}\n")
        return original(self)

    monkeypatch.setattr(GraphSpec, "build", logging_build)


def _builds(log) -> list[tuple[int, str]]:
    if not log.exists():
        return []
    return [
        (int(pid), family)
        for pid, family in map(str.split, log.read_text().splitlines())
    ]


class TestGraphSharing:
    @pytest.mark.parametrize(
        "settings", ROUTES, ids=[_route_id(r) for r in ROUTES]
    )
    def test_build_once_per_distinct_spec(
        self, settings, tmp_path, monkeypatch
    ):
        log = tmp_path / "builds"
        _log_builds(monkeypatch, log)
        suite = make_suite()  # 2 graph specs x 2 algorithms
        with configure(**settings, max_replicas_per_shard=1):
            suite.run()  # 8 shards
        builds = _builds(log)
        assert sorted(family for _, family in builds) == sorted(
            {scenario.graph.family for scenario in suite}
        )
        assert {pid for pid, _ in builds} == {os.getpid()}

    def test_pool_builds_only_for_pending_shards(
        self, tmp_path, monkeypatch
    ):
        suite = make_suite()
        cycle_only = ScenarioSuite(
            tuple(s for s in suite if s.graph.family == "cycle")
        )
        cache = ResultCache(tmp_path / "cache")
        log = tmp_path / "builds"
        _log_builds(monkeypatch, log)
        run_suite(cycle_only, workers=2, cache=cache)
        assert _builds(log) == [(os.getpid(), "cycle")]
        log.unlink()
        # Half cached: only the random_regular shards are pending.
        report = run_suite(suite, workers=2, cache=cache)
        assert (report.cached, report.computed) == (2, 2)
        assert _builds(log) == [(os.getpid(), "random_regular")]
        log.unlink()
        # Fully cached: nothing to build.
        report = run_suite(suite, workers=2, cache=cache)
        assert report.computed == 0
        assert _builds(log) == []

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


class TestGraphOverride:
    """A ``graph=`` override is the graph of every shard, on every path."""

    def _suite(self) -> ScenarioSuite:
        return ScenarioSuite(
            tuple(
                Scenario(
                    graph=GraphSpec("cycle", {"n": 12}),
                    algorithm=AlgorithmSpec(name, seed=1),
                    loads=LoadSpec("point_mass", {"tokens": 120}),
                    stop=StopRule.fixed(5),
                    replicas=2,
                )
                for name in ("send_floor", "rotor_router")
            )
        )

    def test_override_reaches_every_path(self):
        suite = self._suite()
        override = families.build("complete", n=12)
        expected = canonical_records(run_scenarios(suite, graph=override))
        # The override changes the outcome, so a path that ignored it
        # (rebuilding the cycle from the spec) could not match.
        assert expected != canonical_records(run_scenarios(suite))
        for settings in ROUTES:
            with configure(**settings, max_replicas_per_shard=1):
                outcomes = suite.run(graph=override)
            assert canonical_records(outcomes) == expected, settings

    def test_pool_override_neither_reads_nor_writes_the_cache(
        self, tmp_path
    ):
        suite = self._suite()
        override = families.build("complete", n=12)
        expected = canonical_records(run_scenarios(suite, graph=override))
        cache = ResultCache(tmp_path)
        executor = SuiteExecutor(workers=2, cache=cache)
        report = executor.run(suite, graph=override)
        assert (report.cached, len(cache)) == (0, 0)
        # Warm the cache with the spec-built results: an override run
        # must still compute, on the override.
        executor.run(suite)
        assert len(cache) == 2
        report = executor.run(suite, graph=override)
        assert (report.cached, report.computed) == (0, 2)
        assert canonical_records(report.outcomes) == expected
        assert len(cache) == 2


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
