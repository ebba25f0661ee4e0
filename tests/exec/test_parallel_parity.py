"""Parity: parallel == serial == cached replay, bit-identical.

These are the executor's acceptance tests.  "Bit-identical" is checked
on the canonical JSON of every :class:`~repro.core.trace.RunRecord`
(replica index, rounds, engine summary, probe scalars, and every trace
column), across worker counts, replica-axis splitting, cached replay,
and both engines (send_floor rides the structured engine,
arbitrary_rounding_fixed is dense-only), with probes and dynamics
attached throughout.
"""

from dataclasses import replace

import pytest

from repro.exec import (
    ResultCache,
    SuiteExecutionError,
    SuiteExecutor,
    configure,
    run_suite,
)
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    ProbeSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)

from tests.exec.factories import canonical_records, make_suite
from tests.helpers import run_per_replica, run_scenarios


class TestWorkerParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fixed_rounds_parity(self, suite, serial_records, workers):
        report = run_suite(suite, workers=workers)
        assert canonical_records(report.outcomes) == serial_records
        assert report.computed == len(report.shards)
        assert report.cached == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_until_parity(self, workers):
        suite = make_suite(
            dynamics=None,
            stop=StopRule.discrepancy(
                target=4, max_rounds=60, check_every=2
            ),
            name="exec-parity-until",
        )
        serial = canonical_records(run_scenarios(suite))
        report = run_suite(suite, workers=workers)
        assert canonical_records(report.outcomes) == serial

    def test_replica_split_parity(self, suite, serial_records):
        report = run_suite(suite, max_replicas_per_shard=1)
        assert len(report.shards) == sum(s.replicas for s in suite)
        assert canonical_records(report.outcomes) == serial_records

    def test_replica_split_parallel_parity(self, suite, serial_records):
        report = run_suite(
            suite, workers=2, max_replicas_per_shard=1
        )
        assert canonical_records(report.outcomes) == serial_records

    def test_serial_matches_per_replica_simulators(
        self, suite, serial_records
    ):
        assert serial_records == canonical_records(
            [run_per_replica(scenario) for scenario in suite]
        )

    def test_sends_probes_parallel_parity(self):
        suite = make_suite(name="exec-parity-sends")
        suite = ScenarioSuite(
            tuple(
                replace(scenario, probes=(ProbeSpec("flows"),))
                for scenario in suite
            )
        )
        report = run_suite(suite, workers=2, max_replicas_per_shard=1)
        assert canonical_records(report.outcomes) == canonical_records(
            [run_per_replica(scenario) for scenario in suite]
        )

    def test_replica_summaries_match_serial(self, suite):
        serial = [
            outcome.replica_summary(replica)
            for outcome in run_scenarios(suite)
            for replica in range(len(outcome))
        ]
        report = run_suite(suite, workers=2)
        parallel = [
            outcome.replica_summary(replica)
            for outcome in report.outcomes
            for replica in range(len(outcome))
        ]
        assert parallel == serial


class TestCachedReplayParity:
    def test_cached_replay_is_bit_identical(
        self, suite, serial_records, tmp_path
    ):
        cache = ResultCache(tmp_path)
        first = run_suite(suite, cache=cache)
        assert canonical_records(first.outcomes) == serial_records

        replay = run_suite(suite, cache=cache)
        assert replay.computed == 0, "second run must execute nothing"
        assert replay.cached == len(replay.shards)
        assert canonical_records(replay.outcomes) == serial_records

    def test_parallel_run_then_serial_replay(
        self, suite, serial_records, tmp_path
    ):
        # Worker count does not shape the shard plan, so entries
        # written by a 4-worker run serve a serial rerun (and vice
        # versa).
        cache = ResultCache(tmp_path)
        run_suite(suite, workers=4, cache=cache)
        replay = run_suite(suite, workers=1, cache=cache)
        assert replay.computed == 0
        assert canonical_records(replay.outcomes) == serial_records

    def test_replica_summaries_survive_replay(self, suite, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_suite(suite, cache=cache)
        replay = run_suite(suite, cache=cache)
        rows = lambda report: [  # noqa: E731
            outcome.replica_summary(replica)
            for outcome in report.outcomes
            for replica in range(len(outcome))
        ]
        assert rows(replay) == rows(first)


class TestSuiteRunRouting:
    def test_suite_run_configured_workers(self, suite, serial_records):
        with configure(workers=2):
            outcomes = suite.run()
        assert canonical_records(outcomes) == serial_records

    def test_suite_run_configured_cache(
        self, suite, serial_records, tmp_path
    ):
        with configure(cache=tmp_path / "cache"):
            outcomes = suite.run()
            assert canonical_records(outcomes) == serial_records
            replay = suite.run()
        assert canonical_records(replay) == serial_records

    def test_ambient_configure_routes_suite_run(
        self, suite, serial_records, tmp_path
    ):
        from repro.exec import configure, current

        cache_dir = tmp_path / "ambient"
        with configure(workers=2, cache=cache_dir):
            assert current().workers == 2
            outcomes = suite.run()  # no explicit executor arguments
        assert canonical_records(outcomes) == serial_records
        assert current().workers == 1, "context must unwind"
        cache = ResultCache(cache_dir)
        assert len(cache) > 0, "ambient cache must have been used"

    def test_configure_nesting_and_disable(self, tmp_path):
        from repro.exec import configure, current

        with configure(cache=tmp_path):
            with configure(workers=3):
                assert current().workers == 3
                assert current().cache is not None
            with configure(cache=False):
                assert current().cache is None
        assert current().cache is None

    def test_configure_is_thread_scoped(self):
        import threading

        from repro.exec import configure, current

        seen = {}

        def probe():
            seen["workers"] = current().workers

        with configure(workers=4):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert current().workers == 4
        # The other thread saw its own (default) configuration, not a
        # leak from this thread's active configure block.
        assert seen["workers"] == 1


class TestFailureCapture:
    def test_failing_shard_does_not_take_down_the_rest(self, tmp_path):
        good = make_suite()
        bad = Scenario(
            graph=GraphSpec("cycle", {"n": 12}),
            algorithm=AlgorithmSpec("no_such_algorithm"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
        )
        suite = ScenarioSuite(tuple(good) + (bad,), name="with-failure")
        cache = ResultCache(tmp_path)
        with pytest.raises(SuiteExecutionError) as excinfo:
            run_suite(suite, cache=cache)
        error = excinfo.value
        assert len(error.failures) == 1
        assert "no_such_algorithm" in error.failures[0].error
        assert error.failures[0].traceback
        # Every healthy scenario completed and was cached.
        assert len(error.report.outcomes) == len(good)
        assert len(cache) == len(good)
        # Fixing nothing but re-running resumes from the cache and
        # fails only the broken shard again.
        with pytest.raises(SuiteExecutionError) as again:
            run_suite(suite, cache=cache)
        assert again.value.report.cached == len(good)
        assert again.value.report.computed == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_capture_in_both_modes(self, workers):
        bad = Scenario(
            graph=GraphSpec("cycle", {"n": 12}),
            algorithm=AlgorithmSpec("no_such_algorithm"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
        )
        suite = ScenarioSuite((bad,), name="all-bad")
        with pytest.raises(SuiteExecutionError, match="1 of 1 shards"):
            run_suite(suite, workers=workers)


class TestNonSerializableScenarios:
    def test_prebuilt_graph_rejected_with_pointer(self):
        from repro.graphs import families

        scenario = Scenario(
            graph=families.cycle(12),
            algorithm=AlgorithmSpec("send_floor"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
        )
        suite = ScenarioSuite((scenario,))
        with pytest.raises(ValueError, match="cannot be sharded"):
            SuiteExecutor(workers=2).run(suite)
        # ...but plain serial in-process execution still works.
        outcomes = suite.run()
        assert len(outcomes) == 1

    def test_serial_override_run_skips_serialization(self, tmp_path):
        # With a graph override the cache is bypassed, so a serial
        # executor must not demand serializability it will never use
        # (probe factories are legal in-process but not cacheable).
        from repro.core.monitors import LoadBoundsMonitor

        spec = GraphSpec("cycle", {"n": 12})
        scenario = Scenario(
            graph=spec,
            algorithm=AlgorithmSpec("send_floor"),
            loads=LoadSpec("point_mass", {"tokens": 120}),
            stop=StopRule.fixed(10),
            probes=(LoadBoundsMonitor,),
        )
        suite = ScenarioSuite((scenario,))
        from repro.exec import ResultCache

        report = SuiteExecutor(cache=ResultCache(tmp_path)).run(
            suite, graph=spec.build()
        )
        assert len(report.outcomes) == 1


class TestFailureMessageHonesty:
    def _bad_suite(self):
        return ScenarioSuite((
            Scenario(
                graph=GraphSpec("cycle", {"n": 12}),
                algorithm=AlgorithmSpec("no_such_algorithm"),
                loads=LoadSpec("point_mass", {"tokens": 120}),
                stop=StopRule.fixed(10),
            ),
        ))

    def test_without_cache_no_resume_promise(self):
        with pytest.raises(
            SuiteExecutionError, match="no cache configured"
        ):
            run_suite(self._bad_suite())

    def test_with_cache_promises_resume(self, tmp_path):
        with pytest.raises(
            SuiteExecutionError, match="re-run to resume"
        ):
            run_suite(self._bad_suite(), cache=tmp_path)
