"""Chaos tests: the executor under killed, hung, and flaky workers.

Each test injects a real process-level failure — a worker SIGKILL'd
mid-shard, a shard that sleeps past its deadline, a shard that fails
transiently — and asserts the contract from the module docstring of
:mod:`repro.exec.runner`: the rest of the plan completes, healthy
shards are cached, failures are classified and retried or reported,
and whatever does complete is byte-identical to a serial run.

Fault injection rides the fork start method: workers inherit the
parent's monkeypatched ``Scenario.run``, and cross-process attempt
counters live in files under ``tmp_path``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.exec import (
    PartialSuiteResult,
    ResultCache,
    RetryPolicy,
    SuiteExecutionError,
    SuiteExecutor,
    configure,
)
from repro.scenarios.spec import Scenario

from tests.exec.factories import canonical_records

# Tight backoff keeps the whole chaos suite fast; determinism does not
# depend on the delay values.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.01, max_backoff=0.05)

# The scenario targeted by every injected fault (one shard of four).
TARGET_ALGORITHM = "arbitrary_rounding_fixed"
TARGET_GRAPH_N = 16


def _is_target(scenario: Scenario) -> bool:
    return (
        scenario.algorithm.name == TARGET_ALGORITHM
        and scenario.graph.params.get("n") == TARGET_GRAPH_N
    )


@pytest.fixture()
def sabotage(monkeypatch, tmp_path):
    """Patch ``Scenario.run`` to misbehave on the target scenario.

    ``sabotage(kind, fail_times=...)`` installs the failure mode;
    the counter file makes "fail N times, then succeed" work across
    worker processes (each attempt runs in a fresh fork).
    """
    original = Scenario.run
    counter = tmp_path / "attempts"

    def install(kind: str, fail_times: int = 10**9):
        def chaotic(self, *args, **kwargs):
            if _is_target(self):
                seen = (
                    int(counter.read_text())
                    if counter.exists()
                    else 0
                )
                if seen < fail_times:
                    counter.write_text(str(seen + 1))
                    if kind == "sigkill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    if kind == "hang":
                        time.sleep(60.0)
                    if kind == "transient":
                        raise OSError("simulated transient I/O error")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "run", chaotic)
        return counter

    return install


class TestKilledWorker:
    def test_sigkilled_worker_is_reported_not_wedged(
        self, suite, sabotage
    ):
        sabotage("sigkill")
        executor = SuiteExecutor(workers=2)
        with pytest.raises(SuiteExecutionError) as excinfo:
            executor.run(suite)
        error = excinfo.value
        assert len(error.failures) == 1
        failure = error.failures[0]
        assert "WorkerCrashError" in failure.error
        assert failure.attempts == 1  # no retry policy configured
        # Every other shard completed despite the dead worker.
        assert len(error.report.outcomes) == len(suite) - 1

    def test_crash_is_retried_and_healthy_shards_cached(
        self, suite, sabotage, tmp_path, serial_records
    ):
        counter = sabotage("sigkill", fail_times=2)
        cache = ResultCache(tmp_path / "cache")
        report = SuiteExecutor(
            workers=2, cache=cache, retry=FAST_RETRY
        ).run(suite)
        # Died twice, succeeded on the third (fresh) worker.
        assert int(counter.read_text()) == 2
        assert report.failures == []
        assert canonical_records(report.outcomes) == serial_records
        assert len(cache) == len(report.shards)


class TestHangingShard:
    def test_hung_worker_is_killed_at_the_deadline(
        self, suite, sabotage
    ):
        sabotage("hang")
        start = time.monotonic()
        with pytest.raises(SuiteExecutionError) as excinfo:
            SuiteExecutor(workers=2, timeout=1.0).run(suite)
        elapsed = time.monotonic() - start
        failure = excinfo.value.failures[0]
        assert "ShardTimeoutError" in failure.error
        # The 60 s sleep must not be waited out: the worker was killed.
        assert elapsed < 30.0
        assert len(excinfo.value.report.outcomes) == len(suite) - 1

    def test_timeout_applies_even_with_one_worker(
        self, suite, sabotage
    ):
        sabotage("hang")
        with pytest.raises(SuiteExecutionError) as excinfo:
            SuiteExecutor(workers=1, timeout=1.0).run(suite)
        assert "ShardTimeoutError" in excinfo.value.failures[0].error


class TestTransientFailure:
    def test_fails_twice_succeeds_on_retry(
        self, suite, sabotage, tmp_path, serial_records
    ):
        counter = sabotage("transient", fail_times=2)
        report = SuiteExecutor(workers=2, retry=FAST_RETRY).run(suite)
        assert int(counter.read_text()) == 2
        assert report.failures == []
        # Retried results are byte-identical to an undisturbed serial
        # run: retries replay the same deterministic shard.
        assert canonical_records(report.outcomes) == serial_records

    def test_serial_path_retries_too(
        self, suite, sabotage, tmp_path, serial_records
    ):
        counter = sabotage("transient", fail_times=2)
        with configure(retry=FAST_RETRY):
            outcomes = suite.run()
        assert int(counter.read_text()) == 2
        assert canonical_records(outcomes) == serial_records

    def test_poisoned_shard_fails_fast(self, suite, sabotage, tmp_path):
        counter = sabotage("transient", fail_times=10**9)
        policy = RetryPolicy(
            max_attempts=5,
            backoff=0.01,
            retryable=frozenset({"ShardTimeoutError"}),  # OSError: poison
        )
        with pytest.raises(SuiteExecutionError) as excinfo:
            SuiteExecutor(workers=2, retry=policy).run(suite)
        assert excinfo.value.failures[0].attempts == 1
        assert int(counter.read_text()) == 1

    def test_retries_exhausted_reports_attempt_count(
        self, suite, sabotage
    ):
        sabotage("transient")
        with pytest.raises(SuiteExecutionError) as excinfo:
            SuiteExecutor(workers=2, retry=FAST_RETRY).run(suite)
        failure = excinfo.value.failures[0]
        assert failure.attempts == FAST_RETRY.max_attempts
        assert "OSError" in failure.error


class TestGracefulDegradation:
    def test_partial_mode_returns_survivors(self, suite, sabotage):
        sabotage("sigkill")
        with configure(workers=2, on_shard_failure="partial"):
            outcomes = suite.run()
        assert isinstance(outcomes, PartialSuiteResult)
        assert not outcomes.complete
        assert len(outcomes) == len(suite) - 1
        assert len(outcomes.failures) == 1
        assert "failed" in outcomes.summary_line()

    def test_partial_then_resume_fills_only_the_holes(
        self, suite, sabotage, tmp_path, monkeypatch, serial_records
    ):
        sabotage("sigkill")
        cache = ResultCache(tmp_path / "cache")
        with configure(workers=2, cache=cache, on_shard_failure="partial"):
            partial = suite.run()
        assert len(partial) == len(suite) - 1
        assert len(cache) == len(suite) - 1
        # The chaos ends (monkeypatch undone); resume recomputes only
        # the one missing shard and the result matches serial exactly.
        monkeypatch.undo()
        report = SuiteExecutor(workers=2, cache=cache).run(suite)
        assert report.cached == len(suite) - 1
        assert report.computed == 1
        assert canonical_records(report.outcomes) == serial_records

    def test_error_message_carries_repro_details(
        self, suite, sabotage, tmp_path
    ):
        sabotage("sigkill")
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SuiteExecutionError) as excinfo:
            SuiteExecutor(workers=2, cache=cache).run(suite)
        message = str(excinfo.value)
        failure = excinfo.value.failures[0]
        assert failure.content_hash[:12] in message
        start, stop = (
            failure.shard.replica_start,
            failure.shard.replica_stop,
        )
        assert f"replicas {start}:{stop}" in message
        assert "repro-lb scenario" in message
        assert "--resume" in message
        assert f"--cache-dir {cache.root}" in message


class TestChaosParity:
    def test_survivor_records_match_serial_byte_for_byte(
        self, suite, sabotage, serial_records
    ):
        """Chaos must never corrupt what *does* complete."""
        sabotage("sigkill")
        with configure(workers=2, on_shard_failure="partial"):
            outcomes = suite.run()
        survivor_labels = {
            outcome.scenario.label() for outcome in outcomes
        }
        expected = [
            records
            for scenario, records in zip(suite, serial_records)
            if scenario.label() in survivor_labels
        ]
        assert canonical_records(outcomes) == expected

    def test_ambient_configure_drives_fault_tolerance(
        self, suite, sabotage, tmp_path, serial_records
    ):
        """Drivers inherit retries/timeouts without any plumbing."""
        sabotage("transient", fail_times=2)
        with configure(
            workers=2, retry=FAST_RETRY, timeout=120.0
        ):
            outcomes = suite.run()
        assert canonical_records(outcomes) == serial_records
