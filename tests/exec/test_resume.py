"""Crash-resume: an interrupted suite completes with identical records.

The "crash" is injected by making shard execution die partway through
the plan — exactly what a SIGKILL / power loss during a long sweep
looks like to the cache, including the torn-write case (the entry
being written when the process died is unreadable and must be
recomputed, which the atomic temp-file rename prevents from ever
happening in the first place; the torn case is tested by corrupting a
file by hand in ``test_cache_safety``).
"""

import pytest

import repro.exec.runner as runner_module
from repro.exec import ResultCache, SuiteExecutionError, run_suite

from tests.exec.factories import canonical_records, make_suite
from tests.helpers import run_scenarios


class _DieAfter:
    """Wraps Scenario.run so the Nth shard execution raises."""

    def __init__(self, allowed: int):
        self.allowed = allowed
        self.calls = 0

    def install(self, monkeypatch):
        from repro.scenarios.spec import Scenario

        original = Scenario.run
        wrapper = self

        def run(self, *args, **kwargs):
            wrapper.calls += 1
            if wrapper.calls > wrapper.allowed:
                raise KeyboardInterrupt("simulated crash mid-suite")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Scenario, "run", run)


class TestCrashResume:
    def test_resume_recomputes_only_missing_shards(
        self, suite, serial_records, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        total = len(suite)
        survive = 2

        crash = _DieAfter(survive)
        crash.install(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_suite(suite, cache=cache)
        monkeypatch.undo()

        # The crash left exactly the completed shards in the cache.
        assert len(cache) == survive

        resumed = run_suite(suite, cache=cache)
        assert resumed.cached == survive
        assert resumed.computed == total - survive
        assert canonical_records(resumed.outcomes) == serial_records

    def test_resume_after_captured_failures(
        self, suite, serial_records, tmp_path, monkeypatch
    ):
        # Same shape, but with per-shard failure *capture* (a shard
        # raising an ordinary error) instead of a hard crash: the
        # executor finishes the healthy shards, caches them, and the
        # rerun recomputes only the previously failing ones.
        cache = ResultCache(tmp_path)
        total = len(suite)

        class _FailLast(_DieAfter):
            def install(self, monkeypatch):
                from repro.scenarios.spec import Scenario

                original = Scenario.run
                wrapper = self

                def run(self, *args, **kwargs):
                    wrapper.calls += 1
                    if wrapper.calls > wrapper.allowed:
                        raise RuntimeError("transient shard failure")
                    return original(self, *args, **kwargs)

                monkeypatch.setattr(Scenario, "run", run)

        failer = _FailLast(total - 1)
        failer.install(monkeypatch)
        with pytest.raises(SuiteExecutionError) as excinfo:
            run_suite(suite, cache=cache)
        monkeypatch.undo()
        assert len(excinfo.value.failures) == 1
        assert len(cache) == total - 1

        resumed = run_suite(suite, cache=cache)
        assert resumed.cached == total - 1
        assert resumed.computed == 1
        assert canonical_records(resumed.outcomes) == serial_records

    def test_pool_crash_leaves_resumable_cache(self, tmp_path):
        # Kill the parent-side collection loop after the first pool
        # result lands: completed shards are cached the moment they
        # finish, so even a mid-collection crash resumes.
        suite = make_suite()
        serial = canonical_records(run_scenarios(suite))
        cache = ResultCache(tmp_path)

        original_store = runner_module.SuiteExecutor._store
        calls = {"n": 0}

        def dying_store(self, *args, **kwargs):
            original_store(self, *args, **kwargs)
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt("simulated ^C during fan-out")

        runner_module.SuiteExecutor._store = dying_store
        try:
            with pytest.raises(KeyboardInterrupt):
                run_suite(suite, workers=2, cache=cache)
        finally:
            runner_module.SuiteExecutor._store = original_store

        assert len(cache) == 2
        resumed = run_suite(suite, workers=2, cache=cache)
        assert resumed.cached == 2
        assert resumed.computed == len(suite) - 2
        assert canonical_records(resumed.outcomes) == serial
