"""Suite execution subsystem: sharding, parallel fan-out, result cache.

The pieces:

* :mod:`repro.exec.sharding` — deterministic shard plans over a
  :class:`~repro.scenarios.spec.ScenarioSuite` (per scenario, with
  optional replica-axis splitting) and content-addressed shard keys;
* :mod:`repro.exec.cache` — the crash-safe JSONL
  :class:`~repro.exec.cache.ResultCache` under ``.repro-cache/``;
* :mod:`repro.exec.runner` — :class:`SuiteExecutor`, the one suite
  runner: in-process or killable worker-pool execution, cache-hit
  skip, per-shard failure capture, ordered reassembly, crash resume —
  bit-identical records for every worker count and cached replay;
* :mod:`repro.exec.retry` — :class:`RetryPolicy` (transient-vs-
  poisoned failure classification, deterministic exponential
  backoff) plus the :class:`ShardTimeoutError` /
  :class:`WorkerCrashError` failure kinds the fault-tolerant pool
  reports;
* :mod:`repro.exec.context` — :class:`ExecConfig`, the validated
  settings every entry point shares, and the ambient :func:`configure`
  context that ``ScenarioSuite.run`` (and therefore every suite-based
  experiment driver) runs under.

Quick use::

    from repro.exec import run_suite

    report = run_suite(suite, workers=4, cache=".repro-cache")
    print(report.summary_line())   # "12 shards: 5 computed, 7 cached"
    rows = [o.replica_summary(0) for o in report.outcomes]

    with configure(workers=4, retry=3):
        outcomes = suite.run()     # same executor, ambient settings
"""

from repro.exec.cache import CacheEntry, CacheStats, ResultCache, as_cache
from repro.exec.context import ExecConfig, configure, current
from repro.exec.records import RecordedRun
from repro.exec.retry import (
    RETRYABLE_ERROR_TYPES,
    RetryPolicy,
    ShardTimeoutError,
    WorkerCrashError,
    as_retry_policy,
)
from repro.exec.runner import (
    PartialSuiteResult,
    ShardFailure,
    SuiteExecutionError,
    SuiteExecutor,
    SuiteReport,
    run_suite,
)
from repro.exec.sharding import (
    Shard,
    plan_shards,
    shard_key,
    source_fingerprint,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "as_cache",
    "ExecConfig",
    "configure",
    "current",
    "RecordedRun",
    "Shard",
    "plan_shards",
    "shard_key",
    "source_fingerprint",
    "RETRYABLE_ERROR_TYPES",
    "RetryPolicy",
    "ShardTimeoutError",
    "WorkerCrashError",
    "as_retry_policy",
    "PartialSuiteResult",
    "ShardFailure",
    "SuiteExecutionError",
    "SuiteExecutor",
    "SuiteReport",
    "run_suite",
]
