"""Sharded suite execution: process-pool fan-out, caching, resume.

:class:`SuiteExecutor` is the one way a
:class:`~repro.scenarios.spec.ScenarioSuite` runs
(``ScenarioSuite.run`` calls it with the ambient
:func:`repro.exec.configure` settings).  It turns the suite into a
deterministic shard plan (see :mod:`repro.exec.sharding`), satisfies
shards from the content-addressed
:class:`~repro.exec.cache.ResultCache` where possible, computes the
rest either in-process (``workers=1``, no timeout) or on a managed
worker-process pool, and reassembles per-scenario outcomes in suite
order regardless of completion order.

Graphs are built in the calling process on both paths: each distinct
``GraphSpec`` of the pending shards once, when the first shard that
needs it is dispatched (a fully cached replay builds nothing).  Forked
workers inherit the built graph, and the scipy/networkx imports its
build warmed, copy-on-write; on a platform without ``fork`` the graph
is pickled with the worker's arguments.  A caller's ``graph=``
override is simply the graph every shard gets.  Builds run outside the
per-shard ``timeout``, and a failing build is that shard's failure
(no worker is started for it).

Guarantees:

* **Bit-identical results.**  Every shard runs ``Scenario.run`` on its
  absolute replica range, so the reassembled
  :class:`~repro.core.trace.RunRecord`\\ s are byte-identical
  (canonical JSON) for every worker count, replica split and cached
  replay, and to one plain ``Scenario.run`` per scenario — property-
  tested in ``tests/exec/``.
* **Per-shard failure capture.**  A failing shard never takes down the
  others: every completed shard is still cached, and the failures are
  raised together afterwards as :class:`SuiteExecutionError` (chaining
  the first in-process exception as its ``__cause__``), or reported on
  the :class:`SuiteReport` under ``on_shard_failure="partial"``.
* **Fault-tolerant execution.**  A :class:`~repro.exec.retry.\
RetryPolicy` re-attempts shards whose failures look transient
  (timeouts, worker crashes, I/O errors) with deterministic
  exponential backoff; poisoned shards (bad specs) fail fast.  A
  per-shard ``timeout`` kills hung or wedged workers — the pool is
  a hand-rolled ``multiprocessing`` fan-out precisely because
  ``ProcessPoolExecutor`` cannot cancel a running task: a SIGKILL'd
  or sleeping worker must not wedge the whole suite.
* **Crash resume.**  Each shard's records hit the cache the moment the
  shard completes, so re-running an interrupted suite recomputes only
  the missing shards.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro.core.trace import RunRecord
from repro.exec.cache import ResultCache
from repro.exec.context import ExecConfig
from repro.exec.records import RecordedRun
from repro.exec.retry import RetryPolicy, ShardTimeoutError, WorkerCrashError
from repro.exec.sharding import Shard, plan_shards, shard_key
from repro.graphs.balancing import BalancingGraph
from repro.scenarios.spec import (
    GraphSpec,
    Scenario,
    ScenarioResult,
    ScenarioSuite,
)


@dataclass(frozen=True)
class ShardFailure:
    """One shard's captured failure (error + full worker traceback).

    Attributes:
        shard: the failed work unit.
        label: human-readable scenario + replica-range label.
        error: ``"TypeName: message"`` of the final failure.
        traceback: full traceback text from the failing attempt.
        content_hash: the failed scenario's content hash — pin it in a
            bug report and anyone can rebuild the exact failing spec.
        attempts: how many attempts were made (1 = failed first try).
    """

    shard: Shard
    label: str
    error: str
    traceback: str
    content_hash: str = ""
    attempts: int = 1


class SuiteExecutionError(RuntimeError):
    """One or more shards failed; the rest completed.

    The message carries everything needed to act on the failure
    without re-running the suite: each failed shard's scenario
    content hash and replica range, plus a copy-pasteable
    ``repro-lb scenario ... --resume`` command (completed shards are
    cached, so the resume run recomputes only the holes).  A failure
    of an in-process shard is chained as ``__cause__``.

    Attributes:
        failures: per-shard failure details.
        report: the partial :class:`SuiteReport` (completed scenarios
            only) — useful for salvage and diagnostics.
        cache_root: the attached cache's directory, or None.
    """

    def __init__(
        self,
        failures: list[ShardFailure],
        report: "SuiteReport",
        cache_root: str | None = None,
    ) -> None:
        self.failures = failures
        self.report = report
        self.cache_root = cache_root
        super().__init__(self.describe())

    def describe(self, spec_path: str = "<suite.json>") -> str:
        """The error message, its resume command naming ``spec_path``."""
        hint = (
            "completed shards were cached; re-run to resume"
            if self.cache_root is not None
            else "no cache configured, so completed work was "
            "discarded; attach a cache to make reruns resume"
        )
        lines = [
            f"{len(self.failures)} of {len(self.report.shards)} shards "
            f"failed ({hint}):"
        ]
        for f in self.failures:
            detail = (
                f"replicas {f.shard.replica_start}:"
                f"{f.shard.replica_stop}"
            )
            if f.content_hash:
                detail += f", scenario {f.content_hash[:12]}"
            if f.attempts > 1:
                detail += f", {f.attempts} attempts"
            lines.append(
                f"  [{f.shard.scenario_index}] {f.label} "
                f"({detail}): {f.error}"
            )
        if self.cache_root is not None:
            command = f"repro-lb scenario {spec_path} --resume"
            if self.cache_root != ".repro-cache":
                command += f" --cache-dir {self.cache_root}"
            lines.append(f"resume with: {command}")
        return "\n".join(lines)


@dataclass
class SuiteReport:
    """Everything one suite execution produced.

    Attributes:
        suite: the executed suite.
        outcomes: one :class:`ScenarioResult` per completed scenario,
            in suite order (all of them, unless shards failed).
        shards: the deterministic shard plan.
        computed: shards actually executed this run.
        cached: shards satisfied from the result cache.
        failures: captured shard failures (empty on success).
        workers: the worker count used.
    """

    suite: ScenarioSuite
    outcomes: list[ScenarioResult]
    shards: list[Shard]
    computed: int
    cached: int
    failures: list[ShardFailure] = field(default_factory=list)
    workers: int = 1

    @property
    def records(self) -> list[list[RunRecord]]:
        """Per-scenario record lists, in suite order."""
        return [outcome.records for outcome in self.outcomes]

    def summary_line(self) -> str:
        return (
            f"{len(self.shards)} shards: {self.computed} computed, "
            f"{self.cached} cached (workers={self.workers})"
        )


class PartialSuiteResult(list):
    """Completed scenario outcomes plus the failures that were tolerated.

    Returned by ``ScenarioSuite.run()`` under
    ``configure(on_shard_failure="partial")``.
    A plain ``list`` subclass, so analysis code that iterates scenario
    outcomes works unchanged — check :attr:`complete` / :attr:`failures`
    to find the holes.  Completed shards were cached (when a cache is
    attached), so a later ``--resume`` run fills only the holes.
    """

    def __init__(
        self, outcomes: list[ScenarioResult], report: SuiteReport
    ) -> None:
        super().__init__(outcomes)
        self.report = report
        self.failures = report.failures

    @property
    def complete(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        line = self.report.summary_line()
        if self.failures:
            line += f", {len(self.failures)} failed"
        return line


def _shard_task(payload: dict, graph) -> dict:
    """Worker-side execution of one shard on the parent-built ``graph``
    (top level: picklable).

    Scenarios travel as their canonical dictionaries and results come
    back as record dictionaries, so apart from the graph the process
    boundary only carries the same JSON-shaped data the cache persists.
    """
    scenario = Scenario.from_dict(payload["scenario"])
    result = scenario.run(
        graph=graph,
        replica_range=range(
            payload["replica_start"], payload["replica_stop"]
        ),
    )
    return {"records": [record.to_dict() for record in result.records]}


def _proc_main(conn, payload: dict, graph) -> None:
    """Worker-process entry: run one shard, ship the outcome back.

    The protocol is one message per worker: ``("ok", outcome)`` or
    ``("err", type_name, message, traceback)``.  A worker that dies
    before sending anything (SIGKILL, segfault, OOM kill) leaves the
    pipe at EOF, which the parent reports as
    :class:`~repro.exec.retry.WorkerCrashError`.
    """
    try:
        outcome = _shard_task(payload, graph)
        message = ("ok", outcome)
    except BaseException as exc:
        message = (
            "err",
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        )
    try:
        conn.send(message)
    finally:
        conn.close()


def _mp_context():
    """Fork when the platform offers it, else the platform default.

    Forked workers inherit the parent's loaded modules (no re-import
    cost per shard), the graphs it built and its in-process state —
    which is also what lets the chaos tests monkeypatch fault
    injection into workers.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class _RunningShard:
    """Parent-side bookkeeping for one in-flight worker process."""

    index: int
    attempt: int
    proc: object
    deadline: float | None


class SuiteExecutor:
    """Sharded (optionally parallel, cached, fault-tolerant) runner.

    Args:
        workers: process fan-out; 1 executes shards in-process
            (unless a ``timeout`` forces the killable worker pool).
        cache: a :class:`ResultCache`, a directory path, or None.
        max_replicas_per_shard: split scenario replica axes into
            chunks of at most this size (None = shard per scenario).
        retry: a :class:`~repro.exec.retry.RetryPolicy`, an attempt
            count, or None (single attempt).  Transient failures are
            re-attempted with deterministic backoff; poisoned shards
            fail fast.
        timeout: per-shard wall-clock budget in seconds.  A shard
            over budget has its worker killed and is recorded (or
            retried) as :class:`~repro.exec.retry.ShardTimeoutError`.
            Requires process isolation, so ``timeout`` routes even
            ``workers=1`` runs through the worker pool.
        on_shard_failure: ``"raise"`` (default) raises
            :class:`SuiteExecutionError` after all shards settle;
            ``"partial"`` returns the report with
            :attr:`SuiteReport.failures` populated — graceful
            degradation for long sweeps where a lost shard should not
            discard the other results.

    The arguments are checked and kept as one
    :class:`~repro.exec.context.ExecConfig` (``self.config``), the
    same type :func:`~repro.exec.context.configure` builds.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | None = None,
        max_replicas_per_shard: int | None = None,
        retry: RetryPolicy | int | None = None,
        timeout: float | None = None,
        on_shard_failure: str = "raise",
    ) -> None:
        self.config = ExecConfig(
            workers=workers,
            cache=cache,
            max_replicas_per_shard=max_replicas_per_shard,
            retry=retry,
            timeout=timeout,
            on_shard_failure=on_shard_failure,
        )

    # ------------------------------------------------------------------

    def run(self, suite: ScenarioSuite, graph=None) -> SuiteReport:
        """Execute ``suite``; see the module docstring for guarantees.

        ``graph`` is a prebuilt-graph override, only legal when every
        scenario shares one graph spec.  Every shard runs on it, in
        process or in a worker, and no spec is built.  An override
        bypasses the cache entirely (no reads, no writes): the cache
        key cannot attest a caller-supplied object, and a stored
        spec-built result is not an answer about the override.

        Spec graphs are built in this process, once per distinct spec,
        outside any per-shard ``timeout``.
        """
        config = self.config
        scenarios = list(suite)
        if graph is not None and scenarios:
            first = scenarios[0].graph
            if any(s.graph != first for s in scenarios[1:]):
                raise ValueError(
                    "graph= override is only valid when every scenario "
                    "in the suite shares one graph spec; this suite "
                    "sweeps multiple graphs"
                )
        shards = plan_shards(suite, config.max_replicas_per_shard)
        # The cache key attests the *spec*, so an override run neither
        # reads nor writes it.
        cache = config.cache if graph is None else None
        use_pool = config.workers > 1 or config.timeout is not None
        payloads = self._payloads(scenarios, shards, cache, use_pool)
        keys = None
        if cache is not None:
            try:
                keys = [
                    shard_key(scenarios[shard.scenario_index], shard)
                    for shard in shards
                ]
            except TypeError as exc:
                raise ValueError(
                    "suite cannot be cached: scenario params are not "
                    f"plain JSON values ({exc}); run with the cache "
                    "disabled or use JSON-serializable params"
                ) from exc

        parts: dict[int, ScenarioResult] = {}
        failures: list[ShardFailure] = []
        cause = None
        cached = 0
        pending: list[int] = []
        for index, shard in enumerate(shards):
            entry = (
                cache.get(keys[index]) if cache is not None else None
            )
            if entry is None:
                pending.append(index)
                continue
            cached += 1
            scenario = scenarios[shard.scenario_index]
            parts[index] = _result_from_records(scenario, entry.records)

        if pending:
            if use_pool:
                cause = self._compute_pool(
                    pending, shards, scenarios, payloads, keys, parts,
                    failures, graph,
                )
            else:
                cause = self._compute_serial(
                    pending, shards, scenarios, keys, parts, failures,
                    graph,
                )

        outcomes = self._reassemble(scenarios, shards, parts)
        report = SuiteReport(
            suite=suite,
            outcomes=outcomes,
            shards=shards,
            computed=len(parts) - cached,
            cached=cached,
            failures=failures,
            workers=config.workers,
        )
        if failures and config.on_shard_failure == "raise":
            raise SuiteExecutionError(
                failures,
                report,
                cache_root=(
                    str(cache.root) if cache is not None else None
                ),
            ) from cause
        return report

    # ------------------------------------------------------------------

    def _payloads(
        self,
        scenarios: list[Scenario],
        shards: list[Shard],
        cache: ResultCache | None,
        use_pool: bool,
    ) -> list[dict] | None:
        """Serialized shard payloads (None when staying in-process).

        Caching and process fan-out both require canonically
        serializable scenarios; the error points at the offender
        instead of failing deep inside a worker.  ``cache`` is the
        *effective* cache (after any graph-override bypass), so a
        serial override run is not asked to serialize anything.
        """
        if cache is None and not use_pool:
            return None
        dicts: dict[int, dict] = {}
        for index, scenario in enumerate(scenarios):
            try:
                dicts[index] = scenario.to_dict()
            except ValueError as exc:
                raise ValueError(
                    f"scenario {scenario.name or scenario.label()!r} "
                    "cannot be sharded across processes or cached: "
                    f"{exc}"
                ) from exc
        return [
            {
                "scenario": dicts[shard.scenario_index],
                "replica_start": shard.replica_start,
                "replica_stop": shard.replica_stop,
            }
            for shard in shards
        ]

    def _store(
        self,
        keys: list[str] | None,
        index: int,
        shard: Shard,
        scenario: Scenario,
        records: list[RunRecord],
    ) -> None:
        if keys is None:
            return
        self.config.cache.put(
            keys[index],
            records,
            meta={
                "scenario": shard.label(scenario),
                "replicas": [shard.replica_start, shard.replica_stop],
            },
        )

    def _retry_or_record(
        self, failures, shards, scenarios, keys, index, attempt,
        error_type: str, message: str, error_traceback: str,
    ) -> float | None:
        """Seconds to wait before re-attempting a failed shard, or None
        once its failure is recorded (poisoned, or out of attempts).

        Backoff jitter is keyed by the shard's cache key (or its plan
        index when uncached), so a retried run is deterministic.
        """
        retry = self.config.retry
        if retry is not None and retry.should_retry(error_type, attempt):
            key = keys[index] if keys is not None else f"shard:{index}"
            return retry.delay(key, attempt)
        shard = shards[index]
        scenario = scenarios[shard.scenario_index]
        failures.append(
            ShardFailure(
                shard=shard,
                label=shard.label(scenario),
                error=f"{error_type}: {message}",
                traceback=error_traceback,
                content_hash=scenario.content_hash(),
                attempts=attempt,
            )
        )
        return None

    def _compute_serial(
        self, pending, shards, scenarios, keys, parts, failures, graph
    ) -> Exception | None:
        """Run shards in-process; returns the exception behind the first
        recorded failure, so the suite error can chain it."""
        cause = None
        graph_cache: dict[GraphSpec, BalancingGraph] = {}
        for index in pending:
            shard = shards[index]
            scenario = scenarios[shard.scenario_index]
            attempt = 1
            while True:
                try:
                    result = scenario.run(
                        graph=_shard_graph(graph_cache, graph, scenario),
                        replica_range=shard.replica_range,
                    )
                except Exception as exc:
                    delay = self._retry_or_record(
                        failures, shards, scenarios, keys, index,
                        attempt, type(exc).__name__, str(exc),
                        traceback.format_exc(),
                    )
                    if delay is None:
                        cause = exc if cause is None else cause
                        break
                    time.sleep(delay)
                    attempt += 1
                    continue
                parts[index] = result
                # No-op under a graph override: run() detached the cache.
                self._store(keys, index, shard, scenario, result.records)
                break
        return cause

    def _compute_pool(
        self, pending, shards, scenarios, payloads, keys, parts, failures,
        graph,
    ) -> Exception | None:
        """Fan shards out over killable worker processes.

        Hand-rolled on ``multiprocessing.Pipe`` + ``connection.wait``
        rather than ``ProcessPoolExecutor`` because the pool must be
        able to *cancel a running shard*: a hung or SIGKILL'd worker is
        detected (deadline expiry / pipe EOF), killed if needed, and
        its shard retried or recorded — the rest of the plan keeps
        flowing on fresh workers either way.

        A shard's graph is resolved here, before its worker starts, so
        a failing build is recorded like the serial path records it and
        is returned (the first such exception) for the suite error to
        chain; worker failures cross the process boundary as text only.
        """
        ctx = _mp_context()
        timeout = self.config.timeout
        max_workers = min(self.config.workers, len(pending))
        queue: list[tuple[int, int]] = [(i, 1) for i in pending]
        queue.reverse()  # pop() serves shards in plan order
        delayed: list[tuple[float, int, int]] = []  # (ready_at, idx, att)
        running: dict[object, _RunningShard] = {}
        graph_cache: dict[GraphSpec, BalancingGraph] = {}
        cause = None

        def _requeue_or_record(
            index: int, attempt: int, name: str, message: str, tb: str
        ) -> bool:
            """Schedule a retry; False once the failure is recorded."""
            delay = self._retry_or_record(
                failures, shards, scenarios, keys, index, attempt,
                name, message, tb,
            )
            if delay is None:
                return False
            heapq.heappush(
                delayed, (time.monotonic() + delay, index, attempt + 1)
            )
            return True

        def _settle(conn, job: _RunningShard, message) -> None:
            job.proc.join()
            conn.close()
            if message is None:
                _requeue_or_record(
                    job.index, job.attempt, WorkerCrashError.__name__,
                    "worker process died before reporting a result "
                    "(killed or crashed)",
                    "WorkerCrashError: worker process died before "
                    "reporting a result\n",
                )
                return
            if message[0] == "err":
                _, name, text, tb = message
                _requeue_or_record(job.index, job.attempt, name, text, tb)
                return
            outcome = message[1]
            index = job.index
            shard = shards[index]
            scenario = scenarios[shard.scenario_index]
            records = [
                RunRecord.from_dict(data)
                for data in outcome["records"]
            ]
            parts[index] = _result_from_records(scenario, records)
            self._store(keys, index, shard, scenario, records)

        try:
            while queue or delayed or running:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt = heapq.heappop(delayed)
                    queue.append((index, attempt))
                while queue and len(running) < max_workers:
                    index, attempt = queue.pop()
                    scenario = scenarios[shards[index].scenario_index]
                    try:
                        shard_graph = _shard_graph(
                            graph_cache, graph, scenario
                        )
                    except Exception as exc:
                        retried = _requeue_or_record(
                            index, attempt, type(exc).__name__, str(exc),
                            traceback.format_exc(),
                        )
                        if not retried and cause is None:
                            cause = exc
                        continue
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_proc_main,
                        args=(child_conn, payloads[index], shard_graph),
                        daemon=True,
                    )
                    proc.start()
                    child_conn.close()
                    deadline = (
                        time.monotonic() + timeout
                        if timeout is not None
                        else None
                    )
                    running[parent_conn] = _RunningShard(
                        index=index, attempt=attempt, proc=proc,
                        deadline=deadline,
                    )
                if not running:
                    # Only backoff-delayed retries remain.
                    if delayed:
                        pause = delayed[0][0] - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue
                waits = [
                    job.deadline
                    for job in running.values()
                    if job.deadline is not None
                ]
                if delayed:
                    waits.append(delayed[0][0])
                wait_timeout = None
                if waits:
                    wait_timeout = max(
                        0.0, min(waits) - time.monotonic()
                    )
                ready = mp_connection.wait(
                    list(running), timeout=wait_timeout
                )
                for conn in ready:
                    job = running.pop(conn)
                    try:
                        message = conn.recv()
                    except EOFError:
                        message = None  # died without reporting
                    _settle(conn, job, message)
                # Deadline sweep: kill anything over budget.  A worker
                # that raced its result in just before the deadline is
                # still collected on the next wait() pass.
                now = time.monotonic()
                for conn in [
                    c
                    for c, job in running.items()
                    if job.deadline is not None and now >= job.deadline
                ]:
                    job = running.pop(conn)
                    job.proc.kill()
                    job.proc.join()
                    conn.close()
                    _requeue_or_record(
                        job.index, job.attempt,
                        ShardTimeoutError.__name__,
                        f"shard exceeded the {timeout}s per-shard "
                        "timeout; worker killed",
                        "ShardTimeoutError: shard exceeded the "
                        f"{timeout}s per-shard timeout\n",
                    )
        finally:
            # Never leak workers, even if the parent errors mid-plan.
            for conn, job in running.items():
                job.proc.kill()
                job.proc.join()
                conn.close()
        return cause

    @staticmethod
    def _reassemble(
        scenarios: list[Scenario],
        shards: list[Shard],
        parts: dict[int, ScenarioResult],
    ) -> list[ScenarioResult]:
        """Suite-ordered outcomes, merging multi-shard scenarios.

        Shard plans list a scenario's replica ranges in ascending
        order, so concatenating its parts restores replica order.
        Scenarios with any missing (failed) shard are omitted — the
        caller raises with the failure details anyway.
        """
        by_scenario: dict[int, list[int]] = {}
        for index, shard in enumerate(shards):
            by_scenario.setdefault(shard.scenario_index, []).append(index)
        outcomes: list[ScenarioResult] = []
        for scenario_index, scenario in enumerate(scenarios):
            shard_ids = by_scenario.get(scenario_index, [])
            if not shard_ids or any(i not in parts for i in shard_ids):
                continue
            first = parts[shard_ids[0]]
            if len(shard_ids) == 1:
                outcomes.append(first)
                continue
            outcomes.append(
                ScenarioResult(
                    scenario=scenario,
                    graph=first.graph,
                    results=[
                        result
                        for i in shard_ids
                        for result in parts[i].results
                    ],
                    probes=[
                        probes
                        for i in shard_ids
                        for probes in parts[i].probes
                    ],
                )
            )
        return outcomes


def _shard_graph(graph_cache: dict, override, scenario: Scenario):
    """The graph a shard runs on, on either execution path.

    A caller's ``override`` wins; a scenario holding a prebuilt graph
    runs on it; otherwise ``scenario.graph.build()`` runs once per
    distinct spec across a plan (specs are deterministic, graphs
    immutable), except that a spec with an unhashable param value is
    built every time.
    """
    if override is not None:
        return override
    spec = scenario.graph
    if not isinstance(spec, GraphSpec):
        return spec
    try:
        built = graph_cache.get(spec)
    except TypeError:  # unhashable custom param value
        return spec.build()
    if built is None:
        built = graph_cache[spec] = spec.build()
    return built


def _result_from_records(
    scenario: Scenario, records: list[RunRecord]
) -> ScenarioResult:
    return ScenarioResult(
        scenario=scenario,
        graph=None,
        results=[RecordedRun(record) for record in records],
        probes=[() for _ in records],
    )


def run_suite(
    suite: ScenarioSuite,
    *,
    workers: int = 1,
    cache: ResultCache | str | None = None,
    max_replicas_per_shard: int | None = None,
    retry: RetryPolicy | int | None = None,
    timeout: float | None = None,
    on_shard_failure: str = "raise",
) -> SuiteReport:
    """One-shot convenience wrapper around :class:`SuiteExecutor`."""
    return SuiteExecutor(
        workers=workers,
        cache=cache,
        max_replicas_per_shard=max_replicas_per_shard,
        retry=retry,
        timeout=timeout,
        on_shard_failure=on_shard_failure,
    ).run(suite)
