"""Span tracing of repro's layer calls, installed from outside the package.

:func:`install` wraps the public calls of each layer (engines,
algorithms, core, scenarios, exec, graphs, topology, dynamics, faults)
so that every call records a span — name, start, end and parent — in
the :class:`Tracer`'s in-memory list, plus a few counters measured at
the same boundaries (tokens injected, edges changed, cache hits...).
Nothing inside ``src/repro`` changes: the wrappers replace class
attributes and module globals in the running process only.

Forked ``repro.exec`` workers inherit the wrappers.  Each worker starts
with an empty span list and, whenever its outermost span closes, writes
its spans to ``spans-<pid>.json`` in the tracer's span directory; the
parent merges those files with :func:`read_worker_spans`.

Self time of a span is its duration minus the durations of its direct
children; :func:`layer_totals` sums durations and self times per span
name.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

# Span tuple layout: [name, start_ns, end_ns, parent_index (-1 = root)].
NAME, START, END, PARENT = range(4)


class Tracer:
    """In-memory span and counter store for one workload process."""

    def __init__(self, span_dir: str | Path) -> None:
        self.span_dir = Path(span_dir)
        self.owner_pid = os.getpid()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack.pop()
        if not self._stack and os.getpid() != self.owner_pid:
            self.flush_worker()

    def count(self, name: str, value: int | float = 1) -> None:
        self.counts[name] += value

    def flush_worker(self) -> None:
        """Append this worker's spans and counts to its per-pid file."""
        path = self.span_dir / f"spans-{os.getpid()}.json"
        data = {"spans": [], "counts": {}}
        if path.exists():
            data = json.loads(path.read_text())
        data["spans"] = concat_spans(data["spans"], self.spans)
        for key, value in self.counts.items():
            data["counts"][key] = data["counts"].get(key, 0) + value
        path.write_text(json.dumps(data))
        self._forget()


def read_worker_spans(span_dir: str | Path) -> tuple[list[list], Counter]:
    """Concatenated spans (parents re-based) and summed worker counts."""
    spans: list[list] = []
    counts: Counter = Counter()
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        spans = concat_spans(spans, data["spans"])
        counts.update(data["counts"])
    return spans, counts


def concat_spans(first: list[list], second: list[list]) -> list[list]:
    """``first + second`` with ``second``'s parent indices re-based."""
    offset = len(first)
    return first + [
        [name, start, end, parent + offset if parent >= 0 else -1]
        for name, start, end, parent in second
    ]


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time in ns: duration minus direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """``{name: {"total_s", "self_s", "calls"}}`` over ``spans``."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for span, self_ns in zip(spans, own):
        entry = totals.setdefault(
            span[NAME], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        entry["total_s"] += (span[END] - span[START]) / 1e9
        entry["self_s"] += self_ns / 1e9
        entry["calls"] += 1
    return totals


# -- installation --------------------------------------------------------


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``after(tracer, args, result)`` records counters once the call
    returns.  Only attributes ``owner`` defines itself are wrapped, so a
    subclass that inherits a wrapped method is not wrapped twice.
    """
    original = vars(owner).get(attr)
    if original is None or not callable(original):
        return

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr, traced)


def _count_only(tracer: Tracer, owner, attr: str, after) -> None:
    """Replace ``owner.attr`` with a wrapper that only counts (no span)."""
    original = vars(owner).get(attr)
    if original is None:
        return

    @functools.wraps(original)
    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        after(tracer, args, result)
        return result

    setattr(owner, attr, counted)


def _subclasses(base) -> list[type]:
    seen: list[type] = [base]
    index = 0
    while index < len(seen):
        for sub in seen[index].__subclasses__():
            if sub not in seen:
                seen.append(sub)
        index += 1
    return seen


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays if a is not None)


def _after_apply(tracer, args, result) -> None:
    # args: (engine, graph, compact, loads).  Computed bytes: every
    # array the round reads (compact components, rotor window, the
    # adjacency it gathers through) plus the load vector it writes.
    _, graph, compact, loads = args
    window = compact.window
    moved = _nbytes(
        compact.edge_share, compact.loop_base, compact.loop_ceil,
        graph.adjacency, loads, result,
    )
    if window is not None:
        moved += _nbytes(
            window.rotors, window.extra, window.positions,
            window.reverse_flat,
        )
    tracer.count("engines.calls")
    tracer.count("engines.bytes_computed", moved)


def _after_incoming(tracer, args, result) -> None:
    _, graph, sends = args
    tracer.count("engines.calls")
    tracer.count(
        "engines.bytes_computed",
        _nbytes(sends, graph.adjacency, graph.reverse_port, result),
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced layer call of the imported ``repro`` package."""
    import repro.core.engine as core_engine
    import repro.dynamics  # noqa: F401 - registers the injectors
    import repro.engines  # noqa: F401 - registers every backend
    import repro.exec.runner as exec_runner
    import repro.faults.schedules as fault_schedules
    import repro.graphs.families as families
    import repro.scenarios.batch as scenarios_batch
    import repro.topology.schedules as topology_schedules
    import repro.traffic  # noqa: F401 - registers the traffic injectors
    from repro.core.balancer import Balancer
    from repro.core.probes import Probe
    from repro.core.structured import StructuredRound
    from repro.dynamics.injectors import Injector
    from repro.engines.base import EngineBackend
    from repro.exec.cache import ResultCache
    from repro.exec.retry import RetryPolicy
    from repro.faults.schedules import FaultSchedule
    from repro.graphs.mutable import MutableBalancingGraph
    from repro.scenarios.spec import Scenario
    from repro.topology.schedules import TopologySchedule

    for cls in _subclasses(EngineBackend):
        _wrap(tracer, cls, "apply", "engines.apply", _after_apply)
        _wrap(tracer, cls, "incoming", "engines.incoming", _after_incoming)
        _wrap(tracer, cls, "refresh_topology", "engines.refresh")

    def after_sends(tracer, args, result):
        tracer.count("algorithms.sends_calls")

    last_rows: dict[int, int] = {}

    def after_refresh(tracer, args, result):
        # Rows the balancer reports repairing incrementally (its own
        # refresh_rows counter, which bind() resets); balancers without
        # the counter add nothing.
        balancer = args[0]
        rows = getattr(balancer, "refresh_rows", None)
        if rows is None:
            return
        before = last_rows.get(id(balancer), 0)
        last_rows[id(balancer)] = rows
        tracer.count(
            "algorithms.refresh_rows", rows - before if rows >= before else rows
        )

    for cls in _subclasses(Balancer):
        for attr in ("sends", "sends_batch", "sends_structured"):
            _wrap(tracer, cls, attr, "algorithms.sends", after_sends)
        _wrap(tracer, cls, "bind", "algorithms.bind")
        _wrap(
            tracer, cls, "refresh_topology", "algorithms.refresh",
            after_refresh,
        )

    _wrap(tracer, StructuredRound, "validate", "core.validate")
    _wrap(tracer, StructuredRound, "remainder", "core.remainder")
    _wrap(tracer, core_engine.Simulator, "step", "core.step")
    for attr in ("step", "run", "run_until"):
        _wrap(tracer, scenarios_batch.BatchRunner, attr, "core.step")
    for cls in _subclasses(Probe):
        for attr in ("observe_loads", "observe", "observe_structured"):
            _wrap(tracer, cls, attr, "core.probes")

    _wrap(tracer, Scenario, "run", "scenarios.run")

    def after_suite(tracer, args, report):
        tracer.count("exec.shards", len(report.shards))

    def after_get(tracer, args, entry):
        tracer.count("exec.cache_misses" if entry is None else "exec.cache_hits")

    def after_put(tracer, args, path):
        if path is not None:
            tracer.count("exec.record_bytes", Path(path).stat().st_size)

    _wrap(tracer, exec_runner.SuiteExecutor, "run", "exec.run", after_suite)
    _wrap(tracer, exec_runner, "shard_key", "exec.key")
    _wrap(tracer, ResultCache, "get", "exec.cache_get", after_get)
    _wrap(tracer, ResultCache, "put", "exec.cache_put", after_put)
    _count_only(
        tracer, RetryPolicy, "delay",
        lambda tracer, args, result: tracer.count("exec.retries"),
    )

    def after_build(tracer, args, result):
        tracer.count("graphs.build_calls")

    _wrap(tracer, families, "build", "graphs.build", after_build)

    def after_events(tracer, args, result):
        events = args[1]
        tracer.count(
            "topology.edges_changed",
            len(events.edge_drops) + len(events.edge_adds),
        )

    for cls in _subclasses(TopologySchedule):
        _wrap(tracer, cls, "round_events", "topology.events")
    for module in (topology_schedules, core_engine, scenarios_batch):
        _wrap(
            tracer, module, "apply_topology_events", "topology.apply",
            after_events,
        )
    _count_only(
        tracer, MutableBalancingGraph, "consume_dirty",
        lambda tracer, args, dirty: tracer.count(
            "topology.dirty_nodes", len(dirty)
        ),
    )

    def after_delta(tracer, args, delta):
        tracer.count("dynamics.tokens_injected", int(delta.sum()))

    for cls in _subclasses(Injector):
        _wrap(tracer, cls, "delta", "dynamics.delta", after_delta)

    def after_correct(tracer, args, dropped):
        tracer.count("faults.tokens_dropped", dropped)

    for cls in _subclasses(FaultSchedule):
        _wrap(tracer, cls, "round_state", "faults.round_state")
    for module in (fault_schedules, core_engine, scenarios_batch):
        _wrap(
            tracer, module, "apply_round_faults", "faults.correct",
            after_correct,
        )
