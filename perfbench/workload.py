"""One benchmark process: a measured pass, or the untimed reference.

    python3 perfbench/workload.py pass --workload W --seed S --size full \\
        --workdir DIR --t-spawn T [--traced]
    python3 perfbench/workload.py reference --workload W --seed S --size full

``--t-spawn`` is the launcher's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so the
pass's ``setup_s`` covers interpreter start, imports, graph build, load
generation and runner construction.  The process prints one JSON object
as the last line of standard output; on an exception that object holds
only ``"error"``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import traceback
from pathlib import Path

# Per-layer metrics taken straight from span totals / self times / counts.
SPAN_TOTALS = {
    "engines.apply_s": "engines.apply",
    "engines.incoming_s": "engines.incoming",
    "engines.refresh_s": "engines.refresh",
    "algorithms.sends_s": "algorithms.sends",
    "algorithms.bind_s": "algorithms.bind",
    "algorithms.refresh_s": "algorithms.refresh",
    "core.validate_s": "core.validate",
    "core.remainder_s": "core.remainder",
    "core.probes_s": "core.probes",
    "scenarios.run_s": "scenarios.run",
    "exec.run_s": "exec.run",
    "exec.key_s": "exec.key",
    "exec.cache_get_s": "exec.cache_get",
    "exec.cache_put_s": "exec.cache_put",
    "graphs.build_s": "graphs.build",
    "topology.events_s": "topology.events",
    "topology.apply_s": "topology.apply",
    "dynamics.delta_s": "dynamics.delta",
    "faults.round_state_s": "faults.round_state",
    "faults.correct_s": "faults.correct",
}
SPAN_SELF = {
    "core.step_self_s": "core.step",
    "scenarios.self_s": "scenarios.run",
}
COUNTS = (
    "engines.calls",
    "engines.bytes_computed",
    "algorithms.sends_calls",
    "algorithms.refresh_rows",
    "exec.cache_hits",
    "exec.cache_misses",
    "exec.shards",
    "exec.retries",
    "exec.record_bytes",
    "graphs.build_calls",
    "topology.edges_changed",
    "topology.dirty_nodes",
    "dynamics.tokens_injected",
    "faults.tokens_dropped",
)
# Roots of the measured phase: one span per round and per cache replay
# between rounds for stepped workloads, the cold suite run for the sweep.
PHASE_ROOTS = ("core.step", "exec.cache_get", "exec.run")


def layer_metrics(tracer, result: dict, span_dir: Path) -> dict:
    """Per-layer metrics of one traced pass (parent plus worker spans)."""
    from bench_trace import (
        END, NAME, PARENT, START, concat_spans, layer_totals,
        read_worker_spans, self_times,
    )

    worker_spans, worker_counts = read_worker_spans(span_dir)
    spans = concat_spans(tracer.spans, worker_spans)
    counts = tracer.counts + worker_counts
    totals = layer_totals(spans)
    metrics: dict[str, float] = {}
    for metric, name in SPAN_TOTALS.items():
        metrics[metric] = totals.get(name, {}).get("total_s", 0.0)
    for metric, name in SPAN_SELF.items():
        metrics[metric] = totals.get(name, {}).get("self_s", 0.0)
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    lookups = metrics["exec.cache_hits"] + metrics["exec.cache_misses"]
    metrics["exec.cache_hit_ratio"] = (
        metrics["exec.cache_hits"] / lookups if lookups else 0.0
    )
    busy = sum(
        (span[END] - span[START]) / 1e9
        for span in worker_spans
        if span[PARENT] < 0
    )
    metrics["exec.worker_busy_s"] = busy
    cold = result.get("cold_run_s")
    metrics["exec.worker_utilization"] = (
        busy / (result["workers"] * cold) if cold else 0.0
    )

    # Self times of every span under a measured-phase root, against
    # the phase's wall time as the pass itself measured it.
    first_ns, end_ns = (int(t * 1e9) for t in result["window"])
    parent_spans = tracer.spans
    own = self_times(parent_spans)
    root_of: list[int] = []
    for index, span in enumerate(parent_spans):
        root_of.append(index if span[PARENT] < 0 else root_of[span[PARENT]])
    in_phase = [
        parent_spans[root][NAME] in PHASE_ROOTS
        and parent_spans[root][START] >= first_ns
        and parent_spans[root][END] <= end_ns
        for root in root_of
    ]
    metrics["trace.phase_s"] = sum(
        (span[END] - span[START]) / 1e9
        for span, inside in zip(parent_spans, in_phase)
        if inside and span[PARENT] < 0
    )
    self_sum = sum(ns for ns, inside in zip(own, in_phase) if inside) / 1e9
    metrics["trace.self_coverage"] = self_sum / result["measured_s"]
    return metrics


def context() -> dict:
    """Where the numbers came from (recorded with every result)."""
    import numpy
    import scipy

    from repro.exec import source_fingerprint

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "source_fingerprint": source_fingerprint(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "reference"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--t-spawn", type=float)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    try:
        from bench_workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.size, args.seed)
        if args.mode == "reference":
            out = {"reference": workload.reference()}
        else:
            tracer = None
            span_dir = args.workdir / f"spans-{os.getpid()}"
            if args.traced:
                from bench_trace import Tracer, install

                span_dir.mkdir()
                tracer = Tracer(span_dir)
                install(tracer)
            out = workload.run_pass(args.t_spawn, args.workdir)
            if tracer is not None:
                out["layers"] = layer_metrics(tracer, out, span_dir)
            out["inputs"] = workload.describe()
            out["context"] = context()
    except Exception:
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
