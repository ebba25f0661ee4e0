"""E13 — engine throughput: rounds/second per algorithm.

The harness's own scalability; this is pytest-benchmark's home turf, so
every algorithm's 100-round simulation on a 1024-node expander is a
separate benchmark case.  The batched cases compare the vectorized
``(replicas, n)`` BatchRunner against the Python-loop-over-``Simulator``
baseline on identical scenarios (32 replicas, n=256): the batched path
must win by at least 2x while producing bit-identical load vectors.

The module is also a script: the **structured-vs-dense ladder** times
both engines on cycles (``d+ = 2d``) from small ``n`` up to a million
nodes, verifies bit-identical final loads wherever both engines ran,
and emits ``BENCH_e13.json`` so the perf trajectory is recorded.  Each
rung also carries a probe-overhead row, a **dynamics row** (structured
engine under ``constant_rate`` injection), a **faults row**
(structured engine under a sparse ``link_failures`` schedule), both
gated at 1.2x over the bare structured run by ``--check``, and a
**topology row** (structured engine under a scripted every-round
edge toggle) gated at 1.3x.  ``--suite-bench``
adds the **workers axis**: serial vs ``--suite-workers`` parallel
execution of a multi-scenario grid through :mod:`repro.exec`, verified
bit-identical and gated at ``--suite-speedup-limit`` (default 1.5x)
when the machine has at least as many cpus as workers.

The **backend ladder** times every backend registered in
:data:`repro.engines.ENGINES` (third-party registrations included) on
the same cycles and verifies all backends bit-identical.
``--ten-million`` runs the 10^7-node headline: construct a cycle and
run structured rounds per algorithm, with the machine's cpu count.

The emitted report has one canonical home: ``BENCH_e13.json`` at the
repository root.  Relative ``--output`` paths resolve against the
root (not the current directory), and ``benchmarks/BENCH_e13.json``
is a symlink to the root file; CI byte-compares the two so they can
never diverge again.

    python benchmarks/bench_e13_engine_throughput.py \
        --sizes 1024 4096 16384 --rounds 50 --output BENCH_e13.json --check

``--check`` exits nonzero if the structured engine is slower than the
dense engine at any ``n >= 4096`` (the CI smoke gate); ``--million``
additionally runs the headline scenario — construct a 10^6-node cycle
and run 50 structured rounds per algorithm — and records its wall time.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.registry import all_names, make
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.graphs import families
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
    canonical_json,
)


#: The one canonical home of the emitted report.  ``--output`` paths
#: are resolved against the repository root no matter where the script
#: is launched from, and ``benchmarks/BENCH_e13.json`` is a symlink to
#: the root file — the two locations can no longer drift (CI compares
#: them byte-for-byte on every run).
REPO_ROOT = Path(__file__).resolve().parent.parent

N = 1024
ROUNDS = 100

BATCH_N = 256
BATCH_DEGREE = 8
BATCH_REPLICAS = 32
BATCH_ROUNDS = 100


@pytest.fixture(scope="module")
def graph():
    return families.random_regular(N, 8, seed=3)


@pytest.mark.parametrize("algorithm", all_names())
def test_throughput(benchmark, graph, algorithm):
    def run_once():
        simulator = Simulator(
            graph,
            make(algorithm, seed=3),
            point_mass(N, 64 * N),
            record_history=False,
        )
        return simulator.run(ROUNDS)

    result = benchmark(run_once)
    assert result.final_loads.sum() == 64 * N


@pytest.fixture(scope="module")
def batch_graph():
    return families.random_regular(BATCH_N, BATCH_DEGREE, seed=3)


def _batch_scenario(algorithm: str) -> Scenario:
    return Scenario(
        graph=GraphSpec(
            "random_regular",
            {"n": BATCH_N, "degree": BATCH_DEGREE, "seed": 3},
        ),
        algorithm=AlgorithmSpec(algorithm),
        loads=LoadSpec(
            "uniform_random", {"total_tokens": 64 * BATCH_N, "seed": 1}
        ),
        stop=StopRule.fixed(BATCH_ROUNDS),
        replicas=BATCH_REPLICAS,
    )


def _looped(scenario: Scenario, graph) -> list:
    """The looped baseline: one Simulator per replica, same seeds."""
    return [
        Simulator(
            graph,
            scenario.build_balancer(replica),
            scenario.build_loads(graph, replica),
        ).run(BATCH_ROUNDS)
        for replica in range(scenario.replicas)
    ]


@pytest.mark.parametrize("algorithm", ["send_floor", "send_rounded"])
@pytest.mark.parametrize("layout", ["loop", "batch"])
def test_replica_throughput(benchmark, batch_graph, algorithm, layout):
    """Batched (replicas, n) execution vs the looped Simulator baseline."""
    scenario = _batch_scenario(algorithm)

    def run_once():
        if layout == "loop":
            return _looped(scenario, batch_graph)
        return scenario.run(graph=batch_graph).results

    results = benchmark(run_once)
    assert all(r.final_loads.sum() == 64 * BATCH_N for r in results)


@pytest.mark.parametrize("algorithm", ["send_floor", "send_rounded"])
def test_batched_matches_looped(batch_graph, algorithm):
    """Replica-for-replica parity of the stack and the looped baseline."""
    scenario = _batch_scenario(algorithm)
    looped = _looped(scenario, batch_graph)
    batched = scenario.run(graph=batch_graph)
    for left, right in zip(looped, batched.results):
        np.testing.assert_array_equal(left.final_loads, right.final_loads)
        assert left.discrepancy_history == right.discrepancy_history


@pytest.mark.parametrize("algorithm", ["send_floor", "rotor_router"])
@pytest.mark.parametrize("engine", ["dense", "structured"])
def test_engine_throughput(benchmark, graph, algorithm, engine):
    """The serial backends on the same scenario."""

    def run_once():
        simulator = Simulator(
            graph,
            make(algorithm, seed=3),
            point_mass(N, 64 * N),
            record_history=False,
            engine=engine,
        )
        return simulator.run(ROUNDS)

    result = benchmark(run_once)
    assert result.final_loads.sum() == 64 * N


def test_throughput_with_loads_probe(benchmark, graph):
    """Loads-only probes must ride the structured engine (auto)."""
    from repro.core.monitors import LoadBoundsMonitor

    def run_once():
        simulator = Simulator(
            graph,
            make("send_floor"),
            point_mass(N, 64 * N),
            probes=(LoadBoundsMonitor(),),
            record_history=False,
        )
        assert simulator.engine == "structured"
        return simulator.run(ROUNDS)

    result = benchmark(run_once)
    assert result.final_loads.sum() == 64 * N


def test_throughput_with_monitors(benchmark, graph):
    """Full monitor suite attached: the fairness-verification overhead."""
    from repro.core.fairness import (
        CumulativeFairnessMonitor,
        FairnessMonitor,
    )
    from repro.core.flows import FlowTracker

    def run_once():
        simulator = Simulator(
            graph,
            make("rotor_router"),
            point_mass(N, 64 * N),
            probes=(
                FairnessMonitor(s=1),
                CumulativeFairnessMonitor(),
                FlowTracker(),
            ),
            record_history=False,
        )
        return simulator.run(ROUNDS)

    result = benchmark(run_once)
    assert result.final_loads.sum() == 64 * N


# ----------------------------------------------------------------------
# Structured-vs-dense ladder (script mode)
# ----------------------------------------------------------------------

LADDER_ALGORITHMS = ("send_floor", "send_rounded", "rotor_router")


def _time_run(
    graph,
    algorithm,
    loads,
    rounds,
    engine,
    repeats,
    probes=None,
    dynamics=None,
    faults=None,
    topology=None,
):
    """Best-of-``repeats`` wall time.

    Returns ``(seconds, final_loads, engine_used)`` — the engine the
    simulator actually selected, so probe rows can verify that a
    loads-only probe did not knock ``engine="auto"`` off the
    structured path.  ``probes``, ``dynamics``, ``faults``, and
    ``topology`` are factories called per repeat (fresh
    observer/injector/schedule state each run).
    """
    from repro.core.engine import Simulator as _Simulator

    best = float("inf")
    finals = None
    engine_used = None
    for _ in range(repeats):
        simulator = _Simulator(
            graph,
            make(algorithm),
            loads,
            record_history=False,
            engine=engine,
            probes=probes() if probes is not None else (),
            dynamics=dynamics() if dynamics is not None else None,
            faults=faults() if faults is not None else None,
            topology=topology() if topology is not None else None,
        )
        engine_used = simulator.engine
        start = time.perf_counter()
        result = simulator.run(rounds)
        best = min(best, time.perf_counter() - start)
        finals = result.final_loads
    return best, finals, engine_used


def run_ladder(
    sizes,
    rounds=50,
    algorithms=LADDER_ALGORITHMS,
    dense_cap=262_144,
    tokens_per_node=32,
    repeats=3,
):
    """Time both engines on cycles (d+ = 2d) across the size ladder.

    The dense engine is skipped above ``dense_cap`` (its (n, d+) matrix
    is the very allocation the structured path removes); wherever both
    engines ran, final load vectors are asserted bit-identical.

    Every row also times the structured engine with a loads-only probe
    attached under ``engine="auto"`` — the probe-overhead column of the
    ladder.  ``probe_engine`` records which engine auto selected (it
    must stay ``"structured"``) and ``probe_overhead`` the slowdown
    relative to the bare structured run.

    The **dynamics row**: the structured engine with ``constant_rate``
    injection (8 tokens/round, deterministic round-robin placement) —
    ``dynamics_overhead`` is its slowdown over the bare structured run
    (injection is a vector add, so it must stay well under the gated
    1.2x); at small ``n`` the injected run is also cross-checked
    bit-identical against the dense engine with the same event stream.

    The **faults row** mirrors it for the fault-injection subsystem:
    the structured engine under a sparse ``link_failures`` schedule
    (1% of links down per round).  Fault corrections are O(F) sparse
    fix-ups after the fault-free round, so ``faults_overhead`` must
    also stay under the gated 1.2x, and at small ``n`` the faulty run
    is cross-checked bit-identical against the dense engine with the
    same failure stream.

    The **topology row** measures an *active* topology schedule: a
    scripted stream that drops edge ``(0, 1)`` on odd rounds and
    restores it on even rounds, so every single round walks the full
    churn path — event validation (scripted streams are untrusted),
    in-place graph mutation, dirty-set consumption, incremental
    balancer refresh.  Like the dynamics row's zero-variance arrival
    stream, the toggle keeps the wiring (and hence the balancing work)
    essentially equal to the bare run, so ``topology_overhead``
    isolates the churn *mechanism* rather than load-trajectory drift;
    it is gated at 1.3x, and at small ``n`` the churned run is
    cross-checked bit-identical against the dense engine with the
    same event stream.
    """
    from repro.core.loads import adversarial_split
    from repro.core.monitors import LoadBoundsMonitor
    from repro.dynamics import DynamicsSpec
    from repro.faults import FaultSpec
    from repro.graphs.families import cycle
    from repro.topology import ScriptedTopology

    # Round-robin placement: the zero-variance arrival stream — the
    # row measures the injection *mechanism*, not RNG call overhead.
    injection = DynamicsSpec(
        "constant_rate", {"rate": 8, "placement": "round_robin"}
    )
    # 1% of links fail per round: sparse but active every round, so
    # the row measures the correction mechanism, not the empty path.
    failures = FaultSpec("link_failures", {"rate": 0.01, "seed": 1})

    entries = []
    for n in sizes:
        built_at = time.perf_counter()
        graph = cycle(n)
        construct_seconds = time.perf_counter() - built_at
        loads = adversarial_split(n, tokens_per_node * n)
        for algorithm in algorithms:
            structured_seconds, structured_finals, _ = _time_run(
                graph, algorithm, loads, rounds, "structured", repeats
            )
            probe_seconds, probe_finals, probe_engine = _time_run(
                graph,
                algorithm,
                loads,
                rounds,
                "auto",
                repeats,
                probes=lambda: (LoadBoundsMonitor(),),
            )
            if not np.array_equal(probe_finals, structured_finals):
                raise AssertionError(
                    f"probe run diverged at n={n}, {algorithm}"
                )
            # The overhead ratio needs care at small n: a 50-round run
            # takes single-digit milliseconds there, so (a) bare and
            # injected runs are interleaved (separate timing blocks are
            # at the mercy of frequency scaling / noisy neighbours) and
            # (b) the timed window is stretched until it is long enough
            # to measure a ~1.1x effect reliably.
            overhead_rounds = rounds * max(1, 131_072 // n)
            toggle_events = [
                ["drop" if t % 2 else "add", t, 0, 1]
                for t in range(1, overhead_rounds + 1)
            ]

            def toggle():
                return ScriptedTopology(toggle_events)

            bare_seconds = float("inf")
            dynamics_seconds = float("inf")
            faults_seconds = float("inf")
            topology_seconds = float("inf")
            dynamics_overhead = float("inf")
            faults_overhead = float("inf")
            topology_overhead = float("inf")
            dynamics_finals = None
            faults_finals = None
            topology_finals = None
            for _ in range(max(repeats, 5)):
                bare, _, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "structured",
                    1,
                )
                injected, dynamics_finals, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "structured",
                    1,
                    dynamics=injection.build,
                )
                faulted, faults_finals, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "structured",
                    1,
                    faults=failures.build,
                )
                churned, topology_finals, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "structured",
                    1,
                    topology=toggle,
                )
                bare_seconds = min(bare_seconds, bare)
                dynamics_seconds = min(dynamics_seconds, injected)
                faults_seconds = min(faults_seconds, faulted)
                topology_seconds = min(topology_seconds, churned)
                # Overheads are paired per iteration — each ratio
                # compares runs taken back-to-back under the same clock
                # conditions, so frequency drift between iterations
                # cancels instead of polluting a min/min quotient.
                dynamics_overhead = min(
                    dynamics_overhead, injected / bare
                )
                faults_overhead = min(faults_overhead, faulted / bare)
                topology_overhead = min(
                    topology_overhead, churned / bare
                )
            # A noise spike inside one window still inflates a paired
            # ratio, so cross-check against the best-of-all-iterations
            # quotient and keep the smaller (both are standard
            # estimators; the true overhead is below either).
            dynamics_overhead = min(
                dynamics_overhead, dynamics_seconds / bare_seconds
            )
            faults_overhead = min(
                faults_overhead, faults_seconds / bare_seconds
            )
            topology_overhead = min(
                topology_overhead, topology_seconds / bare_seconds
            )
            if n <= min(dense_cap, 16_384):
                _, dense_dynamics_finals, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "dense",
                    1,
                    dynamics=injection.build,
                )
                if not np.array_equal(
                    dense_dynamics_finals, dynamics_finals
                ):
                    raise AssertionError(
                        f"injected run diverged across engines at "
                        f"n={n}, {algorithm}"
                    )
                _, dense_faults_finals, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "dense",
                    1,
                    faults=failures.build,
                )
                if not np.array_equal(
                    dense_faults_finals, faults_finals
                ):
                    raise AssertionError(
                        f"faulty run diverged across engines at "
                        f"n={n}, {algorithm}"
                    )
                _, dense_topology_finals, _ = _time_run(
                    graph,
                    algorithm,
                    loads,
                    overhead_rounds,
                    "dense",
                    1,
                    topology=toggle,
                )
                if not np.array_equal(
                    dense_topology_finals, topology_finals
                ):
                    raise AssertionError(
                        f"churned run diverged across engines at "
                        f"n={n}, {algorithm}"
                    )
            entry = {
                "n": n,
                "d_plus": graph.total_degree,
                "algorithm": algorithm,
                "rounds": rounds,
                "graph_construct_seconds": round(construct_seconds, 4),
                "structured_seconds": round(structured_seconds, 4),
                "structured_rounds_per_second": round(
                    rounds / structured_seconds, 1
                ),
                "structured_probe_seconds": round(probe_seconds, 4),
                "probe_engine": probe_engine,
                "probe_overhead": round(
                    probe_seconds / structured_seconds, 3
                ),
                "dynamics_rounds": overhead_rounds,
                "dynamics_seconds": round(dynamics_seconds, 4),
                "dynamics_overhead": round(dynamics_overhead, 3),
                "faults_rounds": overhead_rounds,
                "faults_seconds": round(faults_seconds, 4),
                "faults_overhead": round(faults_overhead, 3),
                "topology_rounds": overhead_rounds,
                "topology_seconds": round(topology_seconds, 4),
                "topology_overhead": round(topology_overhead, 3),
            }
            if n <= dense_cap:
                dense_seconds, dense_finals, _ = _time_run(
                    graph, algorithm, loads, rounds, "dense", repeats
                )
                if not np.array_equal(dense_finals, structured_finals):
                    raise AssertionError(
                        f"engine mismatch at n={n}, {algorithm}: dense "
                        "and structured final loads differ"
                    )
                entry["dense_seconds"] = round(dense_seconds, 4)
                entry["speedup"] = round(
                    dense_seconds / structured_seconds, 2
                )
                entry["bit_identical"] = True
            entries.append(entry)
            print(
                f"n={n:>8d} {algorithm:<13s} "
                f"structured {structured_seconds:8.3f}s"
                f"  +probe {entry['probe_overhead']:5.2f}x"
                f" ({probe_engine})"
                f"  +inject {entry['dynamics_overhead']:5.2f}x"
                f"  +faults {entry['faults_overhead']:5.2f}x"
                f"  +churn {entry['topology_overhead']:5.2f}x"
                + (
                    f"  dense {entry['dense_seconds']:8.3f}s"
                    f"  speedup {entry['speedup']:5.2f}x"
                    if "speedup" in entry
                    else "  dense (skipped)"
                )
            )
    return entries


BACKEND_ALGORITHMS = ("rotor_router", "send_floor")


def run_backend_ladder(sizes, rounds=50, repeats=3, dense_cap=262_144):
    """Per-backend rows: every engine in the registry on the cycle ladder.

    The dense-protocol backend allocates the ``(n, d+)`` sends matrix
    the structured path removes, so it skips rungs above ``dense_cap``
    exactly like the dense column of the classic ladder.  Every backend
    that ran is verified bit-identical against the dense reference (or
    the structured one above the cap).
    """
    from repro.core.loads import adversarial_split
    from repro.engines import DENSE, ENGINES, create_engine
    from repro.graphs.families import cycle

    entries = []
    for n in sizes:
        graph = cycle(n)
        loads = adversarial_split(n, 32 * n)
        for algorithm in BACKEND_ALGORITHMS:
            seconds_by = {}
            finals_by = {}
            for name in sorted(ENGINES):
                backend = create_engine(name)
                if backend.protocol == DENSE and n > dense_cap:
                    continue
                seconds, finals, _ = _time_run(
                    graph, algorithm, loads, rounds, name, repeats
                )
                seconds_by[name] = seconds
                finals_by[name] = finals
            reference = finals_by.get(
                "dense", finals_by.get("structured")
            )
            for name, finals in finals_by.items():
                if not np.array_equal(finals, reference):
                    raise AssertionError(
                        f"backend {name!r} diverged from the reference "
                        f"at n={n}, {algorithm}"
                    )
            entry = {
                "n": n,
                "d_plus": graph.total_degree,
                "algorithm": algorithm,
                "rounds": rounds,
                "bit_identical": True,
                "backends": {
                    name: {
                        "seconds": round(seconds_by[name], 4),
                        "rounds_per_second": round(
                            rounds / seconds_by[name], 1
                        ),
                    }
                    for name in seconds_by
                },
            }
            entries.append(entry)
            summary = "  ".join(
                f"{name} {seconds_by[name]:7.3f}s"
                for name in sorted(seconds_by)
            )
            print(f"n={n:>8d} {algorithm:<13s} {summary}")
    return entries


def run_suite_throughput(
    n=4096,
    rounds=2000,
    workers=4,
    scenarios_per_algorithm=4,
    algorithms=LADDER_ALGORITHMS,
):
    """The workers axis: serial vs N-worker multi-scenario grids.

    A grid of ``3 algorithms x scenarios_per_algorithm seeds`` on a
    cycle at ``n >= 4096`` is executed twice — once serially
    (the legacy in-process path) and once through the sharded
    :class:`repro.exec.SuiteExecutor` process pool — and the records
    are verified bit-identical before the speedup is reported.  The
    parallel time includes pool startup, i.e. it is the end-to-end
    wall time a user sees.

    On machines without enough cores the measured speedup is recorded
    but the ``--check`` gate is skipped (``os.cpu_count`` is part of
    the emitted row, so the context is never lost).
    """
    import os

    from repro.exec import run_suite

    suite = ScenarioSuite(
        tuple(
            Scenario(
                graph=GraphSpec("cycle", {"n": n}),
                algorithm=AlgorithmSpec(algorithm),
                loads=LoadSpec(
                    "uniform_random",
                    {"total_tokens": 32 * n, "seed": seed},
                ),
                stop=StopRule.fixed(rounds),
            )
            for algorithm in algorithms
            for seed in range(1, scenarios_per_algorithm + 1)
        ),
        name=f"e13-suite-n{n}",
    )

    start = time.perf_counter()
    serial_outcomes = suite.run()
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    report = run_suite(suite, workers=workers)
    parallel_seconds = time.perf_counter() - start

    serial_records = [
        canonical_json(record.to_dict())
        for outcome in serial_outcomes
        for record in outcome.records
    ]
    parallel_records = [
        canonical_json(record.to_dict())
        for outcome in report.outcomes
        for record in outcome.records
    ]
    if serial_records != parallel_records:
        raise AssertionError(
            f"parallel suite records diverged from serial at n={n}"
        )

    entry = {
        "n": n,
        "scenarios": len(suite),
        "rounds": rounds,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 2),
        "bit_identical": True,
    }
    print(
        f"suite n={n} x{len(suite)} scenarios: serial "
        f"{serial_seconds:6.2f}s, {workers}-worker "
        f"{parallel_seconds:6.2f}s, speedup {entry['speedup']:.2f}x "
        f"({entry['cpu_count']} cpus)"
    )
    return entry


def run_million_headline(rounds=50, algorithms=LADDER_ALGORITHMS):
    """The acceptance scenario: 10^6-node cycle, construct + 50 rounds."""
    from repro.core.engine import Simulator as _Simulator
    from repro.core.loads import adversarial_split
    from repro.graphs.families import cycle

    n = 1_000_000
    start = time.perf_counter()
    graph = cycle(n)
    construct_seconds = time.perf_counter() - start
    loads = adversarial_split(n, 32 * n)
    per_algorithm = {}
    for algorithm in algorithms:
        algo_start = time.perf_counter()
        _Simulator(
            graph,
            make(algorithm),
            loads,
            record_history=False,
            engine="structured",
        ).run(rounds)
        per_algorithm[algorithm] = round(
            time.perf_counter() - algo_start, 2
        )
    total = round(time.perf_counter() - start, 2)
    print(
        f"headline: cycle(10^6) construct {construct_seconds:.2f}s, "
        f"{rounds} structured rounds {per_algorithm}, "
        f"total {total:.2f}s"
    )
    return {
        "n": n,
        "rounds": rounds,
        "construct_seconds": round(construct_seconds, 2),
        "structured_seconds": per_algorithm,
        "total_seconds": total,
    }


def run_ten_million_headline(
    rounds=10, algorithms=("rotor_router", "send_floor")
):
    """The 10^7-node headline: a cycle one order past the million.

    Each algorithm runs ``rounds`` rounds through the serial structured
    engine; the row records the machine's cpu count next to the
    timings.
    """
    from repro.core.engine import Simulator as _Simulator
    from repro.core.loads import adversarial_split
    from repro.graphs.families import cycle

    n = 10_000_000
    start = time.perf_counter()
    graph = cycle(n)
    construct_seconds = time.perf_counter() - start
    loads = adversarial_split(n, 32 * n)
    per_algorithm = {}
    for algorithm in algorithms:
        algo_start = time.perf_counter()
        _Simulator(
            graph,
            make(algorithm),
            loads,
            record_history=False,
            engine="structured",
        ).run(rounds)
        per_algorithm[algorithm] = round(
            time.perf_counter() - algo_start, 2
        )
    total = round(time.perf_counter() - start, 2)
    print(
        f"headline: cycle(10^7) construct {construct_seconds:.2f}s, "
        f"{rounds} structured rounds {per_algorithm}, "
        f"total {total:.2f}s"
    )
    return {
        "n": n,
        "rounds": rounds,
        "construct_seconds": round(construct_seconds, 2),
        "structured_seconds": per_algorithm,
        "cpu_count": os.cpu_count(),
        "total_seconds": total,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="E13 structured-vs-dense engine ladder"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[1024, 4096, 16384, 65536],
    )
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dense-cap", type=int, default=262_144)
    parser.add_argument(
        "--output",
        default="BENCH_e13.json",
        help=(
            "report path; relative paths resolve against the "
            "repository root (the canonical BENCH_e13.json home), "
            "never the current directory"
        ),
    )
    parser.add_argument(
        "--million",
        action="store_true",
        help="also run the 10^6-node cycle headline scenario",
    )
    parser.add_argument(
        "--ten-million",
        action="store_true",
        help="also run the 10^7-node cycle headline (structured)",
    )
    parser.add_argument(
        "--suite-bench",
        action="store_true",
        help=(
            "also measure the workers axis: serial vs --suite-workers "
            "parallel execution of a multi-scenario grid"
        ),
    )
    parser.add_argument("--suite-n", type=int, default=4096)
    parser.add_argument("--suite-rounds", type=int, default=2000)
    parser.add_argument("--suite-workers", type=int, default=4)
    parser.add_argument(
        "--suite-speedup-limit",
        type=float,
        default=1.5,
        help=(
            "minimum parallel-over-serial suite speedup required by "
            "--check at n >= 4096 (enforced only when the machine has "
            "at least as many cpus as --suite-workers; default 1.5)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if structured is slower than dense, a "
        "loads-only probe forces the dense path, or "
        "probe/injection/fault/topology overhead exceeds its limit "
        "at any n >= 4096",
    )
    parser.add_argument(
        "--probe-overhead-limit",
        type=float,
        default=1.2,
        help="max allowed structured+probe / structured-bare ratio "
        "at n >= 4096 (default 1.2)",
    )
    parser.add_argument(
        "--dynamics-overhead-limit",
        type=float,
        default=1.2,
        help="max allowed structured+injection / structured-bare "
        "ratio at n >= 4096 (default 1.2)",
    )
    parser.add_argument(
        "--faults-overhead-limit",
        type=float,
        default=1.2,
        help="max allowed structured+faults / structured-bare ratio "
        "at n >= 4096 (default 1.2)",
    )
    parser.add_argument(
        "--topology-overhead-limit",
        type=float,
        default=1.3,
        help="max allowed structured+topology-schedule / "
        "structured-bare ratio at n >= 4096 (default 1.3; churn "
        "rounds pay per-event python work the vectorized rows do "
        "not, hence the slightly looser gate)",
    )
    args = parser.parse_args(argv)

    report = {
        "experiment": "E13",
        "graph_family": "cycle (d+ = 2d)",
        "load": "adversarial_split, 32 tokens/node",
        "ladder": run_ladder(
            args.sizes,
            rounds=args.rounds,
            dense_cap=args.dense_cap,
            repeats=args.repeats,
        ),
        "backend_ladder": run_backend_ladder(
            args.sizes,
            rounds=args.rounds,
            repeats=args.repeats,
            dense_cap=args.dense_cap,
        ),
    }
    if args.suite_bench:
        report["suite_throughput"] = run_suite_throughput(
            n=args.suite_n,
            rounds=args.suite_rounds,
            workers=args.suite_workers,
        )
    if args.million:
        report["headline_million_nodes"] = run_million_headline(
            rounds=args.rounds
        )
    if args.ten_million:
        report["headline_ten_million_nodes"] = (
            run_ten_million_headline()
        )
    output = Path(args.output)
    if not output.is_absolute():
        output = REPO_ROOT / output
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")

    if args.check:
        failed = False
        slow = [
            entry
            for entry in report["ladder"]
            if entry["n"] >= 4096 and entry.get("speedup", 99.0) < 1.0
        ]
        for entry in slow:
            failed = True
            print(
                f"FAIL: structured slower than dense at "
                f"n={entry['n']} ({entry['algorithm']}): "
                f"{entry['speedup']}x",
                file=sys.stderr,
            )
        for entry in report["ladder"]:
            if entry["n"] < 4096:
                continue
            if entry["probe_engine"] != "structured":
                failed = True
                print(
                    f"FAIL: loads-only probe forced the "
                    f"{entry['probe_engine']} engine at n={entry['n']} "
                    f"({entry['algorithm']})",
                    file=sys.stderr,
                )
            elif entry["probe_overhead"] > args.probe_overhead_limit:
                failed = True
                print(
                    f"FAIL: probe overhead {entry['probe_overhead']}x "
                    f"exceeds {args.probe_overhead_limit}x at "
                    f"n={entry['n']} ({entry['algorithm']})",
                    file=sys.stderr,
                )
            if (
                entry["dynamics_overhead"]
                > args.dynamics_overhead_limit
            ):
                failed = True
                print(
                    f"FAIL: injection overhead "
                    f"{entry['dynamics_overhead']}x exceeds "
                    f"{args.dynamics_overhead_limit}x at "
                    f"n={entry['n']} ({entry['algorithm']})",
                    file=sys.stderr,
                )
            if entry["faults_overhead"] > args.faults_overhead_limit:
                failed = True
                print(
                    f"FAIL: fault-schedule overhead "
                    f"{entry['faults_overhead']}x exceeds "
                    f"{args.faults_overhead_limit}x at "
                    f"n={entry['n']} ({entry['algorithm']})",
                    file=sys.stderr,
                )
            if (
                entry["topology_overhead"]
                > args.topology_overhead_limit
            ):
                failed = True
                print(
                    f"FAIL: topology-schedule overhead "
                    f"{entry['topology_overhead']}x exceeds "
                    f"{args.topology_overhead_limit}x at "
                    f"n={entry['n']} ({entry['algorithm']})",
                    file=sys.stderr,
                )
        suite_entry = report.get("suite_throughput")
        if suite_entry is not None and suite_entry["n"] >= 4096:
            cpus = suite_entry["cpu_count"] or 1
            if cpus < suite_entry["workers"]:
                # A 1.5x demand is only fair when every worker can get
                # a core: on 2 cpus with 4 workers the ideal is 2.0x
                # and pool startup routinely eats the margin.  The
                # measured number is still recorded above.
                print(
                    "note: suite-throughput gate skipped "
                    f"({cpus} cpus for {suite_entry['workers']} "
                    "workers; enforcement needs cpus >= workers)"
                )
            elif suite_entry["speedup"] < args.suite_speedup_limit:
                failed = True
                print(
                    f"FAIL: {suite_entry['workers']}-worker suite "
                    f"execution only {suite_entry['speedup']}x over "
                    f"serial at n={suite_entry['n']} (need >= "
                    f"{args.suite_speedup_limit}x on {cpus} cpus)",
                    file=sys.stderr,
                )
        if failed:
            return 1
        print(
            "check passed: structured >= dense, probe overhead "
            f"<= {args.probe_overhead_limit}x (structured engine "
            f"kept), injection overhead <= "
            f"{args.dynamics_overhead_limit}x, fault-schedule "
            f"overhead <= {args.faults_overhead_limit}x, and "
            f"topology-schedule overhead <= "
            f"{args.topology_overhead_limit}x at every n >= 4096"
            + (
                f"; {suite_entry['workers']}-worker suite speedup "
                f"{suite_entry['speedup']}x"
                if suite_entry is not None
                else ""
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
