"""Command-line entry point: ``repro-lb`` / ``python -m repro``.

Examples::

    repro-lb list                 # enumerate experiments
    repro-lb run E1 E3            # run selected experiments
    repro-lb run --full           # run everything at full size
    repro-lb run --json out.json  # machine-readable results
    repro-lb simulate rotor_router --family cycle --n 32 --rounds 500
    repro-lb simulate send_floor --n 64 \\
        --inject 'constant_rate:{"rate": 8}'   # dynamic workload
    repro-lb scenario sweep.json  # run a declarative scenario (suite)
    repro-lb scenario sweep.json --workers 4   # sharded process fan-out
    repro-lb scenario sweep.json --resume      # recompute missing shards
    repro-lb run E1 E3 --workers 4             # parallel experiment drivers
    python -m repro --workers 4                # the full battery, parallel

The ``simulate`` subcommand is a thin front end over the declarative
Scenario API (:mod:`repro.scenarios`); ``scenario`` executes scenario /
suite specifications straight from JSON files produced by
``Scenario.to_dict`` / ``ScenarioSuite.to_dict``, sharded through the
:mod:`repro.exec` executor: ``--workers N`` fans shards out over a
process pool and the content-addressed result cache (on by default,
under ``.repro-cache/``) makes reruns and crash resume skip everything
already computed — results are bit-identical in every mode.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.runner import EXPERIMENTS, run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description=(
            "Reproduction harness for 'Improved Analysis of Deterministic "
            "Load-Balancing Schemes' (Berenbrink et al., PODC 2015)"
        ),
    )
    parser.add_argument(
        "--workers",
        dest="global_workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "process fan-out for suite execution; with no subcommand, "
            "`python -m repro --workers N` runs the full experiment "
            "battery in parallel"
        ),
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: all)",
    )
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="use the full-size configurations (slower)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan suite-based drivers out over N worker processes",
    )
    run_parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "reuse/persist suite results in the content-addressed "
            "result cache (see --cache-dir)"
        ),
    )
    run_parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="PATH",
        help="result cache directory (default: .repro-cache)",
    )
    run_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write results as JSON to PATH",
    )
    run_parser.add_argument(
        "--markdown",
        action="store_true",
        help="print markdown tables instead of text tables",
    )
    sim_parser = subparsers.add_parser(
        "simulate", help="run one algorithm on one graph"
    )
    sim_parser.add_argument(
        "algorithm",
        nargs="?",
        help="registered balancer name (see repro.algorithms)",
    )
    sim_parser.add_argument(
        "--family",
        default="random_regular",
        help=(
            "graph family (cycle, torus, hypercube, random_regular, "
            "fat_tree, leaf_spine, ...; see --list-families)"
        ),
    )
    sim_parser.add_argument("--n", type=int, default=64)
    sim_parser.add_argument("--degree", type=int, default=4)
    sim_parser.add_argument("--self-loops", type=int, default=None)
    sim_parser.add_argument("--rounds", type=int, default=None)
    sim_parser.add_argument("--tokens-per-node", type=int, default=64)
    sim_parser.add_argument("--seed", type=int, default=1)
    sim_parser.add_argument(
        "--csv",
        metavar="PATH",
        help="dump the discrepancy trajectory as CSV",
    )
    sim_parser.add_argument(
        "--probe",
        action="append",
        default=[],
        metavar="NAME[:JSON]",
        help=(
            "attach a registered probe by name, e.g. --probe "
            "load_bounds or --probe 'potentials:{\"c_values\": [4], "
            "\"s\": 1}' (repeatable; loads-only probes keep the "
            "structured/batched fast paths)"
        ),
    )
    sim_parser.add_argument(
        "--list-probes",
        action="store_true",
        help="list registered probe names and exit",
    )
    sim_parser.add_argument(
        "--list-families",
        action="store_true",
        help="list registered graph-family names and exit",
    )
    sim_parser.add_argument(
        "--inject",
        metavar="NAME[:JSON]",
        help=(
            "dynamic workload: a registered injector applied at the "
            "start of every round, e.g. --inject "
            "'constant_rate:{\"rate\": 8, \"seed\": 1}' or --inject "
            "'random_churn:{\"rate\": 16}' (injection rides the "
            "structured/batched fast paths)"
        ),
    )
    sim_parser.add_argument(
        "--list-injectors",
        action="store_true",
        help="list registered injector names and exit",
    )
    sim_parser.add_argument(
        "--faults",
        metavar="NAME[:JSON]",
        help=(
            "fault schedule: a registered schedule applied every "
            "round, e.g. --faults 'link_failures:{\"rate\": 0.05, "
            "\"seed\": 1}' or --faults 'node_crashes:{\"rate\": "
            "0.01, \"downtime\": 5}' (faults ride the structured "
            "fast path; dropped tokens are tracked in the summary)"
        ),
    )
    sim_parser.add_argument(
        "--list-faults",
        action="store_true",
        help="list registered fault-schedule names and exit",
    )
    sim_parser.add_argument(
        "--topology",
        metavar="NAME[:JSON]",
        help=(
            "dynamic-topology schedule: a registered schedule applied "
            "at the top of every round, e.g. --topology "
            "'edge_churn:{\"rate\": 0.05, \"seed\": 1}' or --topology "
            "'expander_rewire:{\"swaps\": 2}' (the graph churns in "
            "place; incompatible with --faults)"
        ),
    )
    sim_parser.add_argument(
        "--list-topologies",
        action="store_true",
        help="list registered topology-schedule names and exit",
    )
    sim_parser.add_argument(
        "--engine",
        default="auto",
        metavar="NAME",
        help=(
            "execution backend: auto (default), or any registered "
            "engine — dense, structured; see --list-engines"
        ),
    )
    sim_parser.add_argument(
        "--list-engines",
        action="store_true",
        help="list registered engine backends and exit",
    )
    sim_parser.add_argument(
        "--trace-csv",
        metavar="PATH",
        help="dump replica 0's columnar trace (probe columns) as CSV",
    )
    sim_parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="independent repetitions (multi-replica runs are batched)",
    )
    scenario_parser = subparsers.add_parser(
        "scenario",
        help="run a declarative scenario or suite from a JSON file",
    )
    scenario_parser.add_argument(
        "path", help="JSON file (Scenario.to_dict / ScenarioSuite.to_dict)"
    )
    scenario_parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write per-replica summaries as JSON to PATH",
    )
    scenario_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan independent shards out over N worker processes",
    )
    scenario_parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "content-addressed result cache: completed shards are "
            "persisted and reruns skip them (default: on; runs are "
            "deterministic given their specs, so cached replay is "
            "bit-identical)"
        ),
    )
    scenario_parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="PATH",
        help="result cache directory (default: .repro-cache)",
    )
    scenario_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted run: recompute only shards missing "
            "from the cache (requires the cache; incompatible with "
            "--no-cache)"
        ),
    )
    scenario_parser.add_argument(
        "--max-replicas-per-shard",
        type=int,
        default=None,
        metavar="K",
        help=(
            "additionally split each scenario's replica axis into "
            "shards of at most K replicas (finer-grained fan-out; "
            "never changes results)"
        ),
    )
    scenario_parser.add_argument(
        "--records-jsonl",
        metavar="PATH",
        help="also dump every RunRecord (summary + trace) as JSON lines",
    )
    scenario_parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "attempt each shard up to N times: transient failures "
            "(timeouts, worker crashes, I/O errors) are retried with "
            "exponential backoff, bad specs still fail fast"
        ),
    )
    scenario_parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-shard wall-clock budget; a shard over budget has its "
            "worker process killed (and is retried under --retries)"
        ),
    )
    scenario_parser.add_argument(
        "--allow-partial",
        action="store_true",
        help=(
            "graceful degradation: report failed shards and exit 0 "
            "with the completed results instead of failing the run; "
            "completed shards stay cached, so a later --resume only "
            "recomputes the holes"
        ),
    )
    return parser


def graph_spec_from_cli(
    family: str,
    n: int,
    degree: int,
    seed: int,
    self_loops: int | None = None,
):
    """Translate the CLI's uniform ``--n`` knob into per-family params."""
    from repro.graphs.balancing import log2_ceil
    from repro.scenarios import GraphSpec

    if family == "random_regular":
        params = {"n": n, "degree": degree, "seed": seed}
    elif family == "hypercube":
        params = {"dimension": log2_ceil(n)}
    elif family == "torus":
        params = {"side": max(3, int(round(n ** 0.5))), "dimensions": 2}
    elif family == "fat_tree":
        # Smallest even k whose fabric hosts at least n nodes
        # (k^3/4 hosts).
        k = 2
        while k ** 3 // 4 < n:
            k += 2
        params = {"k": k}
    elif family == "leaf_spine":
        # --n hosts hanging --degree per leaf; spines scale with
        # the leaf count.
        hosts_per_leaf = max(1, degree)
        leaves = max(1, -(-n // hosts_per_leaf))
        params = {
            "leaves": leaves,
            "spines": max(1, leaves // 2),
            "hosts_per_leaf": hosts_per_leaf,
        }
    else:
        params = {"n": n}
    if self_loops is not None:
        params["num_self_loops"] = self_loops
    return GraphSpec(family, params)


def _run_simulate(args) -> int:
    from repro.analysis.convergence import horizon_for
    from repro.core.probes import PROBES, ProbeSpec
    from repro.dynamics import INJECTORS, DynamicsSpec
    from repro.faults import FAULTS, FaultSpec
    from repro.topology import TOPOLOGIES, TopologySpec
    from repro.graphs.spectral import eigenvalue_gap
    from repro.scenarios import (
        AlgorithmSpec,
        LoadSpec,
        Scenario,
        StopRule,
    )

    if args.list_probes:
        print("registered probes:")
        for name in PROBES.names():
            print(f"  {name}")
        return 0
    if args.list_injectors:
        print("registered injectors:")
        for name in INJECTORS.names():
            print(f"  {name}")
        return 0
    if args.list_faults:
        print("registered fault schedules:")
        for name in FAULTS.names():
            print(f"  {name}")
        return 0
    if args.list_topologies:
        print("registered topology schedules:")
        for name in TOPOLOGIES.names():
            print(f"  {name}")
        return 0
    if args.list_families:
        from repro.graphs import FAMILY_BUILDERS

        print("registered graph families:")
        for name in FAMILY_BUILDERS.names():
            print(f"  {name}")
        return 0
    if args.list_engines:
        from repro.engines import create_engine, engine_names
        from repro.graphs.balancing import estimate_memory_bytes

        # Planning estimate: per-round working set at a million nodes
        # on the paper's standard d+ = 2d augmentation (d = 2).
        ref_n, ref_d_plus = 10**6, 4
        print("registered engines (plus 'auto' selection):")
        for name in engine_names():
            backend = create_engine(name)
            megabytes = estimate_memory_bytes(
                ref_n, ref_d_plus, engine=name
            ) / 2**20
            print(
                f"  {name}  [{backend.protocol} protocol, "
                f"~{megabytes:.0f} MB @ n=10^6 d+=4]"
            )
        return 0
    if args.algorithm is None:
        raise SystemExit("simulate: an algorithm name is required")
    probes = tuple(ProbeSpec.parse(text) for text in args.probe)
    dynamics = (
        DynamicsSpec.parse(args.inject) if args.inject else None
    )
    faults = FaultSpec.parse(args.faults) if args.faults else None
    topology = (
        TopologySpec.parse(args.topology) if args.topology else None
    )
    graph_spec = graph_spec_from_cli(
        args.family, args.n, args.degree, args.seed, args.self_loops
    )
    graph = graph_spec.build()
    gap = eigenvalue_gap(graph)
    tokens = args.tokens_per_node * graph.num_nodes
    rounds = args.rounds
    if rounds is None:
        from repro.core.loads import point_mass

        rounds = horizon_for(
            graph, point_mass(graph.num_nodes, tokens), gap=gap
        )
    scenario = Scenario(
        graph=graph_spec,
        algorithm=AlgorithmSpec(args.algorithm, seed=args.seed),
        loads=LoadSpec("point_mass", {"tokens": tokens}),
        stop=StopRule.fixed(rounds),
        replicas=args.replicas,
        probes=probes,
        dynamics=dynamics,
        faults=faults,
        topology=topology,
        engine=args.engine,
    )
    outcome = scenario.run(graph=graph)
    result = outcome.replica(0)
    print(f"graph:      {graph.name} (d+={graph.total_degree})")
    print(f"mu:         {gap:.5g}")
    print(f"rounds:     {result.rounds_executed}")
    if dynamics is not None:
        print(f"dynamics:   {dynamics.name}")
    if faults is not None:
        print(f"faults:     {faults.name}")
    if topology is not None:
        print(f"topology:   {topology.name}")
    if args.engine != "auto":
        print(f"engine:     {args.engine}")
    print(f"discrepancy {result.initial_discrepancy} -> "
          f"{result.final_discrepancy}")
    if args.replicas > 1:
        finals = outcome.final_discrepancies
        print(
            f"replicas:   {args.replicas}, "
            f"final discrepancy {min(finals)}..{max(finals)}"
        )
    record = outcome.record(0)
    if (
        probes
        or dynamics is not None
        or faults is not None
        or topology is not None
    ) and record is not None:
        for key, value in record.summary.items():
            if key in ("initial_discrepancy", "final_discrepancy"):
                continue
            print(f"{key}: {value}")
    if args.csv:
        from repro.analysis.export import write_trajectory_csv

        write_trajectory_csv(result.discrepancy_history, args.csv)
        print(f"wrote {args.csv}")
    if args.trace_csv:
        from repro.analysis.export import write_trace_csv

        if record is None:
            raise SystemExit("no trace recorded for this run")
        write_trace_csv(record.trace, args.trace_csv)
        print(f"wrote {args.trace_csv}")
    return 0


def _run_scenario(args) -> int:
    from repro.analysis.tables import render_table
    from repro.exec import (
        ResultCache,
        SuiteExecutionError,
        SuiteExecutor,
    )
    from repro.scenarios import Scenario, ScenarioSuite

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and "scenarios" in data:
            suite = ScenarioSuite.from_dict(data)
        else:
            suite = ScenarioSuite((Scenario.from_dict(data),))
    except (OSError, ValueError) as exc:
        print(f"scenario: {args.path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if args.resume and not args.cache:
        raise SystemExit("scenario: --resume requires the cache "
                         "(drop --no-cache)")
    if args.retries is not None and args.retries < 1:
        raise SystemExit("scenario: --retries must be >= 1")
    cache = ResultCache(args.cache_dir) if args.cache else None
    runner = SuiteExecutor(
        workers=1 if args.workers is None else args.workers,
        cache=cache,
        max_replicas_per_shard=args.max_replicas_per_shard,
        retry=args.retries,
        timeout=args.shard_timeout,
        on_shard_failure=(
            "partial" if args.allow_partial else "raise"
        ),
    )
    try:
        report = runner.run(suite)
    except SuiteExecutionError as exc:
        for failure in exc.failures:
            print(f"--- {failure.label} ---", file=sys.stderr)
            print(failure.traceback, file=sys.stderr)
        print(exc.describe(args.path), file=sys.stderr)
        return 1
    if report.failures:
        # --allow-partial: completed results below, holes on stderr.
        print(
            f"warning: {len(report.failures)} shards failed "
            "(--allow-partial; completed shards are cached)",
            file=sys.stderr,
        )
        for failure in report.failures:
            print(
                f"  [{failure.shard.scenario_index}] {failure.label}: "
                f"{failure.error}",
                file=sys.stderr,
            )
    rows = []
    for outcome in report.outcomes:
        label = outcome.scenario.name or outcome.scenario.label()
        for replica in range(len(outcome)):
            rows.append(
                {
                    "scenario": label,
                    "replica": replica,
                    **outcome.replica_summary(replica),
                }
            )
    # Union of keys across all rows: mixed stop rules produce
    # heterogeneous summaries (e.g. time_to_target only on some rows)
    # and render_table would otherwise take its columns from row 0.
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    print(
        render_table(
            rows, columns=columns, title=f"scenarios from {args.path}"
        )
    )
    print(report.summary_line())
    if cache is not None:
        stats = cache.stats
        line = (
            f"cache: {cache.root} ({stats.hits} hits, "
            f"{stats.writes} writes"
        )
        if stats.corrupt:
            line += f", {stats.corrupt} corrupt entries recomputed"
        print(line + ")")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2, default=str)
        print(f"wrote {args.json}")
    if args.records_jsonl:
        from repro.analysis.export import write_records_jsonl

        write_records_jsonl(
            (
                record
                for outcome in report.outcomes
                for record in outcome.records
            ),
            args.records_jsonl,
        )
        print(f"wrote {args.records_jsonl}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is None:
        # A subcommand's --workers wins over the global one.  Compared
        # with None, so --workers 0 reaches the executor's check.
        args.workers = args.global_workers
    if args.command is None and args.workers is not None:
        # `python -m repro --workers N`: the full battery, parallel.
        args.command = "run"
        args.experiments = []
        args.full = False
        args.json = None
        args.markdown = False
        args.cache = False
        args.cache_dir = ".repro-cache"
    if args.command == "list" or args.command is None:
        from repro.experiments.runner import FULL_OVERRIDDEN

        print("available experiments:")
        for experiment_id in sorted(EXPERIMENTS, key=_experiment_key):
            print(f"  {experiment_id}")
        print(
            "full-size variants exist for:",
            ", ".join(FULL_OVERRIDDEN),
        )
        return 0
    if args.command == "run":
        only = tuple(args.experiments) or None
        results = run_all(
            fast=not args.full,
            only=only,
            workers=args.workers,
            cache=args.cache_dir if args.cache else None,
        )
        payload = []
        for result in results:
            if args.markdown:
                print(result.to_markdown())
            else:
                print(result.to_text())
            print(f"(elapsed: {result.elapsed_seconds:.2f}s)")
            print()
            payload.append(json.loads(result.to_json()))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)
            print(f"wrote {args.json}")
        return 0
    if args.command == "simulate":
        return _run_simulate(args)
    if args.command == "scenario":
        return _run_scenario(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def _experiment_key(experiment_id: str) -> tuple:
    digits = "".join(ch for ch in experiment_id if ch.isdigit())
    return (int(digits) if digits else 0, experiment_id)


if __name__ == "__main__":
    sys.exit(main())
