"""Parity smoke for the sharded executor, one sweep per leg.

Usage::

    python tools/parity_smoke.py {plain,datacenter,faulted,churn} [--workdir DIR]

Each leg builds a small sweep spec and runs it through ``repro-lb
scenario`` serially (no cache), on 2 workers (filling a cache), and on
2 workers again (served from that cache).  The three ``--records-jsonl``
dumps must be byte-identical, and the cached rerun must compute
nothing.  Then, per leg:

* ``plain``: the rerun reads exactly ``4 shards: 0 computed, 4 cached``
  and ``--resume`` is accepted on the warm cache; then, in process, a
  ``SuiteExecutor`` run with a ``graph=`` override (which the CLI
  cannot express) gives the same records at 1 and 2 workers;
* ``datacenter``: fat-tree and leaf-spine fabrics under two traffic
  models; the E16 driver's 2-worker cached JSON byte-matches its rerun;
* ``faulted``: ``tests/exec/test_chaos.py`` passes, the 2-worker run
  uses ``--retries 3 --shard-timeout 300 --allow-partial``, and the E17
  driver byte-matches its cached rerun;
* ``churn``: ``edge_churn`` on a torus and a fat-tree; the E18 driver
  byte-matches its cached rerun.

Run it from the repository root.  Commands run with the current
interpreter (``python -m repro`` is the ``repro-lb`` entry point), so
the package must be importable.  Exits non-zero on the first failed
check.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import subprocess
import sys
from pathlib import Path

from repro.exec import SuiteExecutor
from repro.faults import FaultSpec
from repro.graphs import families
from repro.scenarios import (
    AlgorithmSpec,
    DynamicsSpec,
    GraphSpec,
    LoadSpec,
    ProbeSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
    TopologySpec,
    canonical_json,
)


def plain_suite() -> ScenarioSuite:
    return ScenarioSuite.cartesian(
        graphs=[
            GraphSpec("cycle", {"n": 64}),
            GraphSpec("random_regular", {"n": 64, "degree": 4, "seed": 1}),
        ],
        algorithms=[
            AlgorithmSpec(name, seed=1) for name in ("send_floor", "rotor_router")
        ],
        loads=LoadSpec("uniform_random", {"total_tokens": 2048, "seed": 9}),
        stop=StopRule.fixed(100),
        replicas=2,
        probes=(ProbeSpec("load_bounds"),),
        name="ci-smoke",
    )


def datacenter_suite() -> ScenarioSuite:
    fabrics = (
        GraphSpec("fat_tree", {"k": 4}),
        GraphSpec("leaf_spine", {"leaves": 4, "spines": 2, "hosts_per_leaf": 3}),
    )
    traffic = (
        DynamicsSpec("poisson_arrivals", {"rate": 0.5, "seed": 3}),
        DynamicsSpec(
            "hotspot_shift",
            {"rate": 12, "hotspots": 3, "shift_every": 10, "seed": 3},
        ),
    )
    return ScenarioSuite(
        tuple(
            Scenario(
                graph=fabric,
                algorithm=AlgorithmSpec("send_floor", seed=1),
                loads=LoadSpec("balanced", {"per_node": 8}),
                stop=StopRule.fixed(60),
                replicas=2,
                probes=(ProbeSpec("tier_loads"), ProbeSpec("discrepancy")),
                dynamics=dynamics,
            )
            for fabric in fabrics
            for dynamics in traffic
        ),
        name="ci-datacenter-smoke",
    )


def faulted_suite() -> ScenarioSuite:
    return ScenarioSuite.cartesian(
        graphs=[GraphSpec("cycle", {"n": 32}), GraphSpec("fat_tree", {"k": 4})],
        algorithms=[AlgorithmSpec("send_floor", seed=1)],
        loads=LoadSpec("uniform_random", {"total_tokens": 1024, "seed": 9}),
        stop=StopRule.fixed(80),
        replicas=2,
        faults=FaultSpec("link_failures", {"rate": 0.05, "seed": 4}),
        name="ci-chaos-smoke",
    )


def churn_suite() -> ScenarioSuite:
    return ScenarioSuite.cartesian(
        graphs=[
            GraphSpec("torus", {"side": 6, "dimensions": 2}),
            GraphSpec("fat_tree", {"k": 4}),
        ],
        algorithms=[
            AlgorithmSpec(name, seed=1) for name in ("send_floor", "rotor_router")
        ],
        loads=LoadSpec("uniform_random", {"total_tokens": 1024, "seed": 9}),
        stop=StopRule.fixed(80),
        replicas=2,
        topology=TopologySpec("edge_churn", {"rate": 0.1, "downtime": 4, "seed": 2}),
        name="ci-topology-smoke",
    )


FAULT_TOLERANT = ["--retries", "3", "--shard-timeout", "300"]

# leg -> (suite, flags of the first 2-worker run, flags of the cached
# rerun, line the cached rerun must print, driver rerun or None)
LEGS = {
    "plain": (plain_suite, [], [], "4 shards: 0 computed, 4 cached", None),
    "datacenter": (datacenter_suite, [], [], "0 computed", "E16"),
    "faulted": (
        faulted_suite,
        FAULT_TOLERANT + ["--allow-partial"],
        FAULT_TOLERANT,
        "0 computed",
        "E17",
    ),
    "churn": (churn_suite, [], [], "0 computed", "E18"),
}


def run(*args: str) -> str:
    """Run one command, echo it and its output; stop on failure."""
    print("+", " ".join(args), flush=True)
    done = subprocess.run(args, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.exit(f"FAIL: exit {done.returncode}: {' '.join(args)}")
    return done.stdout


def repro_lb(*args: str) -> str:
    return run(sys.executable, "-m", "repro", *map(str, args))


def same_bytes(left: Path, right: Path) -> None:
    print(f"+ cmp {left} {right}", flush=True)
    if not filecmp.cmp(left, right, shallow=False):
        sys.exit(f"FAIL: {left} and {right} differ")


def override_parity() -> None:
    """Records of a ``graph=`` override run match at 1 and 2 workers.

    The override (a complete graph standing in for the suite's cycle)
    must reach every shard, in process or in a worker.
    """
    spec = GraphSpec("cycle", {"n": 12})
    suite = ScenarioSuite(
        tuple(
            Scenario(
                graph=spec,
                algorithm=AlgorithmSpec(name, seed=1),
                loads=LoadSpec("point_mass", {"tokens": 120}),
                stop=StopRule.fixed(5),
                replicas=2,
            )
            for name in ("send_floor", "rotor_router")
        )
    )
    override = families.build("complete", n=12)
    records = {}
    for workers in (1, 2):
        print(
            f"+ SuiteExecutor(workers={workers}).run(suite, graph=...)",
            flush=True,
        )
        report = SuiteExecutor(workers=workers).run(suite, graph=override)
        records[workers] = [
            canonical_json(record.to_dict())
            for outcome in report.outcomes
            for record in outcome.records
        ]
    if records[1] != records[2]:
        sys.exit("FAIL: graph= override records differ at 1 and 2 workers")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("leg", choices=sorted(LEGS))
    parser.add_argument(
        "--workdir",
        type=Path,
        default=Path(".parity-smoke"),
        help="directory for the spec, record dumps and cache "
        "(a subdirectory per leg; default: .parity-smoke)",
    )
    args = parser.parse_args(argv)
    build, first_flags, cached_flags, cached_line, driver = LEGS[args.leg]
    work = args.workdir / args.leg
    work.mkdir(parents=True, exist_ok=True)
    spec = work / "sweep.json"
    spec.write_text(json.dumps(build().to_dict()))
    cache = ["--cache-dir", str(work / "cache")]

    if args.leg == "faulted":
        run(sys.executable, "-m", "pytest", "-q", "tests/exec/test_chaos.py")

    serial, parallel, cached = (
        work / f"{name}.jsonl" for name in ("serial", "parallel", "cached")
    )
    repro_lb("scenario", spec, "--no-cache", "--records-jsonl", serial)
    repro_lb(
        "scenario", spec, "--workers", "2", *first_flags, *cache,
        "--records-jsonl", parallel,
    )
    same_bytes(serial, parallel)
    out = repro_lb(
        "scenario", spec, "--workers", "2", *cached_flags, *cache,
        "--records-jsonl", cached,
    )
    if cached_line not in out:
        sys.exit(f"FAIL: cached rerun did not report {cached_line!r}")
    same_bytes(serial, cached)
    if args.leg == "plain":
        repro_lb("scenario", spec, "--resume", *cache)
        override_parity()

    if driver is not None:
        first, second = (work / f"{driver}_{n}.json" for n in ("first", "second"))
        for target in (first, second):
            repro_lb(
                "run", driver, "--workers", "2", "--cache", *cache,
                "--json", target,
            )
        same_bytes(first, second)
    print(f"parity smoke {args.leg}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
