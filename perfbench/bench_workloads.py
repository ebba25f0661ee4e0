"""The benchmark workloads: seeded inputs, one measured pass, references.

Each workload turns the benchmark seed into concrete scenario specs
(:meth:`scenarios` / :meth:`suite`), runs one measured pass through
repro's public API (:meth:`run_pass`) and computes the untimed
reference digests of the same inputs through ``engine="dense"`` and
the serial suite executor (:meth:`reference`).

A pass returns a plain dict; ``ops`` lists ``[reference_key, digest]``
for every run or shard the pass produced, so the launcher can check each
one against the reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.engine import Simulator
from repro.core.probes import ProbeSpec
from repro.dynamics.spec import DynamicsSpec
from repro.exec import ResultCache, run_suite
from repro.faults.spec import FaultSpec
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)
from repro.topology.spec import TopologySpec
from repro.traffic import host_rates

STEPPED_ALGORITHMS = ("rotor_router", "send_floor")


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent sub-seeds of the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(count)
    return [int(value) % 2**31 for value in state]


def run_digest(final_loads, records) -> str:
    """sha256 over final loads (int64 bytes) and canonical record JSON."""
    digest = hashlib.sha256()
    if final_loads is not None:
        digest.update(
            np.ascontiguousarray(final_loads, dtype=np.int64).tobytes()
        )
    for record in records:
        digest.update(
            json.dumps(
                record.to_dict(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        )
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    import resource

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def timed_steps(
    simulator: Simulator,
    rounds: int,
    block: int = 1,
    between=None,
    every: int = 1,
) -> list[float]:
    """Step ``rounds`` rounds; one sample per ``block`` consecutive rounds.

    A sample is the mean wall time per round over its block, in ms;
    blocks longer than one round keep sub-millisecond rounds clear of
    timer jitter.  ``between()`` runs after every ``every``-th block,
    outside the round timer, so a second measurement can be spread
    over the same window.
    """
    if rounds % block:
        raise ValueError(f"{rounds} rounds do not split into blocks of {block}")
    samples = []
    for index in range(rounds // block):
        start = time.perf_counter()
        for _ in range(block):
            simulator.step()
        samples.append((time.perf_counter() - start) * 1e3 / block)
        if between is not None and index % every == every - 1:
            between()
    return samples


def simulator_for(scenario: Scenario, graph) -> Simulator:
    """Replica 0 of ``scenario`` as a steppable :class:`Simulator`."""
    return Simulator(
        graph,
        scenario.build_balancer(0),
        scenario.build_loads(graph, 0),
        probes=scenario.build_probe_set(),
        dynamics=scenario.dynamics,
        faults=scenario.faults,
        topology=scenario.topology,
        engine=scenario.engine,
    )


def stepped_reference(scenarios: list[Scenario]) -> list[str]:
    """Digests of ``scenarios`` run untimed on the dense engine, serially."""
    dense = ScenarioSuite(
        tuple(replace(scenario, engine="dense") for scenario in scenarios)
    )
    report = run_suite(dense, workers=1)
    return [
        run_digest(outcome.results[0].final_loads, outcome.records)
        for outcome in report.outcomes
    ]


class CacheReplay:
    """Times reading a fixed set of records back from a warm ResultCache."""

    def __init__(self, root: Path, records_by_key: dict) -> None:
        self.cache = ResultCache(root)
        self.keys = list(records_by_key)
        for key, records in records_by_key.items():
            self.cache.put(key, records)
        self.seconds: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        for key in self.keys:
            if self.cache.get(key) is None:
                raise RuntimeError(f"cache replay lost entry {key}")
        self.seconds.append(time.perf_counter() - start)


class SteppedWorkload:
    """rotor_router then send_floor, each one Simulator stepped per round."""

    rounds: int
    block: int = 1

    def __init__(self, size: str, seed: int) -> None:
        self.size = size
        self.seed = seed

    def graph_spec(self) -> GraphSpec:
        raise NotImplementedError

    def scenarios(self, graph) -> list[Scenario]:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def run_pass(self, t_spawn: float, workdir: Path) -> dict:
        graph = self.graph_spec().build()
        scenarios = self.scenarios(graph)
        simulators = [simulator_for(s, graph) for s in scenarios]
        # Replayed once per block of rounds, so its samples span the
        # whole timed window like the round samples do.
        replay = CacheReplay(
            workdir / f"replay-{os.getpid()}",
            {
                name: [simulator.record()]
                for name, simulator in zip(STEPPED_ALGORITHMS, simulators)
            },
        )
        t_first = time.perf_counter()
        rotor_ms, send_ms = (
            timed_steps(simulator, self.rounds, self.block, between=replay)
            for simulator in simulators
        )
        t_end = time.perf_counter()
        records = {
            name: [simulator.record()]
            for name, simulator in zip(STEPPED_ALGORITHMS, simulators)
        }
        ops = [
            [name, run_digest(simulator.loads, records[name])]
            for name, simulator in zip(STEPPED_ALGORITHMS, simulators)
        ]
        return {
            "setup_s": t_first - t_spawn,
            "wall_s": t_end - t_spawn,
            "measured_s": t_end - t_first,
            "window": [t_first, t_end],
            "node_rounds": graph.num_nodes * self.rounds * len(simulators),
            "round_ms": {"rotor": rotor_ms, "send": send_ms},
            "cache_replay_s": statistics.median(replay.seconds),
            "peak_rss_mb": peak_rss_mb(),
            "ops": ops,
        }

    def reference(self) -> dict[str, str]:
        graph = self.graph_spec().build()
        return dict(
            zip(STEPPED_ALGORITHMS, stepped_reference(self.scenarios(graph)))
        )


class Cycle1M(SteppedWorkload):
    """cycle(2^20), adversarial_split at 32 tokens/node."""

    tokens_per_node = 32

    def __init__(self, size: str, seed: int) -> None:
        super().__init__(size, seed)
        self.n = 2**20 if size == "full" else 4096
        self.rounds = 34
        # The seed moves the split between the two antipodal masses.
        rng = np.random.default_rng(derived_seeds(seed, 1)[0])
        self.fraction = 0.375 + float(rng.random()) / 4

    def graph_spec(self) -> GraphSpec:
        return GraphSpec("cycle", {"n": self.n})

    def scenarios(self, graph) -> list[Scenario]:
        loads = LoadSpec(
            "adversarial_split",
            {
                "tokens": self.tokens_per_node * self.n,
                "fraction": self.fraction,
            },
        )
        return [
            Scenario(
                graph=self.graph_spec(),
                algorithm=AlgorithmSpec(name),
                loads=loads,
                stop=StopRule.fixed(self.rounds),
            )
            for name in STEPPED_ALGORITHMS
        ]

    def describe(self) -> dict:
        return {
            "n": self.n,
            "rounds": self.rounds,
            "tokens_per_node": self.tokens_per_node,
            "fraction": self.fraction,
        }


class FabricChurn(SteppedWorkload):
    """fat_tree(32) under host Poisson traffic and random edge churn."""

    host_rate = 0.5
    churn_rate = 0.01
    downtime = 5
    tokens_per_node = 32

    def __init__(self, size: str, seed: int) -> None:
        super().__init__(size, seed)
        self.k = 32 if size == "full" else 8
        self.rounds = 300 if size == "full" else 150
        self.block = 3
        self.load_seed, self.traffic_seed, self.churn_seed = derived_seeds(
            seed, 3
        )

    def graph_spec(self) -> GraphSpec:
        return GraphSpec("fat_tree", {"k": self.k})

    def scenarios(self, graph) -> list[Scenario]:
        loads = LoadSpec(
            "uniform_random",
            {
                "total_tokens": self.tokens_per_node * graph.num_nodes,
                "seed": self.load_seed,
            },
        )
        traffic = DynamicsSpec(
            "poisson_arrivals",
            {
                "rate": host_rates(graph, self.host_rate),
                "seed": self.traffic_seed,
            },
        )
        churn = TopologySpec(
            "edge_churn",
            {
                "rate": self.churn_rate,
                "downtime": self.downtime,
                "seed": self.churn_seed,
            },
        )
        return [
            Scenario(
                graph=self.graph_spec(),
                algorithm=AlgorithmSpec(name),
                loads=loads,
                stop=StopRule.fixed(self.rounds),
                dynamics=traffic,
                topology=churn,
            )
            for name in STEPPED_ALGORITHMS
        ]

    def describe(self) -> dict:
        return {
            "k": self.k,
            "rounds": self.rounds,
            "host_rate": self.host_rate,
            "churn_rate": self.churn_rate,
            "downtime": self.downtime,
            "seeds": [self.load_seed, self.traffic_seed, self.churn_seed],
        }


class SweepSmall:
    """A 40-scenario ScenarioSuite through run_suite: cold, then warm."""

    algorithms = (
        "send_floor", "send_rounded", "rotor_router",
        "randomized_extra_tokens",
    )
    fault_rate = 0.02
    tokens_per_graph = 32 * 1024

    def __init__(self, size: str, seed: int) -> None:
        self.size = size
        self.seed = seed
        full = size == "full"
        self.replicas = 8 if full else 2
        self.rounds = 100 if full else 10
        self.probe_rounds = 6000 if full else 1000
        self.probe_block = 25 if full else 10
        self.warm_replays = 10 if full else 2
        self.workers = len(os.sched_getaffinity(0))
        (
            self.graph_seed, self.load_seed, self.algorithm_seed,
            self.fault_seed,
        ) = derived_seeds(seed, 4)
        if full:
            self.graphs = [
                (GraphSpec("cycle", {"n": 1024}), 1024),
                (GraphSpec("torus", {"side": 32, "dimensions": 2}), 1024),
                (GraphSpec("hypercube", {"dimension": 10}), 1024),
                (self._random_regular(1024, 8), 1024),
                (GraphSpec("fat_tree", {"k": 8}), 208),
            ]
        else:
            self.graphs = [
                (GraphSpec("cycle", {"n": 32}), 32),
                (GraphSpec("torus", {"side": 5, "dimensions": 2}), 25),
                (GraphSpec("hypercube", {"dimension": 5}), 32),
                (self._random_regular(32, 4), 32),
                (GraphSpec("fat_tree", {"k": 4}), 36),
            ]

    def _random_regular(self, n: int, degree: int) -> GraphSpec:
        return GraphSpec(
            "random_regular",
            {"n": n, "degree": degree, "seed": self.graph_seed},
        )

    def _loads(self) -> LoadSpec:
        total = self.tokens_per_graph if self.size == "full" else 32 * 32
        return LoadSpec(
            "uniform_random", {"total_tokens": total, "seed": self.load_seed}
        )

    def suite(self, engine: str = "auto") -> ScenarioSuite:
        faults = FaultSpec(
            "link_failures", {"rate": self.fault_rate, "seed": self.fault_seed}
        )
        return ScenarioSuite(
            tuple(
                Scenario(
                    graph=graph,
                    algorithm=AlgorithmSpec(name, seed=self.algorithm_seed),
                    loads=self._loads(),
                    stop=StopRule.fixed(self.rounds),
                    replicas=self.replicas,
                    probes=(ProbeSpec("load_bounds"),),
                    faults=fault,
                    engine=engine,
                )
                for graph, _ in self.graphs
                for name in self.algorithms
                for fault in (None, faults)
            )
        )

    def probe_scenarios(self) -> list[Scenario]:
        """Stepped rotor/SEND runs on the sweep's densest graph."""
        graph = self.graphs[3][0]
        return [
            Scenario(
                graph=graph,
                algorithm=AlgorithmSpec(name),
                loads=self._loads(),
                stop=StopRule.fixed(self.probe_rounds),
            )
            for name in STEPPED_ALGORITHMS
        ]

    def node_rounds(self) -> int:
        per_graph = len(self.algorithms) * 2 * self.replicas * self.rounds
        return sum(n * per_graph for _, n in self.graphs)

    def describe(self) -> dict:
        return {
            "suite": self.suite().content_hash(),
            "probes": [s.content_hash() for s in self.probe_scenarios()],
            "workers": self.workers,
        }

    def run_pass(self, t_spawn: float, workdir: Path) -> dict:
        suite = self.suite()
        cache = workdir / f"cache-{os.getpid()}"
        t_first = time.perf_counter()
        cold = run_suite(suite, workers=self.workers, cache=cache)
        t_cold = time.perf_counter()
        reports = [cold]
        replay_s: list[float] = []

        def warm_replay() -> None:
            start = time.perf_counter()
            warm = run_suite(suite, workers=self.workers, cache=cache)
            replay_s.append(time.perf_counter() - start)
            if warm.computed:
                raise RuntimeError(
                    f"warm replay recomputed {warm.computed} shards"
                )
            reports.append(warm)

        # The warm replays are spread over the stepped runs' window.
        probes = self.probe_scenarios()
        graph = probes[0].build_graph()
        simulators = [simulator_for(s, graph) for s in probes]
        every = 2 * self.probe_rounds // self.probe_block // self.warm_replays
        rotor_ms, send_ms = (
            timed_steps(
                simulator, self.probe_rounds, self.probe_block,
                between=warm_replay, every=every,
            )
            for simulator in simulators
        )
        ops = [
            [f"scenario/{index}", run_digest(None, outcome.records)]
            for report in reports
            for index, outcome in enumerate(report.outcomes)
        ]
        for scenario, simulator in zip(probes, simulators):
            ops.append(
                [
                    f"probe/{scenario.algorithm.name}",
                    run_digest(simulator.loads, [simulator.record()]),
                ]
            )
        return {
            "setup_s": t_first - t_spawn,
            "wall_s": t_cold - t_spawn,
            "measured_s": t_cold - t_first,
            "window": [t_first, t_cold],
            "node_rounds": self.node_rounds(),
            "round_ms": {"rotor": rotor_ms, "send": send_ms},
            "cache_replay_s": statistics.median(replay_s),
            "peak_rss_mb": peak_rss_mb(),
            "ops": ops,
            "workers": self.workers,
            "cold_run_s": t_cold - t_first,
        }

    def reference(self) -> dict[str, str]:
        report = run_suite(self.suite(engine="dense"), workers=1)
        digests = {
            f"scenario/{index}": run_digest(None, outcome.records)
            for index, outcome in enumerate(report.outcomes)
        }
        probes = self.probe_scenarios()
        for scenario, digest in zip(probes, stepped_reference(probes)):
            digests[f"probe/{scenario.algorithm.name}"] = digest
        return digests


WORKLOADS = {
    "cycle_1m": Cycle1M,
    "sweep_small": SweepSmall,
    "fabric_churn": FabricChurn,
}
