"""E17 — self-stabilization under network faults.

The paper's schemes carry no global state, so they should *self-heal*:
whatever a faulty fabric does to the load vector, the algorithm keeps
driving it back toward balance.  This driver quantifies that on the
four fault-relevant topologies (``cycle``, ``torus`` and both
datacenter fabrics) × {SEND, rotor-router} × link-failure rate:

* **baseline** — the fault-free tail-mean discrepancy (the static
  plateau the scheme would reach on an intact fabric);
* **steady_floor** — where the discrepancy settles when links keep
  failing every round (``link_failures`` active for the whole run):
  the price of a permanently lossy fabric;
* **recovery_rounds** — with the same failures active only until
  mid-run (``until=rounds//2``), how many rounds after the fabric
  heals until the discrepancy is back at the baseline plateau.
  Replicas that never recover inside the run are censored at the
  remaining-round count and reported via ``recovered``.

Qualitative predictions the smoke tests assert: at rate 0 the floor
equals the baseline; the floor grows with the failure rate; recovery
time is finite (the schemes re-converge once the fabric heals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.metrics import steady_state_discrepancy
from repro.experiments.base import ExperimentResult, timed
from repro.faults import FaultSpec
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)


@dataclass
class FaultRecoveryConfig:
    """Sizes kept laptop-second by default; FULL enlarges them."""

    n: int = 64
    fat_tree_k: int = 4
    leaves: int = 6
    spines: int = 3
    hosts_per_leaf: int = 4
    rounds: int = 200
    tail_window: int = 50
    fail_rates: tuple[float, ...] = (0.05, 0.2)
    algorithms: tuple[str, ...] = ("send_floor", "rotor_router")
    families: tuple[str, ...] = (
        "cycle",
        "torus",
        "fat_tree",
        "leaf_spine",
    )
    tokens_per_node: int = 16
    replicas: int = 3
    seed: int = 1
    extra: dict = field(default_factory=dict)


def _graph_spec(family: str, config: FaultRecoveryConfig) -> GraphSpec:
    """The CLI's uniform ``n`` knob translated per family."""
    if family == "fat_tree":
        return GraphSpec("fat_tree", {"k": config.fat_tree_k})
    if family == "leaf_spine":
        return GraphSpec(
            "leaf_spine",
            {
                "leaves": config.leaves,
                "spines": config.spines,
                "hosts_per_leaf": config.hosts_per_leaf,
            },
        )
    if family == "torus":
        side = max(3, int(round(config.n ** 0.5)))
        return GraphSpec("torus", {"side": side, "dimensions": 2})
    return GraphSpec(family, {"n": config.n})


def _scenario(
    graph_spec: GraphSpec,
    algorithm: str,
    tokens: int,
    faults: FaultSpec | None,
    config: FaultRecoveryConfig,
) -> Scenario:
    return Scenario(
        graph=graph_spec,
        algorithm=AlgorithmSpec(algorithm, seed=config.seed),
        loads=LoadSpec(
            "uniform_random",
            {"total_tokens": tokens, "seed": config.seed},
        ),
        stop=StopRule.fixed(config.rounds),
        replicas=config.replicas,
        faults=faults,
    )


def _recovery_rounds(
    history: list[int], heal_round: int, target: int
) -> tuple[int, bool]:
    """Rounds after ``heal_round`` until discrepancy <= ``target``.

    ``history[t - 1]`` is the discrepancy after round ``t``; the first
    qualifying round at or after healing counts as recovered.  Censored
    (never recovered) replicas report the full remaining span.
    """
    for t in range(heal_round, len(history) + 1):
        if history[t - 1] <= target:
            return max(0, t - heal_round), True
    return len(history) - heal_round, False


def run_fault_recovery(config: FaultRecoveryConfig) -> ExperimentResult:
    rows = []
    heal_round = config.rounds // 2
    with timed() as clock:
        for family in config.families:
            graph_spec = _graph_spec(family, config)
            graph = graph_spec.build()
            tokens = config.tokens_per_node * graph.num_nodes
            for algorithm in config.algorithms:
                baseline = _scenario(
                    graph_spec, algorithm, tokens, None, config
                ).run(graph=graph)
                base_tails = [
                    steady_state_discrepancy(
                        result.discrepancy_history, config.tail_window
                    )
                    for result in baseline.results
                ]
                base_mean = sum(base_tails) / len(base_tails)
                targets = [
                    int(math.ceil(tail)) for tail in base_tails
                ]
                rows.append(
                    {
                        "family": family,
                        "n": graph.num_nodes,
                        "algorithm": algorithm,
                        "fail_rate": 0.0,
                        "baseline": round(base_mean, 2),
                        "steady_floor": round(base_mean, 2),
                        "recovery_rounds": 0.0,
                        "recovered": config.replicas,
                        "edge_failures_mean": 0,
                    }
                )
                for rate in config.fail_rates:
                    floor_spec = FaultSpec(
                        "link_failures",
                        {"rate": rate, "seed": config.seed},
                    )
                    floor = _scenario(
                        graph_spec, algorithm, tokens, floor_spec, config
                    ).run(graph=graph)
                    floor_tails = [
                        steady_state_discrepancy(
                            result.discrepancy_history,
                            config.tail_window,
                        )
                        for result in floor.results
                    ]
                    failures = [
                        result.record.summary.get("edge_failures", 0)
                        for result in floor.results
                    ]
                    heal_spec = FaultSpec(
                        "link_failures",
                        {
                            "rate": rate,
                            "until": heal_round,
                            "seed": config.seed,
                        },
                    )
                    healing = _scenario(
                        graph_spec, algorithm, tokens, heal_spec, config
                    ).run(graph=graph)
                    recoveries = [
                        _recovery_rounds(
                            result.discrepancy_history,
                            heal_round,
                            target,
                        )
                        for result, target in zip(
                            healing.results, targets
                        )
                    ]
                    rows.append(
                        {
                            "family": family,
                            "n": graph.num_nodes,
                            "algorithm": algorithm,
                            "fail_rate": rate,
                            "baseline": round(base_mean, 2),
                            "steady_floor": round(
                                sum(floor_tails) / len(floor_tails), 2
                            ),
                            "recovery_rounds": round(
                                sum(r for r, _ in recoveries)
                                / len(recoveries),
                                1,
                            ),
                            "recovered": sum(
                                1 for _, ok in recoveries if ok
                            ),
                            "edge_failures_mean": int(
                                sum(failures) / len(failures)
                            ),
                        }
                    )
    return ExperimentResult(
        experiment_id="E17",
        title=(
            "discrepancy recovery and steady floor vs link-failure "
            f"rate (n={config.n}, {config.rounds} rounds, heal at "
            f"{heal_round})"
        ),
        rows=rows,
        columns=[
            "family",
            "n",
            "algorithm",
            "fail_rate",
            "baseline",
            "steady_floor",
            "recovery_rounds",
            "recovered",
            "edge_failures_mean",
        ],
        notes=[
            "steady_floor is the tail-mean discrepancy with "
            "link_failures active all run; baseline is the fault-free "
            "plateau",
            "recovery_rounds averages, over replicas, the rounds after "
            "the fabric heals (until=rounds/2) until the discrepancy "
            "is back at that replica's fault-free plateau; 'recovered' "
            "counts replicas that got there within the run",
        ],
        metadata={"config": config.__dict__},
        elapsed_seconds=clock.elapsed,
    )
