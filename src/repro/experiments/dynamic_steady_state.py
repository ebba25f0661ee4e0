"""E15 — steady-state discrepancy under sustained injection.

The paper's theorems bound the discrepancy a deterministic scheme
reaches from a *fixed* initial vector; this experiment asks the
production question instead: if load keeps arriving every round, where
does the discrepancy settle?  For each of the four standard graph
families the driver sweeps the injection rate (``constant_rate``
arrivals at seeded-random nodes, plus the load-aware
``adversarial_peak`` for the worst case) and reports the tail-mean
discrepancy (:func:`~repro.core.metrics.steady_state_discrepancy`)
over the final ``tail_window`` rounds, averaged across replicas.

Qualitative predictions the smoke tests assert:

* at rate 0 the dynamic run degenerates to the static model — the
  steady state matches the static plateau;
* the steady state grows with the injection rate;
* ``adversarial_peak`` at a given rate is no easier than random
  arrivals at the same rate (it concentrates every arrival on the
  current maximum).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import steady_state_discrepancy
from repro.dynamics import DynamicsSpec
from repro.experiments.base import ExperimentResult, timed
from repro.graphs.balancing import log2_ceil
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)


@dataclass
class DynamicSteadyStateConfig:
    """Sizes kept laptop-second by default; FULL enlarges them."""

    n: int = 64
    degree: int = 4
    rounds: int = 240
    tail_window: int = 60
    rates: tuple[int, ...] = (0, 1, 4, 16)
    injectors: tuple[str, ...] = ("constant_rate", "adversarial_peak")
    algorithms: tuple[str, ...] = ("send_floor", "rotor_router")
    families: tuple[str, ...] = (
        "cycle",
        "torus",
        "hypercube",
        "random_regular",
    )
    tokens_per_node: int = 16
    replicas: int = 3
    seed: int = 1
    extra: dict = field(default_factory=dict)


def _graph_spec(family: str, config: DynamicSteadyStateConfig) -> GraphSpec:
    """The CLI's uniform ``n`` knob translated per family."""
    n = config.n
    if family == "random_regular":
        params = {"n": n, "degree": config.degree, "seed": config.seed}
    elif family == "hypercube":
        params = {"dimension": log2_ceil(n)}
    elif family == "torus":
        params = {"side": max(3, int(round(n ** 0.5))), "dimensions": 2}
    else:
        params = {"n": n}
    return GraphSpec(family, params)


def _dynamics(
    injector: str, rate: int, config: DynamicSteadyStateConfig
) -> DynamicsSpec | None:
    if rate == 0:
        return None  # the static baseline row
    if injector == "adversarial_peak":
        return DynamicsSpec("adversarial_peak", {"rate": rate})
    return DynamicsSpec(injector, {"rate": rate, "seed": config.seed})


def run_dynamic_steady_state(
    config: DynamicSteadyStateConfig,
) -> ExperimentResult:
    rows = []
    with timed() as clock:
        for family in config.families:
            graph_spec = _graph_spec(family, config)
            graph = graph_spec.build()
            tokens = config.tokens_per_node * graph.num_nodes
            for algorithm in config.algorithms:
                for injector in config.injectors:
                    for rate in config.rates:
                        dynamics = _dynamics(injector, rate, config)
                        if rate == 0 and injector != config.injectors[0]:
                            continue  # one shared static baseline
                        scenario = Scenario(
                            graph=graph_spec,
                            algorithm=AlgorithmSpec(
                                algorithm, seed=config.seed
                            ),
                            loads=LoadSpec(
                                "uniform_random",
                                {
                                    "total_tokens": tokens,
                                    "seed": config.seed,
                                },
                            ),
                            stop=StopRule.fixed(config.rounds),
                            replicas=config.replicas,
                            dynamics=dynamics,
                        )
                        outcome = scenario.run(graph=graph)
                        tails = [
                            steady_state_discrepancy(
                                result.discrepancy_history,
                                config.tail_window,
                            )
                            for result in outcome.results
                        ]
                        injected = [
                            result.record.summary.get(
                                "tokens_injected", 0
                            )
                            for result in outcome.results
                        ]
                        rows.append(
                            {
                                "family": family,
                                "n": graph.num_nodes,
                                "algorithm": algorithm,
                                "injector": (
                                    "static"
                                    if dynamics is None
                                    else injector
                                ),
                                "rate": rate,
                                "steady_state": round(
                                    sum(tails) / len(tails), 2
                                ),
                                "steady_state_max": round(
                                    max(tails), 2
                                ),
                                "tokens_injected_mean": int(
                                    sum(injected) / len(injected)
                                ),
                            }
                        )
    return ExperimentResult(
        experiment_id="E15",
        title=(
            "steady-state discrepancy vs injection rate "
            f"(n={config.n}, {config.rounds} rounds, tail "
            f"{config.tail_window})"
        ),
        rows=rows,
        columns=[
            "family",
            "n",
            "algorithm",
            "injector",
            "rate",
            "steady_state",
            "steady_state_max",
            "tokens_injected_mean",
        ],
        notes=[
            "steady_state is the tail-mean discrepancy averaged over "
            f"{config.replicas} replicas; rate 0 is the static "
            "baseline",
            "adversarial_peak concentrates every arrival on the "
            "currently max-loaded node (load-aware worst case)",
        ],
        metadata={"config": config.__dict__},
        elapsed_seconds=clock.elapsed,
    )
