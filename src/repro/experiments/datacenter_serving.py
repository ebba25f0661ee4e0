"""E16 — serving a datacenter fabric under realistic traffic.

The closest this reproduction gets to the ROADMAP north-star: both
datacenter fabrics (``fat_tree``, ``leaf_spine``) balanced by the
paper's deterministic schemes while :mod:`repro.traffic` generators
pour load onto the host tier.  For each fabric × traffic model ×
offered load × algorithm the driver reports where the discrepancy
settles (tail-mean over the final ``tail_window`` rounds) and the
serving percentiles — p99 and peak node load, plus the host-tier p99
from the ``tier_loads`` probe.

``offered`` is normalized to *tokens per host per round in
expectation*, so rows are comparable across traffic models whose raw
parameters (flow rates, burst sizes, hotspot intensities) live on
different scales.

The whole grid is one :class:`~repro.scenarios.spec.ScenarioSuite`
executed by ``suite.run()``, so the driver inherits the ambient
:func:`repro.exec.configure` context: ``workers=k`` shards it over a
process pool, ``cache=dir`` makes reruns replay byte-identically from
cached RunRecords — which is also why every reported number comes
from summaries and trace columns, never from in-memory load vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import steady_state_discrepancy
from repro.core.probes import ProbeSpec
from repro.dynamics import DynamicsSpec
from repro.experiments.base import ExperimentResult, timed
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)
from repro.traffic import host_rates

#: Mean of the clipped Pareto(alpha=1.5, min=1) size distribution —
#: used to convert an offered token rate into a flow arrival rate.
_PARETO_MEAN_SIZE = 3.0


@dataclass
class DatacenterServingConfig:
    """Sizes kept laptop-second by default; FULL enlarges them."""

    fat_tree_k: int = 4
    leaves: int = 6
    spines: int = 3
    hosts_per_leaf: int = 4
    rounds: int = 160
    tail_window: int = 40
    offered_loads: tuple[float, ...] = (1.0, 4.0, 16.0)
    traffic_models: tuple[str, ...] = (
        "poisson_arrivals",
        "pareto_flows",
        "hotspot_shift",
    )
    algorithms: tuple[str, ...] = ("send_floor", "rotor_router")
    tokens_per_node: int = 8
    replicas: int = 2
    percentile: float = 99.0
    seed: int = 1
    extra: dict = field(default_factory=dict)


def _fabric_specs(
    config: DatacenterServingConfig,
) -> list[GraphSpec]:
    return [
        GraphSpec("fat_tree", {"k": config.fat_tree_k}),
        GraphSpec(
            "leaf_spine",
            {
                "leaves": config.leaves,
                "spines": config.spines,
                "hosts_per_leaf": config.hosts_per_leaf,
            },
        ),
    ]


def _traffic_spec(
    model: str,
    offered: float,
    graph,
    config: DatacenterServingConfig,
) -> DynamicsSpec:
    """``offered`` tokens/host/round translated per traffic model."""
    hosts = graph.tier_counts().get("host", 0) or graph.num_nodes
    seed = config.seed
    if model == "poisson_arrivals":
        params = {"rate": host_rates(graph, offered), "seed": seed}
    elif model == "diurnal":
        params = {
            "rate": host_rates(graph, offered),
            "period": max(2, config.rounds // 4),
            "seed": seed,
        }
    elif model == "pareto_flows":
        params = {
            "rate": round(offered * hosts / _PARETO_MEAN_SIZE, 6),
            "alpha": 1.5,
            "seed": seed,
        }
    elif model == "hotspot_shift":
        params = {
            "rate": max(1, int(round(offered * hosts))),
            "hotspots": max(1, hosts // 8),
            "shift_every": 25,
            "seed": seed,
        }
    elif model == "correlated_burst":
        # probability * nodes = 1, so expectation stays offered*hosts.
        params = {
            "tokens": max(1, int(round(offered * hosts))),
            "nodes": 4,
            "probability": 0.25,
            "seed": seed,
        }
    else:
        raise ValueError(f"unknown traffic model {model!r}")
    return DynamicsSpec(model, params)


def run_datacenter_serving(
    config: DatacenterServingConfig,
) -> ExperimentResult:
    probe = ProbeSpec("tier_loads", {"percentile": config.percentile})
    p_key = f"p{config.percentile:g}_load"
    metas: list[dict] = []
    scenarios: list[Scenario] = []
    for fabric_spec in _fabric_specs(config):
        graph = fabric_spec.build()
        for model in config.traffic_models:
            for offered in config.offered_loads:
                dynamics = _traffic_spec(
                    model, offered, graph, config
                )
                for algorithm in config.algorithms:
                    metas.append(
                        {
                            "fabric": fabric_spec.family,
                            "n": graph.num_nodes,
                            "hosts": graph.tier_counts()["host"],
                            "traffic": model,
                            "offered": offered,
                            "algorithm": algorithm,
                        }
                    )
                    scenarios.append(
                        Scenario(
                            graph=fabric_spec,
                            algorithm=AlgorithmSpec(
                                algorithm, seed=config.seed
                            ),
                            loads=LoadSpec(
                                "balanced",
                                {"per_node": config.tokens_per_node},
                            ),
                            stop=StopRule.fixed(config.rounds),
                            replicas=config.replicas,
                            probes=(probe,),
                            dynamics=dynamics,
                        )
                    )
    suite = ScenarioSuite(tuple(scenarios), name="E16")
    rows = []
    with timed() as clock:
        outcomes = suite.run()
        for meta, outcome in zip(metas, outcomes):
            tails = [
                steady_state_discrepancy(
                    result.discrepancy_history, config.tail_window
                )
                for result in outcome.results
            ]
            summaries = [
                result.record.summary for result in outcome.results
            ]
            rows.append(
                {
                    **meta,
                    "steady_state": round(
                        sum(tails) / len(tails), 2
                    ),
                    p_key: round(
                        sum(s[p_key] for s in summaries)
                        / len(summaries),
                        2,
                    ),
                    "peak_load": max(
                        s["peak_load"] for s in summaries
                    ),
                    "host_mean_load": round(
                        sum(
                            s["tier_host_mean_load"]
                            for s in summaries
                        )
                        / len(summaries),
                        2,
                    ),
                    "tokens_injected_mean": int(
                        sum(
                            s.get("tokens_injected", 0)
                            for s in summaries
                        )
                        / len(summaries)
                    ),
                }
            )
    return ExperimentResult(
        experiment_id="E16",
        title=(
            "datacenter serving: steady-state discrepancy and "
            f"p{config.percentile:g} node load vs offered load "
            f"({config.rounds} rounds, tail {config.tail_window})"
        ),
        rows=rows,
        columns=[
            "fabric",
            "n",
            "hosts",
            "traffic",
            "offered",
            "algorithm",
            "steady_state",
            p_key,
            "peak_load",
            "host_mean_load",
            "tokens_injected_mean",
        ],
        notes=[
            "offered is tokens per host per round in expectation; "
            "traffic parameters are normalized per model",
            "steady_state is the tail-mean discrepancy averaged over "
            f"{config.replicas} replicas; load percentiles come from "
            "the tier_loads probe at the final round",
            "fabrics are padded irregular graphs (hosts degree 1), so "
            "all engine fast paths stay valid",
        ],
        metadata={"config": config.__dict__},
        elapsed_seconds=clock.elapsed,
    )
