"""Exhaustive smoke matrix: probe × engine × layout.

Every registered probe must run under every engine (``dense`` /
``structured`` / ``auto``) and in a multi-replica scenario stack
(checked against one looped Simulator per replica) without error — or
fail with the documented capability error — and all paths that do run
must agree on the probe's output.  This is the guard that keeps
fast-path engineering honest as probes and engines grow.
"""

import pytest

from repro.algorithms.registry import make
from repro.core.engine import Simulator
from repro.core.loads import uniform_random
from repro.core.probes import PROBES, ProbeSpec
from repro.dynamics import DynamicsSpec
from repro.graphs import families
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    StopRule,
)
from tests.helpers import assert_same_results, run_per_replica

ENGINES = ("dense", "structured", "auto")
ROUNDS = 25

#: Minimal constructor params for probes without defaults.  A new
#: probe with required params must add an entry here — the matrix
#: below fails loudly on construction otherwise, which is the point:
#: every registered probe stays covered.
REQUIRED_PARAMS: dict[str, dict] = {
    "potentials": {"c_values": [4], "s": 1},
    "token_coloring": {"c": 2},
}


def _spec(name: str) -> ProbeSpec:
    return ProbeSpec(name, REQUIRED_PARAMS.get(name, {}))


def _graph():
    return families.torus(4, 2)


def _loads(n):
    return uniform_random(n, 20 * n, seed=3)


def _dense_required(name: str) -> bool:
    probe = _spec(name).build()
    return probe.needs != "loads" and not probe.accepts_structured


def test_registry_is_nonempty():
    assert len(PROBES.names()) >= 9


@pytest.mark.parametrize("probe_name", PROBES.names())
def test_probe_runs_on_every_engine_and_agrees(probe_name):
    """dense/structured/auto all run (or refuse loudly) and agree."""
    graph = _graph()
    loads = _loads(graph.num_nodes)
    summaries = {}
    for engine in ENGINES:
        probe = _spec(probe_name).build()
        if engine == "structured" and _dense_required(probe_name):
            with pytest.raises(ValueError, match="dense"):
                Simulator(
                    graph,
                    make("send_floor"),
                    loads,
                    probes=(probe,),
                    engine=engine,
                )
            continue
        result = Simulator(
            graph,
            make("send_floor"),
            loads,
            probes=(probe,),
            engine=engine,
        ).run(ROUNDS)
        summaries[engine] = result.record.summary
    assert len(summaries) >= 2
    reference = next(iter(summaries.values()))
    for engine, summary in summaries.items():
        assert summary == reference, f"{engine} summary diverged"


@pytest.mark.parametrize("probe_name", PROBES.names())
def test_probe_looped_vs_batched(probe_name):
    """A scenario stack matches looped per-replica Simulators, record
    for record, for every probe (sends consumers included)."""
    scenario = Scenario(
        graph=GraphSpec("torus", {"side": 4, "dimensions": 2}),
        algorithm=AlgorithmSpec("send_floor"),
        loads=LoadSpec("uniform_random", {"total_tokens": 320, "seed": 3}),
        stop=StopRule.fixed(ROUNDS),
        replicas=2,
        probes=(_spec(probe_name),),
    )
    assert_same_results(scenario.run(), run_per_replica(scenario))


@pytest.mark.parametrize("probe_name", PROBES.names())
def test_probe_matrix_under_dynamics(probe_name):
    """The same matrix holds with an injector attached."""
    graph = _graph()
    loads = _loads(graph.num_nodes)
    spec = DynamicsSpec("random_churn", {"rate": 7, "seed": 4})
    summaries = {}
    for engine in ("dense", "structured"):
        if engine == "structured" and _dense_required(probe_name):
            continue
        result = Simulator(
            graph,
            make("send_floor"),
            loads,
            probes=(_spec(probe_name),),
            dynamics=spec.build(),
            engine=engine,
        ).run(ROUNDS)
        summaries[engine] = result.record.summary
    reference = next(iter(summaries.values()))
    for summary in summaries.values():
        assert summary == reference
    assert "tokens_departed" in reference
