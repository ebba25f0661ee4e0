"""Quickstart: balance a point-mass workload with the rotor-router.

Part 1 uses the classic imperative API (one Simulator); part 2 shows
the declarative Scenario API — the recommended front door — running an
8-replica ensemble as one vectorized batch and a small cartesian sweep.

Run with::

    python examples/quickstart.py
"""

from repro.algorithms import RotorRouter
from repro.core import DiscrepancyRecorder, Simulator, point_mass
from repro.graphs import eigenvalue_gap, random_regular
from repro.scenarios import (
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioSuite,
    StopRule,
)


def imperative_api() -> None:
    # 1. Build a 4-regular expander on 64 nodes.  Each node implicitly
    #    carries d° = d self-loops (the paper's standard lazy setting).
    graph = random_regular(64, 4, seed=1)
    print(f"graph: {graph.name}")
    print(f"eigenvalue gap mu = {eigenvalue_gap(graph):.4f}")

    # 2. Drop 6400 tokens on node 0 — initial discrepancy K = 6400.
    initial = point_mass(graph.num_nodes, 6400)

    # 3. Run the deterministic rotor-router for 200 synchronous rounds.
    #    DiscrepancyRecorder is a loads-only probe, so the simulator
    #    stays on the matrix-free structured engine while observing.
    recorder = DiscrepancyRecorder()
    simulator = Simulator(
        graph, RotorRouter(), initial, probes=(recorder,)
    )
    assert simulator.engine == "structured"
    result = simulator.run(200)

    # 4. Inspect the trajectory.
    print(f"initial discrepancy: {result.initial_discrepancy}")
    print(f"final discrepancy:   {result.final_discrepancy}")
    checkpoints = [0, 5, 10, 25, 50, 100, 200]
    for t in checkpoints:
        print(f"  round {t:>4}: discrepancy {recorder.history[t]}")
    assert result.final_discrepancy <= 3 * graph.degree


def scenario_api() -> None:
    # The same experiment, declaratively: 8 replicas with independent
    # random workloads, executed as one stacked (8, 64) batch.
    scenario = Scenario(
        graph=GraphSpec("random_regular", {"n": 64, "degree": 4, "seed": 1}),
        algorithm=AlgorithmSpec("rotor_router"),
        loads=LoadSpec("uniform_random", {"total_tokens": 6400, "seed": 7}),
        stop=StopRule.fixed(200),
        replicas=8,
    )
    outcome = scenario.run()
    print(f"\nscenario: {scenario.label()} ({len(outcome)} replicas)")
    print(f"final discrepancies: {outcome.final_discrepancies}")

    # Scenarios serialize to plain dicts/JSON (repro-lb scenario file.json).
    assert Scenario.from_dict(scenario.to_dict()) == scenario

    # Cartesian sweeps: every algorithm on every graph size, one call.
    suite = ScenarioSuite.cartesian(
        graphs=[GraphSpec("cycle", {"n": n}) for n in (9, 17)],
        algorithms=[
            AlgorithmSpec("send_floor"),
            AlgorithmSpec("rotor_router"),
        ],
        loads=LoadSpec("point_mass", {"tokens": 500}),
        stop=StopRule.discrepancy(target=8, max_rounds=2000),
    )
    print(f"sweep of {len(suite)} scenarios:")
    for result in suite.run():
        summary = result.replica_summary()
        print(
            f"  {result.scenario.label():>34}: reached discrepancy "
            f"{summary['final_discrepancy']} after "
            f"{summary['rounds']} rounds"
        )


def main() -> None:
    imperative_api()
    scenario_api()


if __name__ == "__main__":
    main()
