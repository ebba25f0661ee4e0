"""Shared test utilities: fixtures, builders, and hypothesis strategies.

This is the single home for test-support code — ad-hoc graph/load
builders, the monitored-run harness, and the hypothesis strategies the
property and differential suites share.  (It absorbed the former
``tests/property/strategies.py``; import everything from here.)
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core.engine import SimulationResult, Simulator
from repro.core.fairness import (
    ClassVerdict,
    CumulativeFairnessMonitor,
    FairnessMonitor,
    classify_run,
)
from repro.core.flows import FlowTracker
from repro.core.monitors import LoadBoundsMonitor
from repro.graphs import families


def run_monitored(
    graph,
    balancer,
    initial_loads,
    rounds: int,
    s: int = 1,
) -> tuple[SimulationResult, ClassVerdict, FlowTracker, LoadBoundsMonitor]:
    """Run with the full monitor suite; returns result + class verdict."""
    fairness = FairnessMonitor(s=s)
    cumulative = CumulativeFairnessMonitor()
    flows = FlowTracker()
    bounds = LoadBoundsMonitor()
    simulator = Simulator(
        graph,
        balancer,
        initial_loads,
        probes=(fairness, cumulative, flows, bounds),
    )
    result = simulator.run(rounds)
    return result, classify_run(fairness, cumulative), flows, bounds


def assert_conserved(result: SimulationResult) -> None:
    assert result.final_loads.sum() == result.initial_loads.sum()


def spread_loads(n: int, seed: int, high: int = 100) -> np.ndarray:
    """Random nonnegative integer loads for ad-hoc cases."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=n).astype(np.int64)


# ----------------------------------------------------------------------
# Hypothesis strategies (shared by the property and differential suites)
# ----------------------------------------------------------------------


@st.composite
def balancing_graphs(draw, max_self_loops: int = 8):
    """A small graph from a random family with a random d° >= d."""
    family = draw(
        st.sampled_from(
            ["cycle", "complete", "hypercube", "torus", "random_regular"]
        )
    )
    if family == "cycle":
        n = draw(st.integers(3, 16))
        base = families.cycle(n)
    elif family == "complete":
        n = draw(st.integers(3, 10))
        base = families.complete(n)
    elif family == "hypercube":
        dim = draw(st.integers(2, 4))
        base = families.hypercube(dim)
    elif family == "torus":
        side = draw(st.integers(3, 4))
        base = families.torus(side, 2)
    else:
        n = draw(st.sampled_from([8, 12, 16]))
        degree = draw(st.sampled_from([3, 4]))
        base = families.random_regular(n, degree, seed=draw(st.integers(0, 50)))
    loops = draw(
        st.integers(base.degree, base.degree + max_self_loops)
    )
    return base.with_self_loops(loops)


@st.composite
def load_vectors(draw, n: int, max_load: int = 200):
    """A nonnegative integer load vector of length n."""
    values = draw(
        st.lists(
            st.integers(0, max_load), min_size=n, max_size=n
        )
    )
    return np.array(values, dtype=np.int64)
