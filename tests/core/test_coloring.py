"""Tests for the executable Lemma 3.5 token-coloring argument."""

import numpy as np
import pytest

from repro.algorithms import RotorRouter, RotorRouterStar, SendRounded
from repro.core.coloring import (
    TokenColoringLedger,
    black_send_capacity_respected,
)
from repro.core.engine import Simulator
from repro.core.loads import point_mass
from repro.graphs import families


@pytest.fixture(scope="module")
def graph():
    return families.random_regular(24, 4, seed=37)


class TestLedger:
    @pytest.mark.parametrize(
        "balancer_factory",
        [RotorRouter, RotorRouterStar, SendRounded],
        ids=["rotor_router", "rotor_router_star", "send_rounded"],
    )
    def test_red_tokens_never_created(self, graph, balancer_factory):
        average = 64
        c = average // graph.total_degree + 1
        ledger = TokenColoringLedger(c)
        simulator = Simulator(
            graph,
            balancer_factory(),
            point_mass(24, 24 * average),
            probes=(ledger,),
        )
        simulator.run(120)
        assert ledger.consistent
        assert ledger.conservation_holds()

    def test_red_history_matches_phi(self, graph):
        from repro.core.potentials import phi

        c = 3
        ledger = TokenColoringLedger(c)
        simulator = Simulator(
            graph,
            RotorRouterStar(),
            point_mass(24, 24 * 16),
            probes=(ledger,),
        )
        simulator.run(30)
        assert ledger.red_history[-1] == phi(
            simulator.loads, c, graph.total_degree
        )

    def test_recolorings_accumulate(self, graph):
        """A balancing run recolors all initial red tokens eventually."""
        c = 80 // graph.total_degree + 2
        ledger = TokenColoringLedger(c)
        simulator = Simulator(
            graph,
            RotorRouterStar(),
            point_mass(24, 24 * 16),
            probes=(ledger,),
        )
        simulator.run(400)
        assert ledger.final_red == 0
        assert ledger.recolored_total == ledger.initial_red


class TestBlackCapacity:
    def test_round_fair_send_respects_capacity(self, graph):
        balancer = RotorRouter().bind(graph)
        loads = point_mass(24, 24 * 50)
        sends = balancer.sends(loads, 1)
        # Any threshold at or below the floor share works.
        c = int(loads.max()) // graph.total_degree
        assert black_send_capacity_respected(
            loads, sends, c, graph.total_degree
        )

    def test_violation_detected(self):
        loads = np.array([10])
        sends = np.array([[0, 5, 5]])  # port 0 starves below c
        assert not black_send_capacity_respected(loads, sends, 2, 3)

    def test_vacuous_when_no_overload(self):
        loads = np.array([5])
        sends = np.array([[0, 0, 5]])
        assert black_send_capacity_respected(loads, sends, 2, 3)
