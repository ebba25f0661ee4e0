"""Synchronous simulation of one run.

A round of the discrete diffusion process (Section 1.3 of the paper):

1. every node ``u`` looks at its load ``x_t(u)`` and assigns tokens to
   its ``d+`` ports (the balancer's :meth:`sends`);
2. tokens move simultaneously; self-loop tokens and the unassigned
   remainder stay at the node;
3. the new load is ``x_{t+1}(u) = r_t(u) + f^in_t(u)``.

The round has one implementation, the replica-stacked executor
:class:`~repro.scenarios.batch.BatchRunner`, which also checks its
invariants (sends shape and sign, no overdraw unless the balancer opted
in, token conservation) and feeds the probes.  :class:`Simulator` is
its 1-replica view with a single-run API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.balancer import Balancer
from repro.core.loads import validate_loads
from repro.core.metrics import discrepancy
from repro.core.probes import Probe
from repro.core.trace import RunRecord


@dataclass
class SimulationResult:
    """Outcome of a (partial) run.

    Attributes:
        initial_loads: the vector the run started from.
        final_loads: the vector after the last executed round.
        rounds_executed: number of rounds actually executed.
        discrepancy_history: discrepancy at each round boundary
            (``[0]`` is the initial discrepancy) if recording was on.
            Entries are ``int`` for the discrete token model; real-
            valued dynamics (e.g. continuous diffusion results
            repackaged through this type) carry ``float`` entries.
        stopped_early: True if a ``run_until`` predicate fired.
        record: the columnar :class:`~repro.core.trace.RunRecord` —
            engine summary plus every probe's columns and scalars.
    """

    initial_loads: np.ndarray
    final_loads: np.ndarray
    rounds_executed: int
    discrepancy_history: list[int | float] = field(default_factory=list)
    stopped_early: bool = False
    record: RunRecord | None = None

    @property
    def initial_discrepancy(self) -> int | float:
        return discrepancy(self.initial_loads)

    @property
    def final_discrepancy(self) -> int | float:
        return discrepancy(self.final_loads)

    def summary(self) -> dict:
        return {
            "rounds": self.rounds_executed,
            "initial_discrepancy": self.initial_discrepancy,
            "final_discrepancy": self.final_discrepancy,
            "stopped_early": self.stopped_early,
        }


class Simulator:
    """Drives one balancer on one graph from one initial vector.

    The 1-replica view of :class:`~repro.scenarios.batch.BatchRunner`,
    which documents ``probes``, ``dynamics``, ``faults``, ``topology``,
    ``record_history``, ``validate_every_round`` and ``engine``; here
    each takes a single probe collection, injector or schedule (or a
    spec).  ``initial_loads`` is a length-``n`` vector, and
    ``run``/``run_until`` return a :class:`SimulationResult`.  Rounds
    are cumulative across calls: a run that stopped early continues on
    the next call.
    """

    def __init__(
        self,
        graph,
        balancer: Balancer,
        initial_loads: np.ndarray,
        *,
        probes: Iterable = (),
        dynamics=None,
        faults=None,
        topology=None,
        record_history: bool = True,
        validate_every_round: bool = True,
        engine: str = "auto",
    ) -> None:
        from repro.scenarios.batch import BatchRunner

        self._runner = BatchRunner(
            graph,
            [balancer],
            validate_loads(initial_loads)[None],
            probes=[probes],
            dynamics=dynamics,
            faults=faults,
            topology=topology,
            record_history=record_history,
            validate_every_round=validate_every_round,
            engine=engine,
        )
        self._stopped_early = False

    engine = property(lambda self: self._runner.engine)
    graph = property(lambda self: self._runner.graph)
    balancer = property(lambda self: self._runner.balancers[0])
    initial_loads = property(lambda self: self._runner.initial_loads[0])
    round = property(
        lambda self: self._runner.round,
        doc="The next round to execute (``x_1`` is the initial vector).",
    )
    loads = property(
        lambda self: self._runner.loads[0],
        doc="Current load vector (owned by the engine; copy to mutate).",
    )
    total_tokens = property(
        lambda self: self._runner.totals[0],
        doc="Running token total (moves with injection and drops).",
    )
    probes = property(
        lambda self: self._runner.probe_sets[0],
        doc="Attached observers (read-only; use :meth:`attach` to add).",
    )

    discrepancy_history = property(
        lambda self: (self._runner._histories() or [[]])[0]
    )

    def attach(self, probe) -> Probe:
        """Attach an observer mid-run; see :meth:`BatchRunner.attach`."""
        return self._runner.attach(probe)

    def step(self) -> np.ndarray:
        """Execute one synchronous round; returns the new load vector."""
        self._stopped_early = False
        return self._runner.step()[0]

    def run(self, rounds: int) -> SimulationResult:
        """Execute ``rounds`` rounds."""
        self._stopped_early = False
        return self._runner.run(rounds).replica(0)

    def run_until(
        self,
        predicate: Callable[[np.ndarray], bool],
        max_rounds: int,
        check_every: int = 1,
    ) -> SimulationResult:
        """Run until ``predicate(loads)`` holds or ``max_rounds`` elapse."""
        result = self._runner.run_until(
            [predicate], max_rounds, check_every
        ).replica(0)
        self._stopped_early = result.stopped_early
        return result

    def run_to_discrepancy(
        self, target: int, max_rounds: int, check_every: int = 1
    ) -> SimulationResult:
        """Run until the discrepancy is at most ``target``."""
        return self.run_until(
            lambda loads: discrepancy(loads) <= target,
            max_rounds,
            check_every=check_every,
        )

    def record(self, replica: int = 0) -> RunRecord:
        """Columnar record of the run so far, labelled ``replica``; it
        equals the record of the last ``run``/``run_until`` result."""
        runner = self._runner
        record = runner._record(
            0, runner._histories(), self._stopped_early
        )
        record.replica = replica
        return record


def simulate(
    graph,
    balancer: Balancer,
    initial_loads: np.ndarray,
    rounds: int,
    *,
    probes: Iterable = (),
    dynamics=None,
    faults=None,
    topology=None,
    record_history: bool = True,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    simulator = Simulator(
        graph, balancer, initial_loads, probes=probes, dynamics=dynamics,
        faults=faults, topology=topology, record_history=record_history,
    )
    return simulator.run(rounds)
