"""The round executor: every run is a stack of replicas.

A round of the discrete process (Section 1.3 of the paper) is one fixed
pipeline, written here once: the round-opening phases (topology churn,
fault epochs, injection: :class:`RoundPhase`), the send rule, sends
validation and the overdraw check, the backend's gather or matrix-free
apply (:mod:`repro.engines`), phase settlement (fault corrections), and
finally the conservation check, the discrepancy history and the probes.

:class:`BatchRunner` runs that pipeline over a ``(replicas, n)`` load
stack.  A stateless balancer implementing ``sends_batch`` may be shared
by all replicas and evaluates the whole stack in one call; otherwise
each replica runs its own balancer on its own row (and, under topology
churn, on its own graph copy).  :class:`~repro.core.engine.Simulator`
is the 1-replica view, so a batch replica and a ``Simulator`` built
from the same inputs run the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.core.balancer import Balancer
from repro.core.engine import SimulationResult
from repro.core.errors import (
    ConservationError,
    InvalidSendMatrix,
    NegativeLoadError,
)
from repro.core.loads import validate_delta, validate_load_matrix
from repro.core.probes import LOADS, Probe, build_probes, dense_required
from repro.core.trace import RunRecord, build_record
from repro.dynamics.spec import DynamicsSpec
from repro.engines import ENGINES, STRUCTURED, create_engine, engine_names
from repro.faults.schedules import (
    apply_round_faults,
    dense_port_values,
    structured_port_values,
    validate_round_faults,
)
from repro.faults.spec import FaultSpec
from repro.graphs.balancing import BalancingGraph
from repro.specs import coerce_spec
from repro.topology.schedules import (
    apply_topology_events,
    validate_topology_events,
)
from repro.topology.spec import TopologySpec


@dataclass
class BatchResult:
    """Outcome of a batch run: one entry (or row) per replica.

    ``initial_loads``/``final_loads`` are ``(replicas, n)`` stacks;
    ``histories`` is empty when recording was off; ``records`` are the
    columnar :class:`~repro.core.trace.RunRecord`\\ s (engine summary
    plus every probe's columns and scalars).
    """

    initial_loads: np.ndarray
    final_loads: np.ndarray
    rounds_executed: np.ndarray
    stopped_early: np.ndarray
    histories: list[list[int]] = field(default_factory=list)
    records: list[RunRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return self.initial_loads.shape[0]

    def replica(self, index: int) -> SimulationResult:
        """Replica ``index`` repackaged as a single-run result."""
        return SimulationResult(
            initial_loads=self.initial_loads[index].copy(),
            final_loads=self.final_loads[index].copy(),
            rounds_executed=int(self.rounds_executed[index]),
            discrepancy_history=(
                list(self.histories[index]) if self.histories else []
            ),
            stopped_early=bool(self.stopped_early[index]),
            record=self.records[index] if self.records else None,
        )

    def as_simulation_results(self) -> list[SimulationResult]:
        """All replicas as :class:`SimulationResult`, in replica order."""
        return [self.replica(index) for index in range(len(self))]


class RoundPhase:
    """One round-opening axis, holding one schedule per replica.

    The executor calls :meth:`start` per replica before the first round,
    :meth:`open_round` at the top of every round for each active replica
    (phases in list order, before the send rule), :meth:`settle` on the
    replica's fresh post-round row, and :meth:`summary` for its record.
    ``open_round`` and ``settle`` edit the row in place and return the
    change to the replica's token total, so conservation stays exact.
    Schedules come as a registry spec (replica ``r`` is built with
    ``seed + r``, independent of the batch size), a list of one
    instance per replica, or one instance for one replica.
    """

    spec_type: type  # a RegistrySpec; builds (or coerces) one schedule

    def __init__(self, value, replicas: int) -> None:
        spec_type = self.spec_type
        instance_type = spec_type.instance_type
        if isinstance(value, (list, tuple)):
            self.schedules = list(value)
        elif replicas != 1 and isinstance(value, instance_type):
            raise ValueError(
                f"a single {instance_type.__name__} instance cannot be "
                f"shared across {replicas} replicas (its state would be "
                f"corrupted); pass a {spec_type.__name__} or one "
                "instance per replica"
            )
        else:
            self.schedules = [
                coerce_spec(value, spec_type, r) for r in range(replicas)
            ]
        if len(self.schedules) != replicas:
            raise ValueError(
                f"expected one {spec_type.kind} schedule per replica, "
                f"got {len(self.schedules)} for {replicas} replicas"
            )
        self.counts = [0] * replicas

    def start(self, replica: int, graph, loads: np.ndarray) -> None:
        self.schedules[replica].start(graph, loads)

    def open_round(self, runner, replica: int, loads: np.ndarray) -> int:
        return 0

    def settle(self, runner, replica, loads, port_values) -> int:
        return 0

    def summary(self, replica: int) -> dict:
        return {}


class TopologyPhase(RoundPhase):
    """Churn on the replica's private graph copy; only dirty rows are
    repaired, and leaving nodes hand their load to neighbours."""

    spec_type = TopologySpec

    def open_round(self, runner, replica, loads) -> int:
        graph = runner._graphs[replica]
        events = self.schedules[replica].round_events(runner.round, loads)
        if events is None or events.is_empty():
            return 0
        if runner.validate_every_round and not events.trusted:
            validate_topology_events(events, graph)
        apply_topology_events(graph, events, loads)
        dirty = graph.consume_dirty()
        runner.balancers[replica].refresh_topology(graph, dirty)
        runner._backend.refresh_topology(graph, dirty)
        self.counts[replica] += 1
        return 0

    def summary(self, replica) -> dict:
        schedule = self.schedules[replica]
        return {
            "topology_schedule": schedule.name,
            "topology_rounds": self.counts[replica],
            **schedule.summary(),
        }


class FaultPhase(RoundPhase):
    """Crash/recover epochs open the round; afterwards sends on dead
    links bounce back and dropped sends leave the tracked total."""

    spec_type = FaultSpec

    def __init__(self, value, replicas: int) -> None:
        super().__init__(value, replicas)
        self.current: list = [None] * replicas

    def open_round(self, runner, replica, loads) -> int:
        schedule = self.schedules[replica]
        faults = schedule.round_state(runner.round, loads)
        self.current[replica] = faults
        if faults is None:
            return 0
        if runner.validate_every_round and not faults.trusted:
            validate_round_faults(faults, runner.graph)
        if faults.load_delta is None:
            return 0
        delta = validate_delta(
            faults.load_delta, loads, schedule.name, runner.round
        )
        loads += delta
        return int(delta.sum())

    def settle(self, runner, replica, loads, port_values) -> int:
        faults = self.current[replica]
        if faults is None:
            return 0
        dropped = apply_round_faults(loads, runner.graph, faults, port_values)
        self.counts[replica] += dropped
        return -dropped

    def summary(self, replica) -> dict:
        schedule = self.schedules[replica]
        return {
            "fault_schedule": schedule.name,
            "tokens_dropped": self.counts[replica],
            **schedule.summary(),
        }


class InjectionPhase(RoundPhase):
    """The dynamic workload's delta (the adversary moves first)."""

    spec_type = DynamicsSpec

    def open_round(self, runner, replica, loads) -> int:
        injector = self.schedules[replica]
        delta = injector.delta(runner.round, loads)
        delta = validate_delta(delta, loads, injector.name, runner.round)
        # In place: a fresh O(n) array per round costs more than the add.
        loads += delta
        moved = int(delta.sum())
        self.counts[replica] += moved
        return moved

    def summary(self, replica) -> dict:
        return {
            "tokens_injected": self.counts[replica],
            **self.schedules[replica].summary(),
        }


class BatchRunner:
    """Drives ``replicas`` independent runs as one stacked array.

    Args:
        graph: the shared balancing graph ``G+``.
        balancers: one balancer per replica, or a single stateless
            balancer implementing ``sends_batch`` (shared by all
            replicas and evaluated over the whole stack).
        initial_loads: ``(replicas, n)`` nonnegative integer array.
        probes: one collection of probe specs, factories or instances
            per replica.  Sends consumers need one balancer per
            replica; a shared balancer carries loads-only probes.
        dynamics: optional dynamic workload: a
            :class:`~repro.dynamics.spec.DynamicsSpec` or injectors
            (see :class:`RoundPhase`).
        faults: optional fault schedule, given the same way
            (:class:`~repro.faults.spec.FaultSpec`).
        topology: optional dynamic-topology schedule, given the same
            way (:class:`~repro.topology.spec.TopologySpec`).  Each
            replica churns a private
            :class:`~repro.graphs.mutable.MutableBalancingGraph` copy
            with its own balancer.  Mutually exclusive with ``faults``.
        record_history: keep per-replica discrepancy trajectories.
        validate_every_round: structural validation of every sends
            matrix or compact round (vectorized; cheap).
        engine: any name registered in :data:`repro.engines.ENGINES`,
            or ``"auto"`` (default): ``structured`` when every balancer
            supports it and no probe demands dense sends matrices,
            ``dense`` otherwise.
    """

    def __init__(
        self,
        graph: BalancingGraph,
        balancers: Balancer | Sequence[Balancer],
        initial_loads: np.ndarray,
        *,
        probes: Sequence[Sequence] | None = None,
        dynamics=None,
        faults=None,
        topology=None,
        record_history: bool = True,
        validate_every_round: bool = True,
        engine: str = "auto",
    ) -> None:
        initial_loads = validate_load_matrix(initial_loads)
        replicas, n = initial_loads.shape
        if n != graph.num_nodes:
            raise InvalidSendMatrix(
                f"load rows have {n} entries for a graph with "
                f"{graph.num_nodes} nodes"
            )
        if isinstance(balancers, Balancer):
            balancers = [balancers]
        self.graph = graph
        self._graphs: list | None = None
        if topology is not None:
            if faults is not None:
                raise ValueError(
                    "faults and topology cannot be combined: fault "
                    "schedules precompute canonical port maps that "
                    "topology churn invalidates"
                )
            if len(balancers) != replicas:
                raise ValueError(
                    "topology churn diverges the graphs per replica, "
                    "so the shared-balancer shortcut is unavailable; "
                    f"pass one balancer per replica (got "
                    f"{len(balancers)} for {replicas})"
                )
            from repro.graphs.mutable import MutableBalancingGraph

            # The caller's (possibly shared) graph is never mutated.
            self._graphs = [
                MutableBalancingGraph.from_graph(graph)
                for _ in range(replicas)
            ]
        self._phases = [
            phase_type(value, replicas)
            for phase_type, value in (
                (TopologyPhase, topology),
                (FaultPhase, faults),
                (InjectionPhase, dynamics),
            )
            if value is not None
        ]
        self._settling = [
            phase
            for phase in self._phases
            if type(phase).settle is not RoundPhase.settle
        ]
        self.balancers = [
            balancer.bind(self._graph_for(index))
            for index, balancer in enumerate(balancers)
        ]
        self._shared = len(self.balancers) == 1 and replicas > 1
        if self._shared:
            shared = self.balancers[0]
            batched = shared.supports_batched_sends
            if not (batched and shared.properties.stateless):
                raise ValueError(
                    f"balancer {shared.name!r} cannot be shared across "
                    "replicas (needs sends_batch and statelessness); "
                    "pass one instance per replica instead"
                )
        if not self._shared and len(self.balancers) != replicas:
            raise ValueError(
                f"got {len(self.balancers)} balancers for "
                f"{replicas} replicas"
            )
        self.num_replicas = replicas
        if probes is None:
            probes = [()] * replicas
        elif len(probes) != replicas:
            raise ValueError(
                f"got {len(probes)} probe sets for {replicas} replicas"
            )
        self.probe_sets = [build_probes(spec) for spec in probes]
        # A shared balancer sends for the whole stack in one call, so
        # there is no per-replica round for a sends consumer to read.
        bad = [p for s in self.probe_sets for p in s if p.needs != LOADS]
        if self._shared and bad:
            raise ValueError(
                f"probe {type(bad[0]).__name__} consumes sends, but "
                f"balancer {self.balancers[0].name!r} is shared across "
                "replicas and sends for the whole stack at once; pass "
                "one balancer per replica instead"
            )
        self._has_probes = any(self.probe_sets)
        self._requested_engine = engine
        self._select_engine(engine)
        self.record_history = record_history
        self.validate_every_round = validate_every_round
        self.initial_loads = initial_loads
        self._loads = initial_loads.copy()
        self.totals = initial_loads.sum(axis=1).tolist()
        self.round = 1  # paper convention: x_1 is the initial vector
        self._active = list(range(replicas))
        # rounds_executed = steps taken - steps a frozen replica sat out
        self._steps = 0
        self._missed = np.zeros(replicas, dtype=np.int64)
        self._stopped_early = np.zeros(replicas, dtype=bool)
        # Per round: every replica's discrepancy, and which replicas ran.
        self._history: list[np.ndarray] = []
        self._ran: list[np.ndarray] = []
        self._everyone = np.ones(replicas, dtype=bool)
        for phase in self._phases:
            for replica in range(replicas):
                phase.start(
                    replica, self._graph_for(replica), self._loads[replica]
                )
        for replica, probe_set in enumerate(self.probe_sets):
            for probe in probe_set:
                self._start_probe(probe, replica)

    @property
    def loads(self) -> np.ndarray:
        """Current ``(replicas, n)`` load stack (owned; copy to mutate)."""
        return self._loads

    def _graph_for(self, replica: int):
        """Replica ``replica``'s graph (its private copy under churn)."""
        return self.graph if self._graphs is None else self._graphs[replica]

    def _start_probe(self, probe: Probe, replica: int) -> None:
        balancer = self.balancers[0 if self._shared else replica]
        probe.start(self._graph_for(replica), balancer, self._loads[replica])

    def _select_engine(self, engine: str) -> None:
        """Resolve ``engine`` and check its protocol against the run."""
        if engine != "auto" and engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; registered engines: "
                f"{', '.join(engine_names())} (or 'auto')"
            )
        probes = [probe for probes in self.probe_sets for probe in probes]
        missing = [
            b.name for b in self.balancers if not b.supports_structured_sends
        ]
        if engine == "auto":
            structured = not missing and not dense_required(probes)
            engine = "structured" if structured else "dense"
        backend = create_engine(engine)
        if backend.protocol == STRUCTURED:
            if missing:
                raise ValueError(
                    f"balancer {missing[0]!r} does not implement "
                    "structured sends; use the dense engine"
                )
            if dense_required(probes):
                bad = next(p for p in probes if dense_required((p,)))
                raise ValueError(
                    f"probe {type(bad).__name__} requires dense sends "
                    "matrices; use the dense engine"
                )
        self.engine = engine
        self._backend = backend
        self._structured = backend.protocol == STRUCTURED

    def attach(self, probe) -> Probe:
        """Attach an observer mid-run to a single-replica runner.

        The probe is started with the *current* loads, so it observes
        from this round on.  A probe demanding dense sends switches an
        auto-selected structured run to dense (bit-identical
        trajectories); an explicitly requested engine raises instead.
        A stack takes its probes at construction only.
        """
        if self.num_replicas != 1:
            raise ValueError(
                "attach needs a single-replica runner; a stack takes probes="
            )
        (probe,) = build_probes((probe,))
        if self._structured and dense_required((probe,)):
            if self._requested_engine != "auto":
                raise ValueError(
                    f"probe {type(probe).__name__} requires dense sends "
                    f"matrices but the {self.engine} engine was "
                    "explicitly requested"
                )
            self._select_engine("dense")
        self._start_probe(probe, 0)
        self.probe_sets[0] += (probe,)
        self._has_probes = True
        return probe

    def step(self) -> np.ndarray:
        """Execute one synchronous round for every active replica."""
        active = self._active
        if not active:
            return self._loads
        before = self._loads
        totals = self.totals
        for phase in self._phases:
            for replica in active:
                totals[replica] += phase.open_round(
                    self, replica, before[replica]
                )
        everyone = len(active) == self.num_replicas
        if self._shared:
            stack = before if everyone else before[active]
            new, _ = self._advance(
                self.balancers[0], self.graph, stack, active
            )
        else:
            rounds = [
                self._advance(
                    self.balancers[replica],
                    self._graph_for(replica),
                    before[replica],
                    (replica,),
                )
                for replica in active
            ]
            rows = [row for row, _ in rounds]
            new = rows[0][None] if len(rows) == 1 else np.stack(rows)
        sums = new.sum(axis=1).tolist()
        expected = totals if everyone else [totals[r] for r in active]
        if sums != expected:
            bad = int(np.flatnonzero(np.subtract(sums, expected))[0])
            raise ConservationError(
                f"round {self.round}: replica {active[bad]} token count "
                f"changed from {expected[bad]} to {sums[bad]}"
            )
        # Probes read ``before``, which the write-back below overwrites
        # in place once some replicas are frozen: feed them first.
        if self._has_probes:
            t = self.round
            for index, replica in enumerate(active):
                after = new[index]
                for probe in self.probe_sets[replica]:
                    if probe.needs == LOADS:
                        probe.observe_loads(t, after)
                        continue
                    sends = rounds[index][1]
                    if self._structured:
                        probe.observe_structured(
                            t, before[replica], sends, after
                        )
                    else:
                        probe.observe(t, before[replica], sends, after)
        self._steps += 1
        if everyone:
            self._loads = new
        else:
            self._loads[active] = new
            self._missed += 1
            self._missed[active] -= 1
        if self.record_history:
            loads = self._loads
            self._history.append(loads.max(axis=1) - loads.min(axis=1))
            ran = self._everyone
            if not everyone:
                ran = np.zeros(self.num_replicas, dtype=bool)
                ran[active] = True
            self._ran.append(ran)
        self.round += 1
        return self._loads

    def _advance(self, balancer, graph, loads, replicas):
        """Send rule → validation → overdraw → backend → settlement on
        one replica's row, or on the active stack of a shared balancer.
        Returns the new loads and the sends (matrix or compact round)."""
        t = self.round
        stacked = loads.ndim == 2
        if self._structured:
            sends = balancer.sends_structured(loads, t)
            if self.validate_every_round:
                sends.validate(graph, loads)
            if not balancer.allows_negative:
                # Re-derived from the round's fields every round; not
                # bound to a name, so the buffer is freed before the
                # apply allocates its own.
                self._check_overdraw(
                    balancer, loads, sends.remainder(graph, loads), replicas
                )
            new = self._backend.apply(graph, sends, loads)
        else:
            rule = balancer.sends_batch if stacked else balancer.sends
            sends = rule(loads, t)
            if self.validate_every_round:
                self._validate_sends(sends, loads, graph)
            degree = graph.degree
            new = loads - sends[..., :degree].sum(axis=-1)
            if not balancer.allows_negative:
                remainder = new - sends[..., degree:].sum(axis=-1)
                self._check_overdraw(balancer, loads, remainder, replicas)
            new += self._backend.incoming(graph, sends)
        if self._settling:
            rows = new if stacked else (new,)
            for index, replica in enumerate(replicas):
                if self._structured:
                    values = partial(
                        structured_port_values, sends, graph, replica=index
                    )
                else:
                    matrix = sends[index] if stacked else sends
                    values = partial(dense_port_values, matrix)
                for phase in self._settling:
                    self.totals[replica] += phase.settle(
                        self, replica, rows[index], values
                    )
        return new, sends

    def _check_overdraw(self, balancer, loads, remainder, replicas) -> None:
        """Raise if a node sent more than it holds (the NL column)."""
        if remainder.min() >= 0:
            return
        flat = int(np.argmin(remainder))
        row, node = divmod(flat, loads.shape[-1])
        held = int(loads.reshape(-1)[flat])
        sent = held - int(remainder.reshape(-1)[flat])
        raise NegativeLoadError(
            f"round {self.round}: replica {replicas[row]} node {node} "
            f"sent {sent} tokens but holds {held} (balancer "
            f"{balancer.name!r} does not allow negative load)"
        )

    @staticmethod
    def _validate_sends(sends: np.ndarray, loads, graph) -> None:
        expected = loads.shape + (graph.total_degree,)
        if sends.shape != expected:
            raise InvalidSendMatrix(
                f"sends have shape {sends.shape}, expected {expected}"
            )
        if not np.issubdtype(sends.dtype, np.integer):
            raise InvalidSendMatrix(
                f"sends must be integer, got dtype {sends.dtype}"
            )
        if sends.min() < 0:
            raise InvalidSendMatrix(
                "sends contain negative entries; tokens can only move "
                "forward along edges"
            )

    def run(self, rounds: int) -> BatchResult:
        """Execute ``rounds`` rounds for every active replica."""
        for _ in range(rounds):
            self.step()
        return self._result()

    def run_until(
        self,
        predicates: Sequence[Callable[[np.ndarray], bool]],
        max_rounds: int,
        check_every: int = 1,
    ) -> BatchResult:
        """Run until each replica's predicate holds (or budget runs out).

        Each predicate is evaluated on its replica's load vector before
        the first round and then every ``check_every`` rounds; a
        satisfied replica is frozen (no further rounds, phases or
        probes) while the rest continue.  In a stack, freezing is for
        good: the round index is shared, so a replica woken later would
        see its time-dependent schedules skewed.  A lone replica (the
        :class:`~repro.core.engine.Simulator` view) resumes on the next
        call.
        """
        if len(predicates) != self.num_replicas:
            raise ValueError(
                f"got {len(predicates)} predicates for "
                f"{self.num_replicas} replicas"
            )
        for executed in range(max_rounds + 1):
            if executed % check_every == 0:
                stopped = [
                    replica
                    for replica in self._active
                    if predicates[replica](self._loads[replica])
                ]
                self._stopped_early[stopped] = True
                self._active = [r for r in self._active if r not in stopped]
            if executed == max_rounds or not self._active:
                break
            self.step()
        result = self._result()
        if self.num_replicas == 1:
            self._active = [0]
            self._stopped_early[:] = False
        return result

    def _histories(self) -> list[list[int]]:
        """Per-replica discrepancy trajectories as lists."""
        if not self.record_history:
            return []
        initial = self.initial_loads
        values = np.column_stack(
            [initial.max(axis=1) - initial.min(axis=1), *self._history]
        )
        ran = np.column_stack([self._everyone, *self._ran])
        return [row[mask].tolist() for row, mask in zip(values, ran)]

    def _engine_summary(self, replica: int) -> dict:
        initial = self.initial_loads[replica]
        final = self._loads[replica]
        summary = {
            "initial_discrepancy": int(initial.max() - initial.min()),
            "final_discrepancy": int(final.max() - final.min()),
        }
        # Record key order is injection, faults, topology: the reverse
        # of the order the phases open a round.
        for phase in reversed(self._phases):
            summary.update(phase.summary(replica))
        return summary

    def _record(self, replica, histories, stopped_early) -> RunRecord:
        return build_record(
            replica=replica,
            rounds_executed=self._steps - int(self._missed[replica]),
            stopped_early=stopped_early,
            engine_summary=self._engine_summary(replica),
            discrepancy_history=histories[replica] if histories else None,
            probes=self.probe_sets[replica],
        )

    def _result(self) -> BatchResult:
        histories = self._histories()
        stopped = self._stopped_early.tolist()
        return BatchResult(
            initial_loads=self.initial_loads,
            final_loads=self._loads.copy(),
            rounds_executed=self._steps - self._missed,
            stopped_early=self._stopped_early.copy(),
            histories=histories,
            records=[
                self._record(replica, histories, stopped[replica])
                for replica in range(self.num_replicas)
            ],
        )
