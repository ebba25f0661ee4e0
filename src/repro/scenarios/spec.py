"""Declarative scenario specifications.

The paper's statements are over *ensembles* — many graphs × algorithms
× initial vectors — so the public API is built around a declarative
:class:`Scenario`: what graph (:class:`GraphSpec`), what workload
(:class:`LoadSpec`), what algorithm (:class:`AlgorithmSpec`), when to
stop (:class:`StopRule`), and how many replicas.  Scenarios round-trip
through plain dictionaries (JSON/CLI use) and compose into cartesian
sweeps via :class:`ScenarioSuite`.

Example::

    scenario = Scenario(
        graph=GraphSpec("random_regular", {"n": 64, "degree": 4, "seed": 1}),
        algorithm=AlgorithmSpec("rotor_router"),
        loads=LoadSpec("point_mass", {"tokens": 6400}),
        stop=StopRule.fixed(200),
        replicas=4,
    )
    result = scenario.run()

A scenario runs as one :class:`~repro.scenarios.batch.BatchRunner`
stacking all its replicas into one ``(replicas, n)`` array.  Replica
``r`` follows the same trajectory as a
:class:`~repro.core.engine.Simulator` built from replica ``r``'s
inputs, whatever its probes, dynamics, faults or topology.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.algorithms.registry import make
from repro.core.balancer import Balancer
from repro.core.engine import SimulationResult
from repro.core.loads import LOAD_SPECS
from repro.core.metrics import (
    discrepancy,
    final_plateau,
    time_to_discrepancy,
)
from repro.core.monitors import LoadBoundsMonitor
from repro.core.probes import Probe, ProbeSpec, build_probes, loads_only
from repro.core.trace import RunRecord
from repro.dynamics.spec import DynamicsSpec
from repro.engines import ENGINES, engine_names
from repro.faults.spec import FaultSpec
from repro.topology.spec import TopologySpec
from repro.graphs import families
from repro.graphs.balancing import BalancingGraph
from repro.graphs.ports import PortGraph
from repro.scenarios.batch import BatchRunner
from repro.specs import RegistrySpec, spec_fields

STOP_KINDS = ("rounds", "target_discrepancy", "converged")

#: A scenario's schedule axes: field, spec type, noun for errors, and
#: the mark that joins the schedule's name to :meth:`Scenario.label`.
SCHEDULE_AXES = (
    ("dynamics", DynamicsSpec, "injector", "+"),
    ("faults", FaultSpec, "fault schedule", "!"),
    ("topology", TopologySpec, "topology schedule", "~"),
)


def canonical_json(data) -> str:
    """The canonical serialization used for content-addressed hashing.

    Key order and separators are pinned so the same logical dictionary
    always produces the same byte string — the foundation of the result
    cache's "no false hits" guarantee.  Values that are not plain JSON
    raise ``TypeError`` (no ``default=`` fallback): a lossy stringified
    stand-in — numpy truncates large arrays to ``[0 1 ... 999]`` — could
    hash two different scenarios to the same key.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``data``."""
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _check_type(spec, name: str, kind: type) -> None:
    """Raise unless ``spec.<name>`` is exactly a ``kind``: a ``bool`` is
    not an ``int`` here, nor a ``1`` a ``bool``."""
    value = getattr(spec, name)
    if type(value) is not kind:
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


class GraphSpec(RegistrySpec):
    """A graph family by name plus its construction parameters.

    Serialized as ``{"family": ..., "params": {...}}``; :attr:`family`
    reads the name.
    """

    instance_type = PortGraph
    kind = "graph"
    name_key = "family"
    always_params = True

    @property
    def family(self) -> str:
        return self.name

    def build(self) -> PortGraph:
        # families.build names the known families for an unknown one.
        return self._create(families.build)


class LoadSpec(RegistrySpec):
    """A named initial-load distribution plus its parameters.

    Names resolve against :data:`repro.core.loads.LOAD_SPECS`
    (``point_mass``, ``uniform_random``, ``adversarial_split``,
    ``skewed``, ...).  If the params include a ``seed``, replica ``r``
    uses ``seed + r`` so replicas are independent samples; seedless
    (deterministic) workloads are identical across replicas.
    """

    registry = LOAD_SPECS
    instance_type = np.ndarray
    kind = "loads"
    always_params = True

    def build(self, n: int, replica: int = 0) -> np.ndarray:
        return self._create(self.registry.create, replica, n=n)


@dataclass(frozen=True)
class AlgorithmSpec(RegistrySpec):
    """A registered balancer by name plus extra parameters and a seed.

    Replica ``r`` is built with ``seed + r`` so randomized schemes get
    independent, reproducible streams; deterministic schemes ignore the
    seed entirely.
    """

    seed: int = 0

    instance_type = Balancer
    kind = "algorithm"
    always_params = True

    __hash__ = RegistrySpec.__hash__

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_type(self, "seed", int)

    def build(self, replica: int = 0) -> Balancer:
        # Through make, so an unknown name keeps its KeyError.
        return self._create(make, seed=self.seed + replica)


@dataclass(frozen=True)
class StopRule:
    """When a replica's run ends.

    Kinds:

    * ``rounds`` — exactly ``rounds`` rounds (the paper's ``O(T)``
      measurements);
    * ``target_discrepancy`` — until discrepancy ``<= target``, up to
      ``max_rounds`` (Theorem 3.3's time-to-``O(d)`` column);
    * ``converged`` — until the discrepancy has not improved for
      ``window`` consecutive checks, up to ``max_rounds``.
    """

    kind: str = "rounds"
    rounds: int | None = None
    target: int | None = None
    max_rounds: int | None = None
    check_every: int = 1
    window: int = 16

    def __post_init__(self) -> None:
        if self.kind not in STOP_KINDS:
            raise ValueError(
                f"unknown stop kind {self.kind!r}; known: {STOP_KINDS}"
            )
        for key in ("rounds", "target", "max_rounds"):
            if getattr(self, key) is not None:
                _check_type(self, key, int)
        _check_type(self, "check_every", int)
        _check_type(self, "window", int)
        if self.kind == "rounds":
            if self.rounds is None or self.rounds < 0:
                raise ValueError("kind='rounds' needs rounds >= 0")
        elif self.max_rounds is None or self.max_rounds < 0:
            raise ValueError(f"kind={self.kind!r} needs max_rounds >= 0")
        if self.kind == "target_discrepancy" and self.target is None:
            raise ValueError("kind='target_discrepancy' needs a target")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.kind != "converged" and self.window != 16:
            raise ValueError("window applies only to kind='converged'")

    @classmethod
    def fixed(cls, rounds: int) -> "StopRule":
        return cls(kind="rounds", rounds=rounds)

    @classmethod
    def discrepancy(
        cls, target: int, max_rounds: int, check_every: int = 1
    ) -> "StopRule":
        return cls(
            kind="target_discrepancy",
            target=target,
            max_rounds=max_rounds,
            check_every=check_every,
        )

    @classmethod
    def converged(
        cls, max_rounds: int, window: int = 16, check_every: int = 1
    ) -> "StopRule":
        return cls(
            kind="converged",
            max_rounds=max_rounds,
            window=window,
            check_every=check_every,
        )

    def predicate(self) -> Callable[[np.ndarray], bool] | None:
        """A fresh per-replica stop predicate (None for fixed rounds)."""
        if self.kind == "rounds":
            return None
        if self.kind == "target_discrepancy":
            target = self.target

            def reached(loads: np.ndarray) -> bool:
                return discrepancy(loads) <= target

            return reached
        best: int | None = None
        stale = 0
        window = self.window

        def converged(loads: np.ndarray) -> bool:
            nonlocal best, stale
            current = discrepancy(loads)
            if best is None or current < best:
                best, stale = current, 0
            else:
                stale += 1
            return stale >= window

        return converged

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        for key in ("rounds", "target", "max_rounds"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.check_every != 1:
            data["check_every"] = self.check_every
        if self.kind == "converged":
            data["window"] = self.window
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StopRule":
        return cls(**spec_fields(data, "stop", (), _field_names(cls)))


@dataclass
class ScenarioResult:
    """Outcome of one scenario: per-replica results, probes, records.

    ``graph`` may be ``None`` for results reassembled from cached or
    remotely computed records (the executor subsystem ships
    :class:`~repro.core.trace.RunRecord`\\ s, not graphs); it is rebuilt
    lazily from the scenario's spec when actually needed.
    """

    scenario: "Scenario"
    graph: BalancingGraph | None
    results: list[SimulationResult]
    probes: list[tuple]

    def _resolve_graph(self) -> BalancingGraph:
        if self.graph is None:
            self.graph = self.scenario.build_graph()
        return self.graph

    @property
    def records(self) -> list[RunRecord]:
        """Per-replica columnar records (engine facts + probe output)."""
        return [
            result.record
            for result in self.results
            if result.record is not None
        ]

    def __len__(self) -> int:
        return len(self.results)

    def replica(self, index: int = 0) -> SimulationResult:
        return self.results[index]

    @property
    def final_discrepancies(self) -> list[int]:
        return [result.final_discrepancy for result in self.results]

    def monitor(self, probe_type: type, replica: int = 0):
        """The first attached probe of ``probe_type`` (or None)."""
        for probe in self.probes[replica]:
            if isinstance(probe, probe_type):
                return probe
        return None

    def record(self, replica: int = 0) -> RunRecord | None:
        """Replica ``replica``'s columnar record (None if unavailable)."""
        return self.results[replica].record

    def replica_summary(
        self, replica: int = 0, plateau_window: int = 16
    ) -> dict:
        """Measurement row for one replica (plateau, min load, target).

        Engine facts come first; every probe's scalar summary is merged
        in (``min_load`` from the load-bounds probe, ``period`` from
        the period detector, ...), so drivers read one uniform dict
        instead of fishing values out of probe instances.
        """
        result = self.results[replica]
        history = result.discrepancy_history
        data = result.summary()
        data["plateau"] = (
            final_plateau(history, plateau_window)
            if history
            else result.final_discrepancy
        )
        record = result.record
        if record is not None:
            for key, value in record.summary.items():
                data.setdefault(key, value)
        bounds = self.monitor(LoadBoundsMonitor, replica)
        if bounds is not None:
            data["min_load"] = bounds.min_ever
        stop = self.scenario.stop
        if stop.kind == "target_discrepancy" and history:
            data["target"] = stop.target
            data["time_to_target"] = time_to_discrepancy(
                history, stop.target
            )
        return data

    def summary(self) -> dict:
        """Aggregate summary over replicas."""
        finals = self.final_discrepancies
        return {
            "scenario": self.scenario.name or self.scenario.label(),
            "graph": self._resolve_graph().name,
            "replicas": len(self.results),
            "final_discrepancy_min": min(finals),
            "final_discrepancy_max": max(finals),
            "final_discrepancy_mean": sum(finals) / len(finals),
            "rounds": [r.rounds_executed for r in self.results],
        }


@dataclass
class Scenario:
    """One declarative unit of work: graph × workload × algorithm × stop.

    Attributes:
        graph: a :class:`GraphSpec`, or a prebuilt graph — regular or
            padded (programmatic use; such scenarios
            cannot be serialized with :meth:`to_dict`).
        algorithm: the balancer spec; replica ``r`` runs with
            ``seed + r``.
        loads: the initial-load spec; seeded workloads offset their seed
            per replica.
        stop: when each replica ends.
        replicas: independent repetitions of the run.
        probes: capability-typed observers, instantiated fresh per
            replica: :class:`~repro.core.probes.ProbeSpec`\\ s (which
            serialize with the scenario) or probe factories (e.g. the
            class ``LoadBoundsMonitor`` itself; not serializable).
            Loads-only probes let a stateless balancer be shared by
            the whole stack; sends-consuming probes get one balancer
            per replica.
        dynamics, faults, topology: the optional schedule axes
            (:data:`SCHEDULE_AXES`) — injection, network faults and
            graph churn.  Each is a registry spec
            (:class:`~repro.dynamics.spec.DynamicsSpec`,
            :class:`~repro.faults.spec.FaultSpec`,
            :class:`~repro.topology.spec.TopologySpec`), which
            serializes with the scenario and builds replica ``r`` a
            fresh schedule with ``seed + r``, or, for single-replica
            programmatic use, a ready instance.  All three keep the
            structured engine.  Under churn each replica runs its own
            graph copy and balancer; ``faults`` and ``topology`` are
            mutually exclusive.
        record_history: keep per-round discrepancy trajectories.
        validate_every_round: structural validation each round.
        name: optional label used in reports.
        engine: execution backend for every replica — any name
            registered in :data:`repro.engines.ENGINES` or ``"auto"``
            (default).  Serialized (and hashed into suite cache keys)
            only when it differs from ``"auto"``, so existing cached
            results and goldens stay valid.
    """

    graph: GraphSpec | PortGraph
    algorithm: AlgorithmSpec
    loads: LoadSpec
    stop: StopRule
    replicas: int = 1
    probes: tuple = ()
    dynamics: DynamicsSpec | None = None
    faults: FaultSpec | None = None
    topology: TopologySpec | None = None
    record_history: bool = True
    validate_every_round: bool = True
    name: str = ""
    engine: str = "auto"

    def __post_init__(self) -> None:
        _check_type(self, "replicas", int)
        _check_type(self, "record_history", bool)
        _check_type(self, "validate_every_round", bool)
        _check_type(self, "name", str)
        _check_type(self, "engine", str)
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.engine != "auto" and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; registered engines: "
                f"{', '.join(engine_names())} (or 'auto')"
            )
        if self.faults is not None and self.topology is not None:
            raise ValueError(
                "faults and topology cannot be combined in one "
                "scenario (fault schedules precompute canonical port "
                "maps that topology churn invalidates)"
            )
        for key, spec_type, noun, _ in SCHEDULE_AXES:
            value = getattr(self, key)
            if (
                value is not None
                and not isinstance(value, spec_type)
                and self.replicas > 1
            ):
                raise ValueError(
                    f"multi-replica scenarios need fresh {noun}s per "
                    f"replica; pass a {spec_type.__name__} instead of "
                    f"an instance ({type(value).__name__})"
                )
        if self.replicas > 1:
            # Anything that is not a spec or a factory is a ready
            # instance (Probe or duck-typed observer) whose
            # state would be shared — and corrupted — across replicas.
            shared = [
                spec
                for spec in self.probes
                if not isinstance(spec, ProbeSpec) and not callable(spec)
            ]
            if shared:
                raise ValueError(
                    "multi-replica scenarios need fresh probes per "
                    "replica; pass ProbeSpecs or factories instead of "
                    f"instances ({type(shared[0]).__name__})"
                )

    def build_probe_set(self) -> tuple[Probe, ...]:
        """One replica's freshly built probe instances."""
        return build_probes(self.probes)

    # -- construction helpers ------------------------------------------

    def label(self) -> str:
        graph = (
            self.graph.name
            if isinstance(self.graph, PortGraph)
            else self.graph.family
        )
        label = f"{self.algorithm.name} @ {graph} / {self.loads.name}"
        for key, _, _, mark in SCHEDULE_AXES:
            value = getattr(self, key)
            if value is not None:
                label += f" {mark} {value.name}"
        return label

    def build_graph(self) -> PortGraph:
        if isinstance(self.graph, PortGraph):
            return self.graph
        return self.graph.build()

    def build_loads(
        self, graph: BalancingGraph, replica: int = 0
    ) -> np.ndarray:
        return self.loads.build(graph.num_nodes, replica)

    def build_balancer(self, replica: int = 0) -> Balancer:
        return self.algorithm.build(replica)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        if isinstance(self.graph, PortGraph):
            raise ValueError(
                "scenarios holding a prebuilt graph object cannot be "
                "serialized; use a GraphSpec"
            )
        not_specs = [
            spec
            for spec in self.probes
            if not isinstance(spec, ProbeSpec)
        ]
        if not_specs:
            raise ValueError(
                "probe factories/instances cannot be serialized; use "
                "registered ProbeSpecs (repro.core.probes.register_probe)"
            )
        data = {
            "graph": self.graph.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "loads": self.loads.to_dict(),
            "stop": self.stop.to_dict(),
            "replicas": self.replicas,
            "record_history": self.record_history,
            "validate_every_round": self.validate_every_round,
            "name": self.name,
        }
        if self.engine != "auto":
            data["engine"] = self.engine
        if self.probes:
            data["probes"] = [spec.to_dict() for spec in self.probes]
        for key, spec_type, noun, _ in SCHEDULE_AXES:
            value = getattr(self, key)
            if value is None:
                continue
            if not isinstance(value, spec_type):
                raise ValueError(
                    f"{noun} instances cannot be serialized; use a "
                    f"registered {spec_type.__name__}"
                )
            data[key] = value.to_dict()
        return data

    def canonical_json(self) -> str:
        """Canonical byte-stable JSON of this scenario (see
        :func:`canonical_json`).  Raises for scenarios that cannot be
        serialized (prebuilt graphs, probe factories or
        instances) — exactly the scenarios that cannot be cached or
        shipped to worker processes."""
        return canonical_json(self.to_dict())

    def content_hash(self) -> str:
        """SHA-256 of the canonical scenario JSON."""
        return content_hash(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        required = ("graph", "algorithm", "loads", "stop")
        spec_fields(data, "scenario", required, _field_names(cls))
        probes = data.get("probes", [])
        if not isinstance(probes, list):
            raise ValueError(
                f"scenario probes must be a JSON list, got {probes!r}"
            )
        kwargs = dict(
            data,
            graph=GraphSpec.from_dict(data["graph"]),
            algorithm=AlgorithmSpec.from_dict(data["algorithm"]),
            loads=LoadSpec.from_dict(data["loads"]),
            stop=StopRule.from_dict(data["stop"]),
            probes=tuple(ProbeSpec.from_dict(entry) for entry in probes),
        )
        for key, spec_type, _, _ in SCHEDULE_AXES:
            if data.get(key) is not None:
                kwargs[key] = spec_type.from_dict(data[key])
        return cls(**kwargs)

    # -- execution ------------------------------------------------------

    def run(
        self,
        graph: BalancingGraph | None = None,
        replica_range: range | None = None,
    ) -> ScenarioResult:
        """Execute every replica as one :class:`BatchRunner` stack.

        Args:
            graph: optional prebuilt graph (cache for sweeps that reuse
                one graph across many scenarios).
            replica_range: execute only this absolute replica range
                (default: all of ``range(self.replicas)``).  Replica
                ``r`` always runs with seed offset ``r`` regardless of
                which range carries it, so a scenario split across
                shards produces bit-identical per-replica results —
                the contract the parallel suite executor relies on.
        """
        if replica_range is None:
            replica_range = range(self.replicas)
        elif (
            replica_range.step != 1
            or replica_range.start < 0
            or replica_range.stop > self.replicas
            or len(replica_range) == 0
        ):
            raise ValueError(
                f"replica_range {replica_range!r} must be a non-empty "
                f"unit-step range within [0, {self.replicas})"
            )
        graph = graph if graph is not None else self.build_graph()
        probe_sets = [self.build_probe_set() for _ in replica_range]
        first = self.build_balancer(replica_range.start)
        if (
            first.supports_batched_sends
            and first.properties.stateless
            and first.properties.deterministic
            # Sends consumers read one replica's round, and under
            # topology churn every replica's graph diverges: both need
            # one balancer per replica.
            and all(loads_only(probes) for probes in probe_sets)
            and self.topology is None
        ):
            balancers: list[Balancer] = [first]
        else:
            balancers = [first] + [
                self.build_balancer(replica)
                for replica in replica_range[1:]
            ]
        initial = np.stack(
            [self.build_loads(graph, replica) for replica in replica_range]
        )
        # Schedules are built here with *absolute* replica indices so a
        # replica sub-range sees the same seed offsets as a full run.
        dynamics, faults, topology = (
            [value.build(replica) for replica in replica_range]
            if isinstance(value, RegistrySpec)
            else value
            for value in (self.dynamics, self.faults, self.topology)
        )
        runner = BatchRunner(
            graph,
            balancers,
            initial,
            probes=probe_sets,
            dynamics=dynamics,
            faults=faults,
            topology=topology,
            record_history=self.record_history,
            validate_every_round=self.validate_every_round,
            engine=self.engine,
        )
        stop = self.stop
        if stop.kind == "rounds":
            batch = runner.run(stop.rounds)
        else:
            predicates = [stop.predicate() for _ in replica_range]
            batch = runner.run_until(
                predicates,
                stop.max_rounds,
                check_every=stop.check_every,
            )
        results = batch.as_simulation_results()
        for replica, result in zip(replica_range, results):
            if result.record is not None:
                result.record.replica = replica
        return ScenarioResult(
            scenario=self,
            graph=graph,
            results=results,
            probes=runner.probe_sets,
        )


def _as_tuple(value, kinds: tuple[type, ...]) -> tuple:
    if isinstance(value, kinds):
        return (value,)
    return tuple(value)


@dataclass
class ScenarioSuite:
    """An ordered collection of scenarios (usually a cartesian sweep)."""

    scenarios: tuple[Scenario, ...]
    name: str = ""

    def __post_init__(self) -> None:
        self.scenarios = tuple(self.scenarios)
        _check_type(self, "name", str)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    @classmethod
    def cartesian(
        cls,
        *,
        graphs: GraphSpec | PortGraph | Sequence,
        algorithms: AlgorithmSpec | Sequence[AlgorithmSpec],
        loads: LoadSpec | Sequence[LoadSpec],
        stop: StopRule | Sequence[StopRule],
        replicas: int = 1,
        probes: tuple = (),
        dynamics: DynamicsSpec | None = None,
        faults: FaultSpec | None = None,
        topology: TopologySpec | None = None,
        record_history: bool = True,
        validate_every_round: bool = True,
        name: str = "",
        engine: str = "auto",
    ) -> "ScenarioSuite":
        """The cartesian product graphs × algorithms × loads × stops.

        Axis order is ``graphs`` (slowest) → ``algorithms`` → ``loads``
        → ``stop`` (fastest), so sweeps group naturally by graph.
        """
        scenarios = tuple(
            Scenario(
                graph=graph,
                algorithm=algorithm,
                loads=load,
                stop=stop_rule,
                replicas=replicas,
                probes=probes,
                dynamics=dynamics,
                faults=faults,
                topology=topology,
                record_history=record_history,
                validate_every_round=validate_every_round,
                engine=engine,
            )
            for graph, algorithm, load, stop_rule in product(
                _as_tuple(graphs, (GraphSpec, PortGraph)),
                _as_tuple(algorithms, (AlgorithmSpec,)),
                _as_tuple(loads, (LoadSpec,)),
                _as_tuple(stop, (StopRule,)),
            )
        )
        return cls(scenarios, name=name)

    def canonical_json(self) -> str:
        """Canonical byte-stable JSON of the whole suite."""
        return canonical_json(self.to_dict())

    def content_hash(self) -> str:
        """SHA-256 of the canonical suite JSON."""
        return content_hash(self.to_dict())

    def run(
        self, graph: BalancingGraph | None = None
    ) -> list[ScenarioResult]:
        """Run every scenario through :class:`~repro.exec.SuiteExecutor`
        under the ambient :func:`repro.exec.configure` settings (workers,
        cache, replica splitting, retry, timeout, failure mode), so the
        drivers inherit them without any plumbing.  For an explicit run
        with a report, call :func:`repro.exec.run_suite`.

        ``graph`` is a prebuilt-graph override, only legal when every
        scenario shares one graph spec.  Every shard runs on it, in
        process or in a worker, and the result cache is bypassed, since
        a key attests only the spec.

        Returns the outcomes in suite order.  A failed shard raises
        :class:`~repro.exec.SuiteExecutionError` once every shard has
        settled; under ``configure(on_shard_failure="partial")`` the
        completed outcomes come back as a
        :class:`~repro.exec.PartialSuiteResult` carrying ``.failures``.
        """
        from repro.exec.context import current
        from repro.exec.runner import PartialSuiteResult, SuiteExecutor

        config = current()
        # ExecConfig's fields are exactly SuiteExecutor's arguments.
        report = SuiteExecutor(**vars(config)).run(self, graph=graph)
        if config.on_shard_failure == "partial":
            return PartialSuiteResult(report.outcomes, report)
        return report.outcomes

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSuite":
        spec_fields(data, "suite", (), ("name", "scenarios"))
        scenarios = data.get("scenarios", [])
        if not isinstance(scenarios, list):
            raise ValueError(
                f"suite scenarios must be a JSON list, got {scenarios!r}"
            )
        return cls(
            tuple(Scenario.from_dict(entry) for entry in scenarios),
            name=data.get("name", ""),
        )
