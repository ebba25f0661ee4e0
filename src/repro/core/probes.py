"""Capability-typed probes: observers that scale *with* the engine.

A :class:`Probe` *declares what it consumes* and the engine feeds it
the cheapest representation it accepts:

* ``needs = "loads"`` — the probe only reads load vectors.  It runs on
  the structured engine and inside a stacked ``(replicas, n)`` batch;
  the engine calls :meth:`Probe.observe_loads` with the post-round
  vector.
* ``needs = "sends"`` — the probe consumes per-port sends.  On the
  dense engine it receives real ``(n, d+)`` matrices via
  :meth:`Probe.observe`; if it also sets ``accepts_structured`` it can
  ride the structured engine and receive the compact
  :class:`~repro.core.structured.StructuredRound` via
  :meth:`Probe.observe_structured` instead (often with an O(n·d)
  fast path of its own).

A probe that needs sends and does *not* accept structured rounds is
"dense-requiring": ``engine="auto"`` falls back to the dense engine for
it.

Probes register by name in :data:`PROBES` (``@register_probe``) so
scenario JSON and the CLI can request them declaratively via
:class:`ProbeSpec` — the observability counterpart of
:class:`~repro.scenarios.spec.AlgorithmSpec`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.registry import Registry
from repro.specs import RegistrySpec

#: Capability constants — what a probe consumes each round.
LOADS = "loads"
SENDS = "sends"

CAPABILITIES = (LOADS, SENDS)

#: Named probes available to scenario specs and the CLI.
PROBES: Registry = Registry("probe")

#: Decorator registering a probe factory: ``@register_probe(name)``.
register_probe = PROBES.register


class Probe:
    """Base class for capability-typed simulation observers.

    Subclasses declare :attr:`needs` (and, for sends consumers,
    :attr:`accepts_structured`), then implement the matching observe
    hook.  Probes deliberately cannot influence the simulation.

    Results flow into the columnar :class:`~repro.core.trace.Trace`
    model through two optional hooks: :meth:`columns` (per-round
    series) and :meth:`summary` (end-of-run scalars).
    """

    #: What this probe consumes: ``"loads"`` or ``"sends"``.
    needs: str = LOADS

    #: Sends consumers only: True if :meth:`observe_structured` is
    #: implemented, letting the probe ride the structured engine.
    accepts_structured: bool = False

    def start(self, graph, balancer, loads) -> None:
        """Called once before the first round with the initial vector."""

    def observe_loads(self, t: int, loads: np.ndarray) -> None:
        """Loads-capability hook: post-round vector of round ``t``."""

    def observe(
        self,
        t: int,
        loads_before: np.ndarray,
        sends: np.ndarray,
        loads_after: np.ndarray,
    ) -> None:
        """Dense hook: full round data.  Defaults to the loads hook, so
        loads-only probes work unchanged on the dense engine."""
        self.observe_loads(t, loads_after)

    def observe_structured(
        self,
        t: int,
        loads_before: np.ndarray,
        compact,
        loads_after: np.ndarray,
    ) -> None:
        """Structured hook: compact round description.

        Only called on probes with ``accepts_structured = True`` (or on
        loads-only probes, for which the default forwards to
        :meth:`observe_loads`); sends consumers that opt in override
        this with their own compact-form accounting.
        """
        self.observe_loads(t, loads_after)

    # -- results --------------------------------------------------------

    def columns(self) -> dict[str, tuple[Sequence[int], Sequence]]:
        """Per-round trace columns: ``name -> (rounds, values)``."""
        return {}

    def summary(self) -> dict:
        """End-of-run scalar facts merged into the run's summary."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(needs={self.needs!r})"


class MonitorProbe(Probe):
    """Adapter presenting a duck-typed observer as a probe.

    Anything with ``start(graph, balancer, loads)`` and
    ``observe(t, loads_before, sends, loads_after)`` methods that does
    not subclass :class:`Probe` wraps into a dense-requiring probe.
    """

    needs = SENDS

    def __init__(self, monitor) -> None:
        self.monitor = monitor

    def start(self, graph, balancer, loads) -> None:
        self.monitor.start(graph, balancer, loads)

    def observe(self, t, loads_before, sends, loads_after) -> None:
        self.monitor.observe(t, loads_before, sends, loads_after)

    def summary(self) -> dict:
        summary = getattr(self.monitor, "summary", None)
        return summary() if callable(summary) else {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonitorProbe({self.monitor!r})"


def as_probe(observer) -> Probe:
    """Coerce ``observer`` into a :class:`Probe`.

    Probe instances pass through; duck-typed observers wrap in
    :class:`MonitorProbe`.
    """
    if isinstance(observer, Probe):
        return observer
    if isinstance(observer, ProbeSpec):
        return observer.build()
    if hasattr(observer, "start") and hasattr(observer, "observe"):
        return MonitorProbe(observer)
    raise TypeError(
        f"cannot interpret {observer!r} as a probe: expected a Probe, "
        "a ProbeSpec, or an object with start/observe methods"
    )


def dense_required(probes: Iterable[Probe]) -> bool:
    """True if some probe needs dense sends matrices.

    Such a probe pins ``engine="auto"`` to the dense engine; everything
    else rides the structured fast path.
    """
    return any(
        probe.needs == SENDS and not probe.accepts_structured
        for probe in probes
    )


def loads_only(probes: Iterable[Probe]) -> bool:
    """True if every probe consumes plain load vectors.

    Loads-only probe sets are the ones the vectorized batch runner can
    carry without leaving its stacked ``(replicas, n)`` execution.
    """
    return all(probe.needs == LOADS for probe in probes)


class ProbeSpec(RegistrySpec):
    """A registered probe by name plus construction parameters.

    The declarative counterpart of instantiating a probe class: round-
    trips through JSON (scenario files, ``repro-lb simulate --probe``)
    and builds fresh instances per replica, so stateful probes never
    leak state across runs.
    """

    registry = PROBES
    instance_type = object  # build() adapts duck-typed observers
    kind = "probe"

    def build(self) -> Probe:
        return as_probe(self._create(self.registry.create))


def build_probes(
    specs: Iterable,
) -> tuple[Probe, ...]:
    """Build a fresh probe set from specs/factories/instances.

    Accepts a mix of :class:`ProbeSpec`, probe classes / zero-argument
    factories, and ready probe instances (passed through
    :func:`as_probe`).  Used by the scenario layer to instantiate one
    independent set per replica.
    """
    return tuple(
        as_probe(
            spec() if callable(spec) and not isinstance(spec, Probe) else spec
        )
        for spec in specs
    )
