"""Execution-backend plugin API — how a round's arrays actually move.

The round executor (:class:`~repro.scenarios.batch.BatchRunner`, and
its 1-replica view :class:`~repro.core.engine.Simulator`) owns
*orchestration*: round
ordering, validation, fault/churn/injection bookkeeping, conservation
checks, probe feeding.  What they delegate to a backend is the pure
array computation of one round:

* **dense protocol** — the balancer produced a full ``(n, d+)`` (or
  ``(batch, n, d+)``) sends matrix; the backend computes the incoming
  gather through the graph's reverse-port map.
* **structured protocol** — the balancer produced a compact
  :class:`~repro.core.structured.StructuredRound`; the backend computes
  the new load vector matrix-free.

Backends register under a name in :data:`ENGINES` (the same
:class:`~repro.registry.Registry` mechanism as balancers, probes,
injectors and topology schedules), so ``engine="structured"`` in a
Scenario, on the CLI, or in a ``Simulator``/``BatchRunner`` constructor
resolves through one table — and new backends (a GPU kernel, say) plug
in without touching the orchestrators.

Every backend must be **bit-identical** to the builtin dense engine:
all protocol state is integer, so any alternative kernel is exact, not
approximate.  The cross-backend property suite enforces this for every
registered name.

A backend instance is private to one executor and may cache per-graph
precomputes (gather indices) keyed by the graph object itself (a
``weakref.WeakKeyDictionary``, never ``id(graph)``, which a new graph
can inherit once the old one is freed);
:meth:`EngineBackend.refresh_topology` is called after every churn
event so those caches are repaired or dropped in step with the
balancer's own incremental refresh.
"""

from __future__ import annotations

import numpy as np

from repro.registry import Registry

DENSE = "dense"
STRUCTURED = "structured"

ENGINES = Registry("engine")


def register_engine(cls):
    """Class decorator registering an :class:`EngineBackend` by name."""
    ENGINES.add(cls.name, cls)
    return cls


class EngineBackend:
    """One way of executing rounds; see the module docstring.

    Class attributes:
        name: registry name (``engine=`` value selecting this backend).
        protocol: :data:`DENSE` (consumes sends matrices) or
            :data:`STRUCTURED` (consumes compact rounds).  Selection
            constraints follow from the protocol alone: structured
            backends need ``supports_structured_sends`` balancers and
            refuse dense-demanding observers, dense backends work with
            everything.
    """

    name: str = ""
    protocol: str = DENSE

    # -- dense protocol -------------------------------------------------

    def incoming(self, graph, sends: np.ndarray) -> np.ndarray:
        """Incoming tokens per node from a sends matrix.

        ``sends`` is ``(n, d+)`` for a single run or ``(batch, n, d+)``
        for stacked replicas; the result drops the port axis.
        """
        raise NotImplementedError(
            f"engine {self.name!r} does not implement the dense protocol"
        )

    # -- structured protocol --------------------------------------------

    def apply(self, graph, compact, loads: np.ndarray) -> np.ndarray:
        """New load vector(s) from a compact round description."""
        raise NotImplementedError(
            f"engine {self.name!r} does not implement the structured "
            "protocol"
        )

    # -- topology churn -------------------------------------------------

    def refresh_topology(self, graph, dirty=None) -> None:
        """Repair or drop per-graph caches after in-place churn.

        ``dirty`` is the mutated node set (``None`` means unknown —
        rebuild everything), mirroring
        :meth:`~repro.core.balancer.Balancer.refresh_topology`.
        """


def create_engine(name: str) -> EngineBackend:
    """Fresh backend instance for registry ``name`` (raises on unknown)."""
    return ENGINES.create(name)


def engine_names() -> list[str]:
    """All registered backend names, sorted."""
    return ENGINES.names()
