"""Per-round topology schedules — balancing while the graph churns.

The paper analyzes deterministic balancing on a *static* graph; the
dynamic-network line of work (Gilbert–Meir–Paz, dynamic averaging on
arbitrary graphs) asks what survives when the fabric itself is rewired
under the process.  A :class:`TopologySchedule` is that adversary: at
the very beginning of round ``t`` — before fault epochs, before
workload injection, before any balancing — it declares how the graph
changes this round as a sparse :class:`TopologyEvents` batch::

    x_t  →  topology events  →  fault epochs  →  injection
         →  balancing over the NEW topology  →  x_{t+1}

Both engines honor one event batch identically: they mutate their
:class:`~repro.graphs.mutable.MutableBalancingGraph` in place (O(1)
per edge, incremental reverse-port repair) and hand the dirty node set
to ``Balancer.refresh_topology`` so per-round cost scales with the
number of mutated edges, not with ``n``.  The naive reference
simulator in ``tests/differential`` applies the same events to plain
python lists and rebuilds its graph from scratch every round; the
differential suite pins all paths bit-identical.

Within a round, events apply in a fixed order — **leaves, joins,
edge drops, edge adds** — and a leaving node's load is handed to its
live real neighbors (even split, remainder in port order; if none
remain the load stays parked on the inactive node, whose ports all
become self-bouncing padding).  Topology changes therefore conserve
tokens exactly.

Schedules register by name in :data:`TOPOLOGIES`
(``@register_topology``) so scenario JSON and the CLI can request them
declaratively via :class:`~repro.topology.spec.TopologySpec`.  Seeded
schedules take a ``seed`` parameter which batch replicas offset
(``seed + r``) exactly like load specs, injectors, and fault
schedules, so replica ``r`` sees the same churn history whether it
runs alone, looped, or inside a batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faults.schedules import _BernoulliGapStream
from repro.graphs.mutable import MutableBalancingGraph
from repro.registry import Registry

__all__ = [
    "TOPOLOGIES",
    "register_topology",
    "InvalidTopology",
    "TopologyEvents",
    "TopologySchedule",
    "EdgeChurn",
    "NodeJoinLeave",
    "ExpanderRewire",
    "ScriptedTopology",
    "validate_topology_events",
    "apply_topology_events",
]

#: Named topology schedules available to scenario specs and the CLI.
TOPOLOGIES: Registry = Registry("topology")

#: Decorator registering a topology schedule: ``@register_topology(name)``.
register_topology = TOPOLOGIES.register


class InvalidTopology(ValueError):
    """A topology schedule was mis-parameterized or emitted bad events."""


_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
_EMPTY_NODES = np.empty(0, dtype=np.int64)


@dataclass
class TopologyEvents:
    """One round's topology changes, in sparse form.

    ``edge_drops`` / ``edge_adds`` are ``(k, 2)`` integer arrays of
    undirected ``(u, v)`` endpoint pairs; ``leaves`` is an array of
    departing node indices; ``joins`` is a tuple of ``(node,
    neighbors)`` pairs wiring each (re)joining node, in order.  The
    engines apply leaves, then joins, then drops, then adds —
    sequentially within each group — so any two faithful appliers
    produce the same port layout.

    ``trusted`` marks batches whose structural invariants hold by
    construction (the built-in schedules emit only edges/nodes they
    track as present/absent); engines then skip the per-round
    :func:`validate_topology_events` re-check.  The applier itself
    still hard-fails on semantically impossible operations.
    """

    edge_drops: np.ndarray = field(
        default_factory=lambda: _EMPTY_PAIRS
    )
    edge_adds: np.ndarray = field(default_factory=lambda: _EMPTY_PAIRS)
    leaves: np.ndarray = field(default_factory=lambda: _EMPTY_NODES)
    joins: tuple = ()
    trusted: bool = False

    def is_empty(self) -> bool:
        return (
            self.edge_drops.size == 0
            and self.edge_adds.size == 0
            and self.leaves.size == 0
            and not self.joins
        )


class TopologySchedule:
    """Base class for per-round topology-event generators.

    Lifecycle mirrors :class:`~repro.faults.schedules.FaultSchedule`:
    the engine calls :meth:`start` once with the *initial* graph and
    loads (snapshotting the canonical edge universe and resetting RNG
    streams so one instance can be reused), then :meth:`round_events`
    exactly once per round, before everything else in that round.

    Determinism contract: schedules track their own view of what they
    changed (which edges are down, which nodes are away), so the same
    construction parameters and the same sequence of ``round_events``
    calls produce the identical event history regardless of which
    engine applies it — this is what makes the differential harness's
    bit-identity claims meaningful under churn.
    """

    #: Human-readable name used in reports.
    name: str = "topology"

    def start(self, graph, loads: np.ndarray) -> None:
        """Snapshot the initial topology and reset per-run state."""
        self._snapshot(graph)

    def round_events(self, t: int, loads: np.ndarray):
        """Events for round ``t`` (or ``None`` for a quiet round)."""
        raise NotImplementedError

    def summary(self) -> dict:
        """End-of-run scalar facts (merged into run summaries)."""
        return {}

    # -- shared initial-graph snapshot ----------------------------------

    def _snapshot(self, graph) -> None:
        """Record the canonical edges and neighbor lists at round 1."""
        if graph is None:
            raise InvalidTopology(
                f"topology schedule {self.name!r} needs a graph"
            )
        adjacency = graph.adjacency
        n = graph.num_nodes
        real = graph.real_port_mask()
        canonical = real & (np.arange(n)[:, None] < adjacency)
        us, ps = np.nonzero(canonical)
        self._edges = np.stack(
            [us.astype(np.int64), adjacency[us, ps]], axis=1
        )
        self._num_nodes = n
        self._neighbor_lists = [
            [int(v) for v in adjacency[u][real[u]]] for u in range(n)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


@register_topology("edge_churn")
class EdgeChurn(TopologySchedule):
    """Edges of the initial graph fail and rejoin, round by round.

    ``mode="random"``: every undirected edge currently up is
    independently severed with probability ``rate`` each round (one
    seeded coin per edge); a severed edge rejoins after ``downtime``
    rounds.  ``mode="cut"``: the adversary severs every edge crossing
    the node bisection ``[0, n/2) | [n/2, n)`` at the start of each
    ``period``, restoring them ``down`` rounds later — the
    partition-and-heal stress pattern.  ``until`` stops *new* failures
    after round ``until`` (already-severed edges still rejoin on
    schedule), which is how the E18 driver measures recovery time.

    Only edges of the initial topology ever exist, so re-adds can
    never exceed any node's port capacity.
    """

    name = "edge_churn"

    def __init__(
        self,
        rate: float = 0.05,
        downtime: int = 5,
        mode: str = "random",
        period: int = 8,
        down: int = 4,
        until: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidTopology(f"rate must lie in [0, 1], got {rate}")
        if downtime < 1:
            raise InvalidTopology(
                f"downtime must be >= 1, got {downtime}"
            )
        if mode not in ("random", "cut"):
            raise InvalidTopology(
                f"unknown mode {mode!r}; known: random, cut"
            )
        if period < 1:
            raise InvalidTopology(f"period must be >= 1, got {period}")
        if not 0 <= down <= period:
            raise InvalidTopology(
                f"down must lie in [0, period], got {down}"
            )
        if until is not None and until < 0:
            raise InvalidTopology(f"until must be >= 0, got {until}")
        self.rate = float(rate)
        self.downtime = int(downtime)
        self.mode = mode
        self.period = int(period)
        self.down = int(down)
        self.until = until
        self.seed = int(seed)
        self._severed = 0
        self._churn_rounds = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._snapshot(graph)
        self._rng = np.random.default_rng(self.seed)
        num_edges = self._edges.shape[0]
        self._coins = _BernoulliGapStream(
            self._rng, self.rate, num_edges
        )
        # _up_at[e]: first round edge e is (back) up; 0 == never down.
        self._up_at = np.zeros(num_edges, dtype=np.int64)
        self._severed = 0
        self._churn_rounds = 0
        if self.mode == "cut":
            half = self._num_nodes // 2
            self._cut_edges = np.flatnonzero(
                (self._edges[:, 0] < half) != (self._edges[:, 1] < half)
            )

    def round_events(self, t: int, loads: np.ndarray):
        rejoining = np.flatnonzero(self._up_at == t)
        active = self.until is None or t <= self.until
        if not active:
            severed = _EMPTY_NODES
        elif self.mode == "cut":
            if (t - 1) % self.period == 0 and self.down > 0:
                up = self._up_at[self._cut_edges] < t
                severed = self._cut_edges[up]
                self._up_at[severed] = t + self.down
            else:
                severed = _EMPTY_NODES
        else:
            hits = self._coins.take()
            # Edges still down — or rejoining this very round — are
            # not up to fail; skipping them keeps the trial count per
            # round fixed (determinism) without double-dropping.
            severed = hits[self._up_at[hits] < t]
            self._up_at[severed] = t + self.downtime
        if severed.size == 0 and rejoining.size == 0:
            return None
        self._severed += int(severed.size)
        self._churn_rounds += 1
        return TopologyEvents(
            edge_drops=self._edges[severed],
            edge_adds=self._edges[rejoining],
            trusted=True,
        )

    def summary(self) -> dict:
        return {
            "edges_severed": self._severed,
            "churn_rounds": self._churn_rounds,
        }


@register_topology("node_join_leave")
class NodeJoinLeave(TopologySchedule):
    """Nodes leave the network and rejoin, wired back to survivors.

    Every round ``t <= until``, each present node independently leaves
    with probability ``rate`` (one seeded coin per node); its load is
    handed to its live neighbors by the engine (even split, remainder
    in port order — or parked on the node if no neighbor survives).
    After ``rejoin_after`` rounds the node rejoins, reconnecting to
    those of its *original* neighbors that are currently present — so
    the fabric self-heals toward the initial topology as churn stops.
    Only original edges ever exist, so rejoining never exceeds any
    node's port capacity.
    """

    name = "node_join_leave"

    def __init__(
        self,
        rate: float = 0.02,
        rejoin_after: int = 5,
        until: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidTopology(f"rate must lie in [0, 1], got {rate}")
        if rejoin_after < 1:
            raise InvalidTopology(
                f"rejoin_after must be >= 1, got {rejoin_after}"
            )
        if until is not None and until < 0:
            raise InvalidTopology(f"until must be >= 0, got {until}")
        self.rate = float(rate)
        self.rejoin_after = int(rejoin_after)
        self.until = until
        self.seed = int(seed)
        self._departures = 0
        self._rejoins = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._snapshot(graph)
        self._rng = np.random.default_rng(self.seed)
        n = self._num_nodes
        self._coins = _BernoulliGapStream(self._rng, self.rate, n)
        # _back_at[u]: first round node u is (back) present; 0 == never away.
        self._back_at = np.zeros(n, dtype=np.int64)
        self._present = np.ones(n, dtype=bool)
        self._departures = 0
        self._rejoins = 0

    def round_events(self, t: int, loads: np.ndarray):
        n = self._num_nodes
        leaving = _EMPTY_NODES
        if (self.until is None or t <= self.until) and self.rate > 0.0:
            hits = self._coins.take()
            # Nodes already away — or rejoining this very round — stay
            # out of this round's departure pool.
            leaving = hits[self._back_at[hits] < t]
        if leaving.size:
            self._back_at[leaving] = t + self.rejoin_after
            self._present[leaving] = False
            self._departures += int(leaving.size)
        rejoining = np.flatnonzero(self._back_at == t)
        joins = []
        for u in rejoining:
            u = int(u)
            neighbors = tuple(
                v
                for v in self._neighbor_lists[u]
                if self._present[v]
            )
            self._present[u] = True
            joins.append((u, neighbors))
        self._rejoins += len(joins)
        if leaving.size == 0 and not joins:
            return None
        return TopologyEvents(
            leaves=leaving, joins=tuple(joins), trusted=True
        )

    def summary(self) -> dict:
        return {
            "node_departures": self._departures,
            "node_rejoins": self._rejoins,
        }


@register_topology("expander_rewire")
class ExpanderRewire(TopologySchedule):
    """Degree-preserving double edge swaps, ``swaps`` attempts a round.

    Each attempt draws two distinct current edges ``(u, v)``, ``(x,
    y)`` and an orientation coin, and — when all four endpoints are
    distinct and neither replacement edge exists — rewires them to
    ``(u, x), (v, y)`` (or ``(u, y), (v, x)``).  Every node keeps its
    exact degree, so port capacity is untouched while the global
    wiring random-walks through the configuration model: the fabric
    the process balanced a moment ago no longer exists, but its degree
    sequence does.  Failed attempts consume their draws (fixed RNG
    consumption per round keeps replicas deterministic).  ``until``
    freezes the wiring after round ``until``.
    """

    name = "expander_rewire"

    def __init__(
        self,
        swaps: int = 1,
        until: int | None = None,
        seed: int = 0,
    ) -> None:
        if swaps < 0:
            raise InvalidTopology(f"swaps must be >= 0, got {swaps}")
        if until is not None and until < 0:
            raise InvalidTopology(f"until must be >= 0, got {until}")
        self.swaps = int(swaps)
        self.until = until
        self.seed = int(seed)
        self._applied = 0
        self._attempted = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._snapshot(graph)
        self._rng = np.random.default_rng(self.seed)
        self._edge_list = [
            (int(u), int(v)) for u, v in self._edges
        ]
        self._edge_set = set(self._edge_list)
        self._applied = 0
        self._attempted = 0

    def round_events(self, t: int, loads: np.ndarray):
        if self.until is not None and t > self.until:
            return None
        if self.swaps == 0 or len(self._edge_list) < 2:
            return None
        # Pending drops/adds cancel instead of stacking: if a later
        # swap re-adds an edge dropped earlier this round (or drops an
        # edge added earlier), the pair nets out, so the emitted batch
        # is always applicable as drops-then-adds.  Dicts keep
        # insertion order for deterministic event arrays.
        pending_drops: dict[tuple, None] = {}
        pending_adds: dict[tuple, None] = {}
        # One batched draw per round (not two calls per swap): fixed
        # RNG consumption per round is what replica determinism needs,
        # and the batch keeps the per-round overhead of an
        # always-active schedule down at benchmark sizes.
        draws = self._rng.integers(
            0, len(self._edge_list), size=(self.swaps, 2)
        ).tolist()
        flips = self._rng.integers(0, 2, size=self.swaps).tolist()
        for (i, j), flip in zip(draws, flips):
            self._attempted += 1
            if i == j:
                continue
            u, v = self._edge_list[i]
            x, y = self._edge_list[j]
            if flip:
                x, y = y, x
            if len({u, v, x, y}) < 4:
                continue
            first = (min(u, x), max(u, x))
            second = (min(v, y), max(v, y))
            if first in self._edge_set or second in self._edge_set:
                continue
            old_i = self._edge_list[i]
            old_j = self._edge_list[j]
            self._edge_set.discard(old_i)
            self._edge_set.discard(old_j)
            self._edge_set.add(first)
            self._edge_set.add(second)
            self._edge_list[i] = first
            self._edge_list[j] = second
            for edge in (old_i, old_j):
                if edge in pending_adds:
                    del pending_adds[edge]
                else:
                    pending_drops[edge] = None
            for edge in (first, second):
                if edge in pending_drops:
                    del pending_drops[edge]
                else:
                    pending_adds[edge] = None
            self._applied += 1
        if not pending_drops and not pending_adds:
            return None
        return TopologyEvents(
            edge_drops=(
                np.array(list(pending_drops), dtype=np.int64)
                if pending_drops
                else _EMPTY_PAIRS
            ),
            edge_adds=(
                np.array(list(pending_adds), dtype=np.int64)
                if pending_adds
                else _EMPTY_PAIRS
            ),
            trusted=True,
        )

    def summary(self) -> dict:
        return {
            "swaps_applied": self._applied,
            "swaps_attempted": self._attempted,
        }


@register_topology("scripted")
class ScriptedTopology(TopologySchedule):
    """An explicit event list — the fully reproducible schedule.

    ``events`` entries are, per round::

        ["drop",  round, u, v]
        ["add",   round, u, v]
        ["leave", round, u]
        ["join",  round, u, [neighbors...]]

    Events of one round apply in the engine's fixed order (leaves,
    joins, drops, adds), preserving list order within each group.
    Scripted streams round-trip through scenario JSON and are the
    natural target for hypothesis-generated churn in the differential
    harness.  Semantically impossible operations (dropping an absent
    edge, overflowing a port capacity) are hard errors at apply time.
    """

    name = "scripted"

    def __init__(self, events: list) -> None:
        parsed = []
        for event in events:
            if not event or event[0] not in (
                "drop",
                "add",
                "leave",
                "join",
            ):
                raise InvalidTopology(
                    f"scripted topology events start with one of "
                    f"drop/add/leave/join, got {event!r}"
                )
            op = event[0]
            expected = 3 if op == "leave" else 4
            if len(event) != expected:
                raise InvalidTopology(
                    f"malformed scripted {op} event: {event!r}"
                )
            t = int(event[1])
            if t < 1:
                raise InvalidTopology(
                    f"scripted event round must be >= 1, got {t}"
                )
            if op == "leave":
                parsed.append((op, t, int(event[2])))
            elif op == "join":
                parsed.append(
                    (op, t, int(event[2]),
                     tuple(int(v) for v in event[3]))
                )
            else:
                parsed.append(
                    (op, t, int(event[2]), int(event[3]))
                )
        self.events = parsed
        self._applied = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._snapshot(graph)
        grouped: dict[int, list[tuple]] = {}
        for event in self.events:
            grouped.setdefault(event[1], []).append(event)
        # The script is fixed, so each round's batch is built once here
        # rather than re-assembled from the event tuples every round.
        self._by_round = {
            t: (self._batch(batch), len(batch))
            for t, batch in grouped.items()
        }
        self._applied = 0

    @staticmethod
    def _batch(batch: list[tuple]) -> TopologyEvents:
        drops, adds, leaves, joins = [], [], [], []
        for event in batch:
            op = event[0]
            if op == "drop":
                drops.append((event[2], event[3]))
            elif op == "add":
                adds.append((event[2], event[3]))
            elif op == "leave":
                leaves.append(event[2])
            else:
                joins.append((event[2], event[3]))
        return TopologyEvents(
            edge_drops=(
                np.array(drops, dtype=np.int64)
                if drops
                else _EMPTY_PAIRS
            ),
            edge_adds=(
                np.array(adds, dtype=np.int64)
                if adds
                else _EMPTY_PAIRS
            ),
            leaves=np.array(leaves, dtype=np.int64),
            joins=tuple(joins),
        )

    def round_events(self, t: int, loads: np.ndarray):
        entry = self._by_round.get(t)
        if entry is None:
            return None
        events, count = entry
        self._applied += count
        return events

    def summary(self) -> dict:
        return {"topology_events_applied": self._applied}


# ----------------------------------------------------------------------
# Engine-side helpers (shared by the dense, structured, and batch paths)
# ----------------------------------------------------------------------


def validate_topology_events(events: TopologyEvents, graph) -> None:
    """Structural validation of one round's event batch.

    Checks shapes, index ranges, and intra-batch duplicates; semantic
    consistency against the live graph (edge present/absent, node
    active/inactive, port capacity) is enforced unconditionally by
    :func:`apply_topology_events` itself.

    The checks run over Python ints: :func:`apply_topology_events`
    walks the batch edge by edge anyway, so this stays a fraction of
    its cost, while numpy's fixed per-call cost would dominate the
    typical one-edge batch.
    """
    n = graph.num_nodes
    for label, pairs in (
        ("edge_drops", events.edge_drops),
        ("edge_adds", events.edge_adds),
    ):
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            continue
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidTopology(
                f"{label} must have shape (k, 2), got {pairs.shape}"
            )
        edges = pairs.tolist()
        if not all(0 <= u < n and 0 <= v < n for u, v in edges):
            raise InvalidTopology(
                f"{label} endpoints must lie in [0, {n})"
            )
        if any(u == v for u, v in edges):
            raise InvalidTopology(f"{label} contains a self-edge")
        keys = {(u, v) if u < v else (v, u) for u, v in edges}
        if len(keys) != len(edges):
            raise InvalidTopology(f"{label} contains duplicate edges")
    leaves = np.asarray(events.leaves).ravel().tolist()
    if leaves:
        if not all(0 <= u < n for u in leaves):
            raise InvalidTopology(
                f"leave nodes must lie in [0, {n})"
            )
        if len(set(leaves)) != len(leaves):
            raise InvalidTopology("leaves contains duplicate nodes")
    seen = set()
    for node, neighbors in events.joins:
        if not 0 <= int(node) < n:
            raise InvalidTopology(
                f"join node {node} must lie in [0, {n})"
            )
        if int(node) in seen:
            raise InvalidTopology(
                f"node {node} joins twice in one round"
            )
        seen.add(int(node))
        for v in neighbors:
            if not 0 <= int(v) < n:
                raise InvalidTopology(
                    f"join neighbor {v} must lie in [0, {n})"
                )


def apply_topology_events(
    graph: MutableBalancingGraph,
    events: TopologyEvents,
    loads: np.ndarray,
) -> None:
    """Mutate ``graph`` (and hand off load) per one event batch.

    The single authoritative application order — leaves, joins, edge
    drops, edge adds, sequentially within each group.  A leaving
    node's load is split evenly over its current live neighbors with
    the remainder dealt in port order; with no neighbors the load
    stays parked on the node (its ports all become padding, so the
    tokens bounce in place).  Token-conserving by construction.

    ``loads`` is modified in place; the graph's dirty-node set
    accumulates for the caller to feed ``Balancer.refresh_topology``.
    """
    for u in events.leaves.tolist():
        targets = graph.neighbors(u)
        amount = int(loads[u])
        if targets and amount:
            share, extra = divmod(amount, len(targets))
            for i, v in enumerate(targets):
                loads[v] += share + (1 if i < extra else 0)
            loads[u] = 0
        graph.deactivate_node(u)
    for node, neighbors in events.joins:
        graph.activate_node(int(node), neighbors)
    # tolist() up front: iterating a numpy array yields boxed scalar
    # rows, and unboxing per edge costs more than the mutation itself
    # on a busy churn round.
    for u, v in events.edge_drops.tolist():
        graph.drop_edge(u, v)
    for u, v in events.edge_adds.tolist():
        graph.add_edge(u, v)
