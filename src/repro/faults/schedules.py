"""Per-round network-fault schedules — the fault-injection pipeline.

The paper's schemes are prized for self-stabilization, yet the harness
so far could only exercise them on a frozen, fault-free fabric.  A
:class:`FaultSchedule` is the network adversary complementing the
workload adversary of :mod:`repro.dynamics`: at the beginning of round
``t`` it declares what the fabric does to this round's sends —

* **dead edges** — directed ``(node, port)`` pairs whose link is down
  this round.  Tokens assigned to a dead port *bounce back* to the
  sender (the link-layer view of a failed transmission), so dead edges
  conserve tokens;
* **dropped sends** — directed ``(node, port)`` pairs whose tokens are
  silently lost in flight.  Drops break conservation *in a tracked
  way*: the engines subtract exactly the dropped tokens from the
  running total, so the per-round conservation check stays exact;
* **load delta** — crash/recovery epochs move (handoff) or destroy
  (loss) the load of crashing nodes before the round begins.

The round then proceeds::

    x_t  →  crash/recover epochs  →  workload injection
         →  balancing over the live topology  →  x_{t+1}

Both engines honor one :class:`RoundFaults` identically: they execute
the normal fault-free round (dense sends matrix or matrix-free
:class:`~repro.core.structured.StructuredRound`) and then apply O(F)
sparse corrections — bounce dead-port sends back, erase dropped sends —
where F is the number of faulted ports.  A static schedule therefore
costs nothing, and an active one stays within the benchmark ladder's
1.2x overhead gate (``benchmarks/bench_e13_engine_throughput.py``).

Schedules register by name in :data:`FAULTS` (``@register_fault``) so
scenario JSON and the CLI can request them declaratively via
:class:`~repro.faults.spec.FaultSpec`.  Seeded schedules take a
``seed`` parameter which batch replicas offset (``seed + r``) exactly
like load specs and injectors, so replica ``r`` sees the same fault
history whether it runs alone, looped, or inside a batch.

Faults never touch padding ports of a
:class:`~repro.graphs.irregular.PaddedBalancingGraph` — padding is an
engine artifact, not a link.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.registry import Registry

__all__ = [
    "FAULTS",
    "register_fault",
    "InvalidFault",
    "RoundFaults",
    "FaultSchedule",
    "LinkFailures",
    "NodeCrashes",
    "MessageDrop",
    "validate_round_faults",
    "dense_port_values",
    "structured_port_values",
    "apply_round_faults",
]

#: Named fault schedules available to scenario specs and the CLI.
FAULTS: Registry = Registry("fault")

#: Decorator registering a fault schedule: ``@register_fault(name)``.
register_fault = FAULTS.register


class InvalidFault(ValueError):
    """A fault schedule was mis-parameterized or emitted invalid state."""


_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
_EMPTY_INDICES = np.empty(0, dtype=np.int64)


@dataclass
class RoundFaults:
    """What the fabric does to one round, in sparse directed-port form.

    ``dead`` and ``dropped`` are ``(k, 2)`` integer arrays of directed
    ``(node, port)`` pairs over *real* ports (never padding ports).
    ``dead`` must be closed under edge reversal — a link is down for
    both endpoints — while ``dropped`` is genuinely directed (a send
    can be lost one way).  The two sets are disjoint: a dead port sends
    nothing, so there is nothing to drop.  ``load_delta`` is an
    integer per-node vector applied *before* injection (crash handoff
    sums to zero; crash loss sums negative and is tracked).

    ``receivers`` optionally carries the node each ``dead`` pair sends
    to (``adjacency[dead[:, 0], dead[:, 1]]``), so a schedule that has
    it at hand spares the engines that lookup; the validator checks it.

    ``trusted`` marks rounds whose invariants hold *by construction*
    (the built-in schedules assemble pairs from pre-validated canonical
    edge stacks); engines then skip the per-round
    :func:`validate_round_faults` re-check — a unit test pins that
    every registered schedule's emitted rounds are validator-clean.
    Third-party schedules leave it False and get validated every round.
    """

    dead: np.ndarray = field(default_factory=lambda: _EMPTY_PAIRS)
    dropped: np.ndarray = field(default_factory=lambda: _EMPTY_PAIRS)
    load_delta: np.ndarray | None = None
    trusted: bool = False
    receivers: np.ndarray | None = None

    def is_empty(self) -> bool:
        return (
            self.dead.size == 0
            and self.dropped.size == 0
            and self.load_delta is None
        )


class _BernoulliGapStream:
    """Hit indices of an iid Bernoulli(``rate``) trial stream.

    The stream is served in consecutive blocks of ``block`` trials (one
    per round).  The inter-arrival gaps of a Bernoulli process are iid
    Geometric(``rate``), so the stream draws gaps in large vectorized
    chunks (covering ~64 blocks per RNG call), and :meth:`take_blocks`
    hands out every block the drawn positions fully cover (at most 64)
    in one vectorized pass: most rounds just pop a ready array, with no
    RNG call and no per-round numpy work — an active schedule's fixed
    per-round cost is what the E13 overhead gate measures against a
    fault-free structured round.  Draws happen exactly when a block is not yet covered, so the RNG is
    consumed at the same calls however the blocks are handed out.
    Exactly equivalent to flipping an independent coin per trial.
    """

    __slots__ = (
        "_rng", "_rate", "_block", "_chunk", "_pending", "_last",
        "_offset", "_ready",
    )

    #: Most blocks handed out per pass (bounds the work after one huge
    #: gap).
    _SPLIT = 64

    def __init__(self, rng, rate: float, block: int) -> None:
        self._rng = rng
        self._rate = float(rate)
        self._block = int(block)
        self._chunk = max(64, int(64 * block * rate) + 16)
        self._pending = _EMPTY_INDICES
        self._last = -1  # last absolute trial position drawn so far
        self._offset = 0  # absolute position where the next block starts
        self._ready: list[np.ndarray] = []  # for take(); next one last

    def take(self) -> np.ndarray:
        """Sorted hit indices in ``[0, block)`` for the next block."""
        if not self._ready:
            hits, bounds = self.take_blocks()
            self._ready = _split_blocks(hits, bounds, 1)
        return self._ready.pop()

    def take_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The next blocks, at least one: ``(hits, bounds)``.

        Block ``i``'s sorted hit indices in ``[0, block)`` are
        ``hits[bounds[i]:bounds[i + 1]]``.  Not to be mixed with
        :meth:`take` on one stream.
        """
        count = self._block
        if self._rate <= 0.0 or count == 0:
            return _EMPTY_INDICES, np.zeros(2, dtype=np.int64)
        if self._rate >= 1.0:
            return (
                np.arange(count, dtype=np.int64),
                np.array([0, count], dtype=np.int64),
            )
        while self._last < self._offset + count - 1:
            gaps = self._rng.geometric(self._rate, size=self._chunk)
            # For vanishingly small rates a single geometric gap can
            # approach 2**63 and overflow the cumsum.  Clamping at 2**50
            # is observably exact: by memorylessness the clamped
            # "phantom hit" sits ~1e15 trials ahead — beyond any
            # servable block — and the stream continues geometrically.
            np.minimum(gaps, 1 << 50, out=gaps)
            more = self._last + np.cumsum(gaps)
            self._last = int(more[-1])
            if self._pending.size:
                self._pending = np.concatenate([self._pending, more])
            else:
                self._pending = more
        covered = min((self._last + 1 - self._offset) // count, self._SPLIT)
        starts = self._offset + count * np.arange(covered + 1)
        bounds = self._pending.searchsorted(starts)
        hits = self._pending[: bounds[-1]] - np.repeat(
            starts[:-1], np.diff(bounds)
        )
        self._pending = self._pending[bounds[-1]:]
        self._offset = int(starts[-1])
        return hits, bounds


def _split_blocks(array: np.ndarray, bounds: np.ndarray, rows: int):
    """Per-block views of ``array`` (``rows`` rows per hit), in
    reverse block order so ``list.pop()`` serves them in order."""
    edges = (bounds * rows).tolist()
    return [array[lo:hi] for lo, hi in zip(edges[-2::-1], edges[:0:-1])]


class FaultSchedule:
    """Base class for per-round fault generators.

    Lifecycle mirrors :class:`~repro.dynamics.injectors.Injector`: the
    engine calls :meth:`start` once with the graph and initial loads
    (resetting RNG streams so one instance can be reused), then
    :meth:`round_state` exactly once per round, before that round's
    injection and balancing.  Determinism contract: the same
    construction parameters and the same sequence of ``round_state``
    calls produce the identical fault history — this is what makes the
    differential harness's bit-identity claims meaningful under faults.
    """

    #: Human-readable name used in reports.
    name: str = "fault"

    def start(self, graph, loads: np.ndarray) -> None:
        """Bind the graph and reset per-run state for a fresh run."""
        self._bind(graph)

    def round_state(self, t: int, loads: np.ndarray):
        """Faults for round ``t`` (or ``None`` for a fault-free round).

        ``loads`` is the pre-injection vector at the start of round
        ``t``; crash semantics read it to size handoffs.  Returning
        ``None`` keeps the engines on their unmodified fast path.
        """
        raise NotImplementedError

    def summary(self) -> dict:
        """End-of-run scalar facts (merged into run summaries)."""
        return {}

    # -- shared graph precomputes ---------------------------------------

    def _bind(self, graph) -> None:
        """Precompute the real directed-port arrays faults draw from."""
        if graph is None:
            raise InvalidFault(
                f"fault schedule {self.name!r} needs a graph to bind to"
            )
        self._graph = graph
        adjacency = graph.adjacency
        n = graph.num_nodes
        real = graph.real_port_mask()
        self._real_mask = real
        self._real_u, self._real_p = (
            arr.astype(np.int64) for arr in np.nonzero(real)
        )
        self._real_pairs = np.stack(
            [self._real_u, self._real_p], axis=1
        )
        # Canonical (u < v) side of every undirected real edge, plus its
        # reverse — one coin per link, shared by both directions.
        canonical = real & (np.arange(n)[:, None] < adjacency)
        self._canon_u, self._canon_p = (
            arr.astype(np.int64) for arr in np.nonzero(canonical)
        )
        self._canon_v = adjacency[self._canon_u, self._canon_p]
        self._canon_q = graph.reverse_port[self._canon_u, self._canon_p]
        # Both directed pairs of every canonical edge, stacked so failed
        # links map to their pairs with one gather, not re-assembly:
        # _canon_both[e] == [[u, p], [v, q]] for undirected edge e.
        self._canon_both = np.stack(
            [
                np.stack([self._canon_u, self._canon_p], axis=1),
                np.stack([self._canon_v, self._canon_q], axis=1),
            ],
            axis=1,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


@register_fault("link_failures")
class LinkFailures(FaultSchedule):
    """Per-round link outages: random coins or an adversarial cut.

    ``mode="random"``: every undirected real edge is independently down
    with probability ``rate`` each round (one seeded coin per link —
    both directions fail together).  ``mode="cut"``: the adversary
    severs every edge crossing the node bisection ``[0, n/2) |
    [n/2, n)`` for the first ``down`` rounds of every ``period`` — the
    worst connected-component stress a bisection adversary can apply
    without disconnecting forever.  ``until`` limits the schedule to
    rounds ``t <= until`` (the fabric then heals), which is how the E17
    driver measures discrepancy-recovery time.
    """

    name = "link_failures"

    def __init__(
        self,
        rate: float = 0.1,
        mode: str = "random",
        period: int = 8,
        down: int = 4,
        until: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidFault(f"rate must lie in [0, 1], got {rate}")
        if mode not in ("random", "cut"):
            raise InvalidFault(
                f"unknown mode {mode!r}; known: random, cut"
            )
        if period < 1:
            raise InvalidFault(f"period must be >= 1, got {period}")
        if not 0 <= down <= period:
            raise InvalidFault(
                f"down must lie in [0, period], got {down}"
            )
        if until is not None and until < 0:
            raise InvalidFault(f"until must be >= 0, got {until}")
        self.rate = float(rate)
        self.mode = mode
        self.period = int(period)
        self.down = int(down)
        self.until = until
        self.seed = int(seed)
        self._edge_failures = 0
        self._failure_rounds = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._bind(graph)
        self._rng = np.random.default_rng(self.seed)
        self._coins = _BernoulliGapStream(
            self._rng, self.rate, self._canon_u.size
        )
        # Receiving node of each directed pair in _canon_both.
        self._canon_receivers = np.stack(
            [self._canon_v, self._canon_u], axis=1
        )
        self._queued: list[tuple[np.ndarray, np.ndarray]] = []
        self._edge_failures = 0
        self._failure_rounds = 0
        if self.mode == "cut":
            half = graph.num_nodes // 2
            self._cut_dead, self._cut_receivers = self._pairs(
                np.flatnonzero(
                    (self._canon_u < half) != (self._canon_v < half)
                )
            )

    def _pairs(self, edges: np.ndarray):
        """Canonical edges -> their directed pairs and receivers."""
        return (
            self._canon_both.take(edges, axis=0).reshape(-1, 2),
            self._canon_receivers.take(edges, axis=0).reshape(-1),
        )

    def round_state(self, t: int, loads: np.ndarray):
        if self.until is not None and t > self.until:
            return None
        if self.mode == "cut":
            if (t - 1) % self.period >= self.down:
                return None
            dead, receivers = self._cut_dead, self._cut_receivers
        else:
            if self.rate == 0.0 or self._canon_u.size == 0:
                return None
            if not self._queued:
                # ~64 rounds of failed links at once: one gather each
                # for their pairs and receivers, then per-round views.
                hits, bounds = self._coins.take_blocks()
                dead, receivers = self._pairs(hits)
                self._queued = list(
                    zip(
                        _split_blocks(dead, bounds, 2),
                        _split_blocks(receivers, bounds, 2),
                    )
                )
            dead, receivers = self._queued.pop()
        count = receivers.size // 2
        if count == 0:
            return None
        self._edge_failures += count
        self._failure_rounds += 1
        return RoundFaults(dead=dead, receivers=receivers, trusted=True)

    def summary(self) -> dict:
        return {
            "edge_failures": self._edge_failures,
            "failure_rounds": self._failure_rounds,
        }


@register_fault("node_crashes")
class NodeCrashes(FaultSchedule):
    """Crash/recover epochs with load handoff or tracked load loss.

    Every round, each live node independently crashes with probability
    ``rate`` (or at the scripted ``events`` rounds, ``[[round, node],
    ...]``); a crashed node stays down for ``downtime`` rounds and all
    its incident links are dead meanwhile — it neither sends nor
    receives.  At the crash instant its load is handed to its currently
    live real neighbors, split evenly with the remainder dealt in port
    order (``handoff="neighbors"``, conserving), or destroyed and
    tracked (``handoff="lost"``, or when no live neighbor exists).
    Recovery is implicit: after ``downtime`` rounds the node rejoins
    with whatever load it accumulated while down (normally zero).
    """

    name = "node_crashes"

    def __init__(
        self,
        rate: float = 0.0,
        downtime: int = 5,
        handoff: str = "neighbors",
        events: list | None = None,
        until: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidFault(f"rate must lie in [0, 1], got {rate}")
        if downtime < 1:
            raise InvalidFault(f"downtime must be >= 1, got {downtime}")
        if handoff not in ("neighbors", "lost"):
            raise InvalidFault(
                f"unknown handoff {handoff!r}; known: neighbors, lost"
            )
        if until is not None and until < 0:
            raise InvalidFault(f"until must be >= 0, got {until}")
        parsed = []
        for event in events or []:
            if len(event) != 2:
                raise InvalidFault(
                    f"crash events are [round, node] pairs, got {event!r}"
                )
            t, node = (int(v) for v in event)
            if t < 1:
                raise InvalidFault(
                    f"crash event round must be >= 1, got {t}"
                )
            parsed.append((t, node))
        self.rate = float(rate)
        self.downtime = int(downtime)
        self.handoff = handoff
        self.events = parsed
        self.until = until
        self.seed = int(seed)
        self._crashes = 0
        self._tokens_lost = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._bind(graph)
        self._rng = np.random.default_rng(self.seed)
        n = graph.num_nodes
        self._coins = _BernoulliGapStream(self._rng, self.rate, n)
        self._down_until = np.zeros(n, dtype=np.int64)
        self._by_round: dict[int, list[int]] = {}
        for t, node in self.events:
            self._by_round.setdefault(t, []).append(node % n)
        self._crashes = 0
        self._tokens_lost = 0

    def round_state(self, t: int, loads: np.ndarray):
        graph = self._graph
        n = graph.num_nodes
        down = self._down_until > t
        active = self.until is None or t <= self.until
        crashing = np.zeros(n, dtype=bool)
        if active:
            if self.rate > 0.0:
                sampled = self._coins.take()
                crashing[sampled[~down[sampled]]] = True
            for node in self._by_round.get(t, ()):
                if not down[node]:
                    crashing[node] = True
        if crashing.any():
            self._down_until[crashing] = t + self.downtime
            down = down | crashing
        if not down.any():
            return None
        load_delta = None
        if crashing.any():
            load_delta = np.zeros(n, dtype=np.int64)
            for node in np.flatnonzero(crashing):
                amount = int(loads[node])
                self._crashes += 1
                if amount == 0:
                    continue
                targets = np.empty(0, dtype=np.int64)
                if self.handoff == "neighbors":
                    ports = np.flatnonzero(self._real_mask[node])
                    neighbors = graph.adjacency[node, ports]
                    targets = neighbors[~down[neighbors]]
                if targets.size:
                    share, extra = divmod(amount, targets.size)
                    load_delta[targets] += share
                    load_delta[targets[:extra]] += 1
                else:
                    self._tokens_lost += amount
                load_delta[node] -= amount
        # Every real directed port touching a down node is dead; the
        # reverse side is added only where the far endpoint is live so
        # down-down links appear exactly once per direction.
        sel = down[self._real_u]
        u, p = self._real_u[sel], self._real_p[sel]
        v = graph.adjacency[u, p]
        q = graph.reverse_port[u, p]
        live = ~down[v]
        dead = np.stack(
            [
                np.concatenate([u, v[live]]),
                np.concatenate([p, q[live]]),
            ],
            axis=1,
        )
        return RoundFaults(
            dead=dead, load_delta=load_delta, trusted=True
        )

    def summary(self) -> dict:
        return {
            "crashes": self._crashes,
            "tokens_lost_at_crash": self._tokens_lost,
        }


@register_fault("message_drop")
class MessageDrop(FaultSchedule):
    """A fraction of each round's sends is silently lost in flight.

    Every directed real port independently loses its tokens with
    probability ``rate`` each round — the lossy-datagram fabric.  Drops
    are the one fault that breaks token conservation, and they break it
    in a *tracked* way: the engines subtract exactly the dropped tokens
    from the running total (reported as ``tokens_dropped``), so the
    conservation invariant stays an exact equality.
    """

    name = "message_drop"

    def __init__(
        self,
        rate: float = 0.05,
        until: int | None = None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise InvalidFault(f"rate must lie in [0, 1], got {rate}")
        if until is not None and until < 0:
            raise InvalidFault(f"until must be >= 0, got {until}")
        self.rate = float(rate)
        self.until = until
        self.seed = int(seed)
        self._drop_events = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._bind(graph)
        self._rng = np.random.default_rng(self.seed)
        self._coins = _BernoulliGapStream(
            self._rng, self.rate, self._real_u.size
        )
        self._drop_events = 0

    def round_state(self, t: int, loads: np.ndarray):
        if self.until is not None and t > self.until:
            return None
        if self.rate == 0.0 or self._real_u.size == 0:
            return None
        selected = self._coins.take()
        if selected.size == 0:
            return None
        self._drop_events += int(selected.size)
        return RoundFaults(
            dropped=self._real_pairs[selected], trusted=True
        )

    def summary(self) -> dict:
        return {"drop_events": self._drop_events}


# ----------------------------------------------------------------------
# Engine-side helpers (shared by the dense, structured, and batch paths)
# ----------------------------------------------------------------------


def validate_round_faults(faults: RoundFaults, graph) -> None:
    """Structural validation of one round's fault state.

    Checks index ranges, that only real (non-padding) ports are
    touched, that ``dead`` is closed under edge reversal with no
    duplicates (and matches ``receivers`` when given), and that
    ``dead`` and ``dropped`` are disjoint.
    """
    n, d = graph.adjacency.shape
    flats = {}
    for label, pairs in (("dead", faults.dead), ("dropped", faults.dropped)):
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            flats[label] = np.empty(0, dtype=np.int64)
            continue
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidFault(
                f"{label} pairs must have shape (k, 2), got {pairs.shape}"
            )
        u, p = pairs[:, 0], pairs[:, 1]
        if u.min() < 0 or u.max() >= n or p.min() < 0 or p.max() >= d:
            raise InvalidFault(
                f"{label} pairs out of range for a ({n}, {d}) port space"
            )
        if np.any(p >= graph.true_degrees[u]):
            raise InvalidFault(
                f"{label} pairs touch padding ports; faults apply to "
                "real links only"
            )
        flats[label] = u * d + p
    dead = flats["dead"]
    if dead.size:
        dead = np.sort(dead)
        if np.any(dead[1:] == dead[:-1]):
            raise InvalidFault("dead pairs contain duplicates")
        u, p = faults.dead[:, 0], faults.dead[:, 1]
        reverse = (
            graph.adjacency[u, p] * d + graph.reverse_port[u, p]
        )
        if not np.array_equal(dead, np.sort(reverse)):
            raise InvalidFault(
                "dead pairs are not closed under edge reversal; a "
                "failed link is down for both endpoints"
            )
        if faults.receivers is not None and not np.array_equal(
            faults.receivers, graph.adjacency[u, p]
        ):
            raise InvalidFault(
                "receivers must be the far endpoint of each dead pair"
            )
    dropped = flats["dropped"]
    if dropped.size:
        dropped = np.sort(dropped)
        if np.any(dropped[1:] == dropped[:-1]):
            raise InvalidFault("dropped pairs contain duplicates")
    if dead.size and dropped.size:
        if np.intersect1d(dead, dropped, assume_unique=True).size:
            raise InvalidFault(
                "dead and dropped pairs overlap; a dead port sends "
                "nothing, so nothing of it can be dropped"
            )
    if faults.load_delta is not None:
        delta = faults.load_delta
        if delta.shape[-1] != n:
            raise InvalidFault(
                f"load_delta has shape {delta.shape}, expected ({n},)"
            )
        if not np.issubdtype(delta.dtype, np.integer):
            raise InvalidFault(
                f"load_delta must be integer, got dtype {delta.dtype}"
            )


def dense_port_values(sends: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Per-pair token counts read off a dense ``(n, d+)`` sends matrix."""
    return sends[pairs[:, 0], pairs[:, 1]]


def structured_port_values(
    compact, graph, pairs: np.ndarray, replica: int | None = None
) -> np.ndarray:
    """Per-pair token counts a :class:`StructuredRound` assigns.

    Every real port of node ``u`` carries ``edge_share[u]`` plus one
    window token iff the port's cyclic position falls inside the rotor
    window — read at the F faulted pairs only, the window hits from the
    round's edge hit matrix (the structured apply has already built and
    cached it; see :class:`~repro.core.structured.RotorWindow`).
    """
    u = pairs[:, 0]
    share = np.asarray(compact.edge_share)
    if share.ndim == 2:
        share = share[replica if replica is not None else 0]
    if share.ndim == 0:
        values = np.full(u.shape, int(share), dtype=np.int64)
    else:
        # take() always materializes a fresh array, so the in-place
        # window add below cannot alias the balancer's state.
        values = share.take(u).astype(np.int64, copy=False)
    if compact.window is not None:
        # Faults touch real ports only, and those are original edges.
        values += compact.window.edge_hit_matrix(graph)[u, pairs[:, 1]]
    return values


def apply_round_faults(
    new_loads: np.ndarray, graph, faults: RoundFaults, port_values
) -> int:
    """Correct a fault-free round result in place; returns tokens lost.

    ``port_values(pairs)`` maps directed ``(node, port)`` pairs to the
    token counts the round assigned them (dense or structured).  Dead
    sends are pulled back from the receiver and returned to the sender
    (conserving); dropped sends are pulled back and vanish — the
    returned count is what the caller subtracts from its running total.
    """
    if faults.dead.size:
        senders = faults.dead[:, 0]
        receivers = faults.receivers
        if receivers is None:
            receivers = graph.adjacency[senders, faults.dead[:, 1]]
        values = port_values(faults.dead)
        # Two scatters beat concatenating both index and value arrays
        # into one: a round's F pairs are few, so numpy's per-call cost
        # is what this path pays.
        np.subtract.at(new_loads, receivers, values)
        np.add.at(new_loads, senders, values)
    dropped_tokens = 0
    if faults.dropped.size:
        values = port_values(faults.dropped)
        receivers = graph.adjacency[
            faults.dropped[:, 0], faults.dropped[:, 1]
        ]
        np.subtract.at(new_loads, receivers, values)
        dropped_tokens = int(values.sum())
    return dropped_tokens
