"""Per-round load-event injectors — the dynamic-workload pipeline.

The paper analyzes discrepancy on a *fixed* load vector; the production
analogue (and the direction of Gilbert–Meir–Paz and the dynamic
averaging line of work) balances while load arrives and departs every
round.  An :class:`Injector` is that adversary/workload: at the
*beginning* of round ``t`` — before the balancer moves any tokens — it
emits an integer delta vector which the engine adds to the current
loads.  The round then proceeds exactly as in the static model:

    ``x_t  →  x_t + delta_t  →  balancing step  →  x_{t+1}``

The adversary-moves-first convention keeps every engine invariant
intact: the balancer's sends are validated against the post-injection
vector, token conservation is checked per balancing step, and the
running total is adjusted by exactly ``delta_t.sum()``.

Injection is a plain vector add, so it composes with *every* execution
path — the dense engine, the matrix-free structured engine, and the
stacked ``(replicas, n)`` batch executor — without disturbing their
fast paths (the differential suites in ``tests/differential`` prove
the three bit-identical under dynamics).

Injectors register by name in :data:`INJECTORS` (``@register_injector``)
so scenario JSON and the CLI can request them declaratively via
:class:`~repro.dynamics.spec.DynamicsSpec`::

    @register_injector("my_trickle")
    class MyTrickle(Injector):
        def delta(self, t, loads):
            ...

Seeded injectors take a ``seed`` parameter which batch replicas offset
(``seed + r``) exactly like load specs, so replica ``r`` reproduces the
same event stream whether it runs alone, looped, or inside a batch.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InvalidInjection
from repro.core.loads import validate_delta
from repro.registry import Registry

__all__ = [
    "INJECTORS",
    "register_injector",
    "Injector",
    "validate_delta",  # engine-side validator; lives in repro.core.loads
    "ConstantRate",
    "BatchArrivals",
    "AdversarialPeak",
    "RandomChurn",
    "Scripted",
]

#: Named injectors available to scenario specs and the CLI.
INJECTORS: Registry = Registry("injector")

#: Decorator registering an injector factory: ``@register_injector(name)``.
register_injector = INJECTORS.register


class Injector:
    """Base class for per-round load-event generators.

    Lifecycle mirrors probes: the engine calls :meth:`start` once with
    the graph and the initial vector (resetting any RNG stream so one
    instance can be reused across runs), then :meth:`delta` once per
    round, *before* the balancing step of that round.

    Contract for :meth:`delta`:

    * returns an integer vector of the loads' shape (tokens arriving
      are positive entries, tokens departing negative);
    * must never drain a node below zero — ``loads + delta >= 0``
      (the engine enforces this and raises
      :class:`~repro.core.errors.InvalidInjection`);
    * given the same construction parameters and the same sequence of
      ``delta`` calls, the emitted stream is identical — determinism is
      what makes the differential harness's bit-identity claims
      meaningful.
    """

    #: Human-readable name used in reports.
    name: str = "injector"

    def start(self, graph, loads: np.ndarray) -> None:
        """Reset per-run state (RNG streams, cursors) for a fresh run."""

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        """The load change applied at the beginning of round ``t``.

        The returned array may be an internal scratch buffer reused by
        the next ``delta`` call (the same contract as
        ``Balancer.sends_batch``) — the engines consume it immediately;
        callers that retain deltas must copy.
        """
        raise NotImplementedError

    def _zero_delta(self, n: int) -> np.ndarray:
        """A zeroed length-``n`` scratch buffer, reused across rounds.

        Injection runs once per round on the hot path; handing numpy a
        fresh O(n) allocation each round causes allocator churn (mmap /
        page-fault storms at large ``n``) that costs far more than the
        arithmetic.  Subclasses build their delta in this buffer
        instead.
        """
        buf = getattr(self, "_delta_buf", None)
        if buf is None or buf.shape[0] != n:
            buf = np.zeros(n, dtype=np.int64)
            self._delta_buf = buf
        else:
            buf.fill(0)
        return buf

    def summary(self) -> dict:
        """End-of-run scalar facts (merged into run summaries)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _scatter(nodes: np.ndarray, n: int) -> np.ndarray:
    """Token placement list -> per-node count vector."""
    return np.bincount(nodes, minlength=n).astype(np.int64)


@register_injector("constant_rate")
class ConstantRate(Injector):
    """``rate`` tokens arrive every round.

    ``placement="random"`` throws them uniformly at seeded-random nodes
    (fresh draw per round); ``"round_robin"`` deals them
    deterministically across nodes, continuing where the previous round
    stopped — the zero-variance arrival stream used by the benchmark
    ladder.
    """

    name = "constant_rate"

    def __init__(
        self, rate: int, placement: str = "random", seed: int = 0
    ) -> None:
        if rate < 0:
            raise InvalidInjection(f"rate must be >= 0, got {rate}")
        if placement not in ("random", "round_robin"):
            raise InvalidInjection(
                f"unknown placement {placement!r}; "
                "known: random, round_robin"
            )
        self.rate = int(rate)
        self.placement = placement
        self.seed = int(seed)
        self._injected = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._cursor = 0
        self._injected = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        self._injected += self.rate
        out = self._zero_delta(n)
        if self.placement == "random":
            nodes = self._rng.integers(0, n, size=self.rate)
            np.add.at(out, nodes, 1)
            return out
        # Round-robin deals whole laps plus one cyclic run of nodes
        # from the cursor: slice adds, no scatter.
        laps, rest = divmod(self.rate, n)
        if laps:
            out += laps
        end = self._cursor + rest
        out[self._cursor:end] += 1
        if end > n:
            out[: end - n] += 1
        self._cursor = end % n
        return out

    def summary(self) -> dict:
        return {"tokens_arrived": self._injected}


@register_injector("batch_arrivals")
class BatchArrivals(Injector):
    """Every ``period`` rounds a burst of ``tokens`` lands at once.

    The burst hits one seeded-random node per arrival round (``node=``
    pins it instead) — the bursty traffic shape between the smooth
    ``constant_rate`` trickle and a one-off point mass.
    """

    name = "batch_arrivals"

    def __init__(
        self,
        tokens: int,
        period: int = 10,
        node: int | None = None,
        seed: int = 0,
    ) -> None:
        if tokens < 0:
            raise InvalidInjection(f"tokens must be >= 0, got {tokens}")
        if period < 1:
            raise InvalidInjection(f"period must be >= 1, got {period}")
        self.tokens = int(tokens)
        self.period = int(period)
        self.node = node
        self.seed = int(seed)
        self._injected = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._injected = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        out = self._zero_delta(n)
        if t % self.period == 0:
            target = (
                int(self._rng.integers(0, n))
                if self.node is None
                else self.node % n
            )
            out[target] = self.tokens
            self._injected += self.tokens
        return out

    def summary(self) -> dict:
        return {"tokens_arrived": self._injected}


@register_injector("adversarial_peak")
class AdversarialPeak(Injector):
    """``rate`` tokens pile onto the currently most-loaded node.

    The load-aware adversary: it reinforces whatever imbalance the
    balancer has not yet dissolved (ties break toward the lowest node
    index), the worst case for steady-state discrepancy at a given
    arrival rate.  Fully deterministic.
    """

    name = "adversarial_peak"

    def __init__(self, rate: int, period: int = 1) -> None:
        if rate < 0:
            raise InvalidInjection(f"rate must be >= 0, got {rate}")
        if period < 1:
            raise InvalidInjection(f"period must be >= 1, got {period}")
        self.rate = int(rate)
        self.period = int(period)
        self._injected = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._injected = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        out = self._zero_delta(loads.shape[-1])
        if t % self.period == 0:
            out[int(np.argmax(loads))] = self.rate
            self._injected += self.rate
        return out

    def summary(self) -> dict:
        return {"tokens_arrived": self._injected}


@register_injector("random_churn")
class RandomChurn(Injector):
    """Drain/refill churn: tokens depart and (optionally) re-arrive.

    Each round, ``rate`` departure slots hit seeded-random nodes; a
    node loses one token per slot but never goes below zero (departures
    from empty nodes are lost capacity, not negative load).  With
    ``refill=True`` (default) exactly the departed tokens re-arrive at
    seeded-random nodes the same round, so the total is conserved and
    the system has a genuine steady state; ``refill=False`` is a pure
    drain.
    """

    name = "random_churn"

    def __init__(self, rate: int, refill: bool = True, seed: int = 0) -> None:
        if rate < 0:
            raise InvalidInjection(f"rate must be >= 0, got {rate}")
        self.rate = int(rate)
        self.refill = bool(refill)
        self.seed = int(seed)
        self._drained = 0
        self._refilled = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._drained = 0
        self._refilled = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        requested = _scatter(
            self._rng.integers(0, n, size=self.rate), n
        )
        drained = np.minimum(requested, loads)
        moved = int(drained.sum())
        out = -drained
        if self.refill and moved:
            out += _scatter(
                self._rng.integers(0, n, size=moved), n
            )
            self._refilled += moved
        self._drained += moved
        return out

    def summary(self) -> dict:
        return {
            "tokens_departed": self._drained,
            "tokens_arrived": self._refilled,
        }


@register_injector("scripted")
class Scripted(Injector):
    """An explicit event list: ``[[round, node, amount], ...]``.

    The fully reproducible injector — every event is written down, so
    scripted streams round-trip through scenario JSON and are the
    natural target for hypothesis-generated event streams in the
    differential harness.  Amounts may be negative (departures); the
    engine still enforces that no node is drained below zero.
    """

    name = "scripted"

    def __init__(self, events: list) -> None:
        parsed = []
        for event in events:
            if len(event) != 3:
                raise InvalidInjection(
                    f"scripted events are [round, node, amount] "
                    f"triples, got {event!r}"
                )
            t, node, amount = (int(v) for v in event)
            if t < 1:
                raise InvalidInjection(
                    f"scripted event round must be >= 1, got {t}"
                )
            parsed.append((t, node, amount))
        self.events = parsed
        self._arrived = 0
        self._departed = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._by_round: dict[int, list[tuple[int, int]]] = {}
        for t, node, amount in self.events:
            self._by_round.setdefault(t, []).append((node, amount))
        self._arrived = 0
        self._departed = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        out = self._zero_delta(n)
        for node, amount in self._by_round.get(t, ()):
            out[node % n] += amount
            if amount >= 0:
                self._arrived += amount
            else:
                self._departed -= amount
        return out

    def summary(self) -> dict:
        return {
            "tokens_arrived": self._arrived,
            "tokens_departed": self._departed,
        }
