"""Seeded datacenter arrival processes on the Injector protocol.

Each generator is a :func:`~repro.dynamics.injectors.register_injector`
entry, so scenario JSON requests it by name through
:class:`~repro.dynamics.spec.DynamicsSpec` and inherits the standard
replica discipline: batch replica ``r`` runs with ``seed + r`` and must
emit a bit-identical stream whether it executes alone, looped, batched,
or replayed from the result cache (pinned by the replica-offset suite
in ``tests/scenarios``).

Determinism rules shared by every generator here:

* :meth:`start` rebuilds the RNG from the stored seed, so one instance
  reused across runs restarts the stream from scratch;
* :meth:`delta` consumes the stream strictly once per round in round
  order (the only call pattern the engines use), or — for
  ``hotspot_shift`` — derives its randomness from ``(seed, epoch)``
  alone, making it independent of call history altogether;
* all emitted deltas are non-negative arrivals, so no generator can
  violate the engine's never-drain-below-zero invariant.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InvalidInjection
from repro.dynamics.injectors import Injector, register_injector

__all__ = [
    "PoissonArrivals",
    "ParetoFlows",
    "Diurnal",
    "HotspotShift",
    "CorrelatedBurst",
    "host_rates",
]

#: SeedSequence stream key separating hotspot-epoch draws from any
#: other consumer of the same user seed.
_HOTSPOT_STREAM = 0x686F74  # "hot"


def _rate_vector(rate, n: int) -> np.ndarray:
    """Broadcast a scalar or per-node rate spec to a length-``n`` lam."""
    lam = np.asarray(rate, dtype=np.float64)
    if lam.ndim == 0:
        lam = np.full(n, float(lam))
    if lam.shape != (n,):
        raise InvalidInjection(
            f"per-node rate vector has length {lam.shape[0] if lam.ndim == 1 else lam.shape}, "
            f"graph has {n} nodes"
        )
    return lam


def _check_rate(rate) -> None:
    arr = np.asarray(rate, dtype=np.float64)
    if arr.ndim > 1 or (arr < 0).any():
        raise InvalidInjection(
            "rate must be a non-negative scalar or a flat vector of "
            f"non-negative per-node rates, got {rate!r}"
        )


def host_rates(graph, rate: float, tier: str = "host") -> list[float]:
    """Per-node rate list concentrating ``rate`` on one tier.

    Every node of ``tier`` gets ``rate``; every other node gets 0 —
    the arrival shape of a serving fabric, where requests land on
    hosts and the switch tiers only relay.  Returns a plain list so
    the result drops straight into ``DynamicsSpec`` params and
    scenario JSON.
    """
    tiers, names = graph.node_tiers, graph.tier_names
    if tiers is None:
        raise InvalidInjection(
            f"graph {graph.name!r} has no node_tiers "
            "metadata; host_rates needs a tiered fabric"
        )
    if tier not in names:
        raise InvalidInjection(
            f"unknown tier {tier!r}; graph tiers: {', '.join(names)}"
        )
    mask = tiers == names.index(tier)
    return [float(rate) if hot else 0.0 for hot in mask]


@register_injector("poisson_arrivals")
class PoissonArrivals(Injector):
    """Independent Poisson arrivals, scalar or per-node rate vector.

    The memoryless baseline of the traffic pack: each round, node
    ``i`` receives ``Poisson(rate_i)`` tokens.  Pass a scalar for a
    uniform fabric-wide rate or a length-``n`` list (see
    :func:`host_rates`) to drive only one tier.
    """

    name = "poisson_arrivals"

    def __init__(self, rate, seed: int = 0) -> None:
        _check_rate(rate)
        self.rate = rate
        self.seed = int(seed)
        self._injected = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._lam = _rate_vector(self.rate, loads.shape[-1])
        self._injected = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        out = self._zero_delta(loads.shape[-1])
        out += self._rng.poisson(self._lam)
        self._injected += int(out.sum())
        return out

    def summary(self) -> dict:
        return {"tokens_arrived": self._injected}


@register_injector("pareto_flows")
class ParetoFlows(Injector):
    """Heavy-tailed flow arrivals: Poisson count, Pareto sizes.

    Each round, ``Poisson(rate)`` flows arrive at uniform random
    nodes; each flow carries ``floor(min_size * U^(-1/alpha))`` tokens
    clipped to ``max_size`` — the elephants-and-mice size mix of real
    datacenter traces.  Smaller ``alpha`` means heavier elephants.
    """

    name = "pareto_flows"

    def __init__(
        self,
        rate: float,
        alpha: float = 1.5,
        min_size: int = 1,
        max_size: int = 10_000,
        seed: int = 0,
    ) -> None:
        if rate < 0:
            raise InvalidInjection(f"rate must be >= 0, got {rate}")
        if alpha <= 0:
            raise InvalidInjection(f"alpha must be > 0, got {alpha}")
        if not 1 <= min_size <= max_size:
            raise InvalidInjection(
                "need 1 <= min_size <= max_size, got "
                f"min_size={min_size}, max_size={max_size}"
            )
        self.rate = float(rate)
        self.alpha = float(alpha)
        self.min_size = int(min_size)
        self.max_size = int(max_size)
        self.seed = int(seed)
        self._injected = 0
        self._flows = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._injected = 0
        self._flows = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        out = self._zero_delta(n)
        flows = int(self._rng.poisson(self.rate))
        if flows:
            # Inverse-CDF Pareto draw; 1 - U keeps U = 0 finite.
            u = self._rng.random(flows)
            sizes = np.minimum(
                np.floor(
                    self.min_size * (1.0 - u) ** (-1.0 / self.alpha)
                ).astype(np.int64),
                self.max_size,
            )
            nodes = self._rng.integers(0, n, size=flows)
            np.add.at(out, nodes, sizes)
            self._flows += flows
            self._injected += int(sizes.sum())
        return out

    def summary(self) -> dict:
        return {
            "tokens_arrived": self._injected,
            "flows_arrived": self._flows,
        }


@register_injector("diurnal")
class Diurnal(Injector):
    """A day/night load curve modulating Poisson arrivals.

    The base process is :class:`PoissonArrivals` with ``rate`` (scalar
    or per-node); round ``t`` scales every rate by
    ``1 + amplitude * sin(2*pi * ((t - 1) / period + phase))``, so one
    ``period`` spans a full peak-and-trough cycle and ``amplitude=1``
    swings between 0 and twice the base rate.
    """

    name = "diurnal"

    def __init__(
        self,
        rate,
        period: int = 96,
        amplitude: float = 0.8,
        phase: float = 0.0,
        seed: int = 0,
    ) -> None:
        _check_rate(rate)
        if period < 1:
            raise InvalidInjection(f"period must be >= 1, got {period}")
        if not 0 <= amplitude <= 1:
            raise InvalidInjection(
                f"amplitude must be in [0, 1], got {amplitude}"
            )
        self.rate = rate
        self.period = int(period)
        self.amplitude = float(amplitude)
        self.phase = float(phase)
        self.seed = int(seed)
        self._injected = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._lam = _rate_vector(self.rate, loads.shape[-1])
        self._injected = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        out = self._zero_delta(loads.shape[-1])
        swing = 1.0 + self.amplitude * np.sin(
            2.0 * np.pi * ((t - 1) / self.period + self.phase)
        )
        out += self._rng.poisson(np.maximum(swing, 0.0) * self._lam)
        self._injected += int(out.sum())
        return out

    def summary(self) -> dict:
        return {"tokens_arrived": self._injected}


@register_injector("hotspot_shift")
class HotspotShift(Injector):
    """``rate`` tokens per round on a rotating hot set of nodes.

    Every ``shift_every`` rounds a fresh set of ``hotspots`` nodes is
    drawn and the whole arrival rate concentrates there (split evenly,
    remainder to the first hotspots) — the shifting-skew workload that
    defeats balancers which only ever chase yesterday's hot node.

    The hot set for epoch ``e`` is a pure function of
    ``(seed, e)`` — no sequential RNG state — so the stream is
    deterministic regardless of call history.
    """

    name = "hotspot_shift"

    def __init__(
        self,
        rate: int,
        hotspots: int = 1,
        shift_every: int = 50,
        seed: int = 0,
    ) -> None:
        if rate < 0:
            raise InvalidInjection(f"rate must be >= 0, got {rate}")
        if hotspots < 1:
            raise InvalidInjection(
                f"hotspots must be >= 1, got {hotspots}"
            )
        if shift_every < 1:
            raise InvalidInjection(
                f"shift_every must be >= 1, got {shift_every}"
            )
        self.rate = int(rate)
        self.hotspots = int(hotspots)
        self.shift_every = int(shift_every)
        self.seed = int(seed)
        self._injected = 0
        self._epochs_seen = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._injected = 0
        self._epochs_seen = 0
        self._epoch = -1
        self._hot: np.ndarray | None = None

    def _hot_set(self, epoch: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(
            [self.seed, _HOTSPOT_STREAM, epoch]
        )
        return rng.choice(n, size=min(self.hotspots, n), replace=False)

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        epoch = (t - 1) // self.shift_every
        if epoch != self._epoch:
            self._epoch = epoch
            self._hot = self._hot_set(epoch, n)
            self._epochs_seen += 1
        out = self._zero_delta(n)
        k = self._hot.shape[0]
        out[self._hot] = self.rate // k
        out[self._hot[: self.rate % k]] += 1
        self._injected += self.rate
        return out

    def summary(self) -> dict:
        return {
            "tokens_arrived": self._injected,
            "hotspot_epochs": self._epochs_seen,
        }


@register_injector("correlated_burst")
class CorrelatedBurst(Injector):
    """Synchronized multi-node spikes (incast / thundering herd).

    Each round, with probability ``probability``, a burst fires:
    ``nodes`` distinct random nodes *simultaneously* receive
    ``tokens`` each.  Between bursts the stream is silent, so all
    injected load arrives in correlated shocks — the failure mode that
    per-node smoothing assumptions miss.
    """

    name = "correlated_burst"

    def __init__(
        self,
        tokens: int,
        nodes: int = 4,
        probability: float = 0.05,
        seed: int = 0,
    ) -> None:
        if tokens < 0:
            raise InvalidInjection(
                f"tokens must be >= 0, got {tokens}"
            )
        if nodes < 1:
            raise InvalidInjection(f"nodes must be >= 1, got {nodes}")
        if not 0 <= probability <= 1:
            raise InvalidInjection(
                f"probability must be in [0, 1], got {probability}"
            )
        self.tokens = int(tokens)
        self.nodes = int(nodes)
        self.probability = float(probability)
        self.seed = int(seed)
        self._injected = 0
        self._bursts = 0

    def start(self, graph, loads: np.ndarray) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._injected = 0
        self._bursts = 0

    def delta(self, t: int, loads: np.ndarray) -> np.ndarray:
        n = loads.shape[-1]
        out = self._zero_delta(n)
        if self._rng.random() < self.probability:
            chosen = self._rng.choice(
                n, size=min(self.nodes, n), replace=False
            )
            out[chosen] = self.tokens
            self._bursts += 1
            self._injected += self.tokens * chosen.shape[0]
        return out

    def summary(self) -> dict:
        return {
            "tokens_arrived": self._injected,
            "bursts_fired": self._bursts,
        }
