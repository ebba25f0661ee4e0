"""Initial load-vector generators.

The paper's results are parameterized by the initial discrepancy
``K = max x₁ - min x₁``; these helpers build the standard workloads used
throughout the experiments, all returning validated ``int64`` vectors.

Every generator is registered in :data:`LOAD_SPECS` under its function
name, so scenario specs (:class:`repro.scenarios.LoadSpec`) can refer to
workloads declaratively.  Custom workloads plug in the same way::

    from repro.core.loads import register_load_spec

    @register_load_spec("my_workload")
    def my_workload(n: int, *, seed: int = 0) -> np.ndarray:
        ...

Registered generators take ``n`` (number of nodes) first; seeded ones
take a ``seed`` parameter, which batch replicas offset for independent
samples.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.core.errors import InvalidInjection, InvalidLoadVector
from repro.registry import Registry

#: Named initial-load distributions available to scenario specs.
LOAD_SPECS: Registry = Registry("load spec")

#: Decorator registering a load generator: ``@register_load_spec(name)``.
register_load_spec = LOAD_SPECS.register


def validate_loads(loads: np.ndarray, *, allow_negative: bool = False) -> np.ndarray:
    """Validate and normalize a load vector to contiguous ``int64``."""
    loads = np.ascontiguousarray(loads)
    if loads.ndim != 1:
        raise InvalidLoadVector(
            f"load vector must be 1-dimensional, got shape {loads.shape}"
        )
    if loads.size == 0:
        raise InvalidLoadVector("load vector must be non-empty")
    if not np.issubdtype(loads.dtype, np.integer):
        if np.any(loads != np.floor(loads)):
            raise InvalidLoadVector(
                "loads must be integers (tokens are indivisible)"
            )
    loads = loads.astype(np.int64)
    if not allow_negative and loads.min() < 0:
        raise InvalidLoadVector("loads must be nonnegative")
    return loads


def validate_load_matrix(
    loads: np.ndarray, *, allow_negative: bool = False
) -> np.ndarray:
    """Validate a stacked ``(replicas, n)`` load array in one pass.

    The batch counterpart of :func:`validate_loads`: every check is a
    single vectorized operation over the whole stack (no per-row Python
    loop), and failures name the offending replica.
    """
    loads = np.ascontiguousarray(loads)
    if loads.ndim != 2:
        raise InvalidLoadVector(
            "batch initial loads must be a (replicas, n) array, got "
            f"shape {loads.shape}"
        )
    if loads.shape[0] == 0 or loads.shape[1] == 0:
        raise InvalidLoadVector(
            f"batch loads must be non-empty, got shape {loads.shape}"
        )
    if not np.issubdtype(loads.dtype, np.integer):
        fractional = loads != np.floor(loads)
        if np.any(fractional):
            replica = int(np.nonzero(fractional.any(axis=1))[0][0])
            raise InvalidLoadVector(
                f"replica {replica}: loads must be integers "
                "(tokens are indivisible)"
            )
    loads = loads.astype(np.int64)
    if not allow_negative and loads.min() < 0:
        replica = int(np.nonzero((loads < 0).any(axis=1))[0][0])
        raise InvalidLoadVector(
            f"replica {replica}: loads must be nonnegative"
        )
    return loads


def validate_delta(
    delta: np.ndarray, loads: np.ndarray, name: str, t: int
) -> np.ndarray:
    """Check a dynamic-workload delta against the injector contract.

    The engines apply injector deltas at the beginning of every round
    (see :mod:`repro.dynamics.injectors`); this is the corresponding
    engine-side validator, the delta sibling of :func:`validate_loads`:
    the delta must be an integer vector of the loads' shape and may
    never drain a node below zero.  Returns the delta as ``int64``.
    """
    delta = np.asarray(delta)
    if delta.shape != loads.shape:
        raise InvalidInjection(
            f"round {t}: injector {name!r} emitted shape {delta.shape}, "
            f"expected {loads.shape}"
        )
    # dtype.kind is np.issubdtype(dtype, np.integer) without the
    # Python-level dtype hierarchy walk (this runs every round).
    if delta.dtype.kind not in "iu":
        raise InvalidInjection(
            f"round {t}: injector {name!r} emitted dtype {delta.dtype}; "
            "deltas must be integer (tokens are indivisible)"
        )
    delta = delta.astype(np.int64, copy=False)
    # Overdraw is only possible when some entry is negative; skipping
    # the temporary ``loads + delta`` otherwise keeps arrival-only
    # injection allocation-free on the hot path.
    if delta.size and delta.min() < 0 and (loads + delta).min() < 0:
        node = int(np.argmin(loads + delta))
        raise InvalidInjection(
            f"round {t}: injector {name!r} drained node {node} below "
            f"zero ({int(loads[node])} tokens held, "
            f"{int(-delta[node])} removed)"
        )
    return delta


def _check_counts(**counts) -> None:
    """Reject a non-integer count: ``int64`` would truncate a float."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InvalidLoadVector(f"{name} must be an integer, got {value!r}")


@register_load_spec("point_mass")
def point_mass(n: int, tokens: int, node: int = 0) -> np.ndarray:
    """All ``tokens`` on a single node — initial discrepancy ``K = tokens``."""
    _check_counts(tokens=tokens, node=node)
    if not 0 <= node < n:
        raise InvalidLoadVector(f"node {node} out of range [0, {n})")
    if tokens < 0:
        raise InvalidLoadVector("tokens must be nonnegative")
    loads = np.zeros(n, dtype=np.int64)
    loads[node] = tokens
    return loads


@register_load_spec("bimodal")
def bimodal(n: int, high: int, low: int = 0) -> np.ndarray:
    """First half of the nodes at ``high``, second half at ``low``."""
    _check_counts(high=high, low=low)
    if high < low:
        raise InvalidLoadVector("high must be >= low")
    loads = np.full(n, low, dtype=np.int64)
    loads[: n // 2] = high
    return loads


@register_load_spec("uniform_random")
def uniform_random(
    n: int,
    total_tokens: int,
    seed: int,
) -> np.ndarray:
    """``total_tokens`` thrown uniformly at random onto ``n`` nodes."""
    _check_counts(total_tokens=total_tokens)
    if total_tokens < 0:
        raise InvalidLoadVector("total_tokens must be nonnegative")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(total_tokens, np.full(n, 1.0 / n))
    return counts.astype(np.int64)


@register_load_spec("balanced")
def balanced(n: int, per_node: int) -> np.ndarray:
    """Perfectly balanced vector (useful as a fixed point in tests)."""
    _check_counts(per_node=per_node)
    if per_node < 0:
        raise InvalidLoadVector("per_node must be nonnegative")
    return np.full(n, per_node, dtype=np.int64)


@register_load_spec("linear_gradient")
def linear_gradient(n: int, step: int = 1, base: int = 0) -> np.ndarray:
    """Loads ``base, base+step, ..., base+(n-1)*step`` — discrepancy ``(n-1)*step``."""
    _check_counts(step=step, base=base)
    if step < 0 or base < 0:
        raise InvalidLoadVector("step and base must be nonnegative")
    return (base + step * np.arange(n)).astype(np.int64)


@register_load_spec("random_spikes")
def random_spikes(
    n: int,
    num_spikes: int,
    spike_height: int,
    seed: int,
    base: int = 0,
) -> np.ndarray:
    """``num_spikes`` random nodes at ``base + spike_height``, rest at ``base``."""
    _check_counts(num_spikes=num_spikes, spike_height=spike_height, base=base)
    if num_spikes < 0 or num_spikes > n:
        raise InvalidLoadVector(f"num_spikes must be in [0, {n}]")
    rng = np.random.default_rng(seed)
    loads = np.full(n, base, dtype=np.int64)
    spikes = rng.choice(n, size=num_spikes, replace=False)
    loads[spikes] += spike_height
    return loads


@register_load_spec("adversarial_split")
def adversarial_split(
    n: int,
    tokens: int,
    fraction: float = 0.5,
) -> np.ndarray:
    """Two opposing point masses on nodes ``0`` and ``n // 2``.

    ``ceil(fraction * tokens)`` tokens land on node 0 and the rest on
    the antipodal index — the adversarial placement for ring-like
    topologies, maximizing the distance mass must travel.
    """
    _check_counts(tokens=tokens)
    if tokens < 0:
        raise InvalidLoadVector("tokens must be nonnegative")
    if not 0.0 <= fraction <= 1.0:
        raise InvalidLoadVector(f"fraction must be in [0, 1], got {fraction}")
    loads = np.zeros(n, dtype=np.int64)
    first = int(np.ceil(fraction * tokens))
    loads[0] = first
    loads[(n // 2) % n] += tokens - first
    return loads


@register_load_spec("skewed")
def skewed(
    n: int,
    total_tokens: int,
    alpha: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """Power-law (Zipf-like) workload: node ``i`` has weight ``(i+1)^-α``.

    ``total_tokens`` are multinomially sampled with those weights, so a
    few nodes carry most of the mass — the heavy-tailed traffic shape of
    real schedulers, between ``point_mass`` and ``uniform_random``.
    """
    _check_counts(total_tokens=total_tokens)
    if total_tokens < 0:
        raise InvalidLoadVector("total_tokens must be nonnegative")
    if alpha < 0:
        raise InvalidLoadVector(f"alpha must be nonnegative, got {alpha}")
    weights = (1.0 + np.arange(n)) ** -alpha
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(total_tokens, weights).astype(np.int64)


def initial_discrepancy(loads: np.ndarray) -> int:
    """The paper's ``K``: max minus min of the initial vector."""
    return int(loads.max() - loads.min())


def average_load(loads: np.ndarray) -> float:
    """The paper's ``x̄`` — average tokens per node."""
    return float(loads.mean())
