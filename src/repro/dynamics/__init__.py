"""Dynamic workloads: per-round load injection and churn.

The static model balances a fixed vector; this package adds the
*dynamic* workload class — an :class:`Injector` emits an integer delta
at the beginning of every round (arrivals positive, departures
negative) and the engines apply it before the balancing step.  See
:mod:`repro.dynamics.injectors` for the round semantics and the
built-in injectors (``constant_rate``, ``batch_arrivals``,
``adversarial_peak``, ``random_churn``, ``scripted``) and
:mod:`repro.dynamics.spec` for the declarative
:class:`DynamicsSpec` used by scenario JSON and the CLI.  The
datacenter arrival processes (``poisson_arrivals``, ``pareto_flows``,
``diurnal``, ``hotspot_shift``, ``correlated_burst``) live in
:mod:`repro.traffic` and register here on import.
"""

from repro.dynamics.injectors import (
    INJECTORS,
    AdversarialPeak,
    BatchArrivals,
    ConstantRate,
    Injector,
    RandomChurn,
    Scripted,
    register_injector,
    validate_delta,
)
from repro.dynamics.spec import DynamicsSpec

__all__ = [
    "Injector",
    "INJECTORS",
    "register_injector",
    "validate_delta",
    "ConstantRate",
    "BatchArrivals",
    "AdversarialPeak",
    "RandomChurn",
    "Scripted",
    "DynamicsSpec",
]

# Registers the datacenter traffic generators in INJECTORS so any
# importer of repro.dynamics (scenario runner, CLI, exec workers) sees
# them without a separate import.  Plain ``import`` (not ``from``) is
# deliberate: it tolerates partially initialized parents during
# circular startup.
import repro.traffic  # noqa: E402,F401
