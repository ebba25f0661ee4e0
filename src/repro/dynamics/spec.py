"""Declarative dynamic-workload specifications.

:class:`DynamicsSpec` is the injector counterpart of
:class:`~repro.scenarios.spec.LoadSpec`: a registered injector by name
plus construction parameters, round-tripping through JSON (scenario
files, ``repro-lb simulate --inject``) and building fresh
:class:`~repro.dynamics.injectors.Injector` instances per replica.  If
the params include a ``seed``, replica ``r`` is built with ``seed + r``
so replicas see independent — and batch-size-independent — event
streams, exactly like seeded load specs.  The shared machinery lives in
:class:`repro.specs.RegistrySpec`.
"""

from __future__ import annotations

from repro.dynamics.injectors import INJECTORS, Injector
from repro.specs import RegistrySpec


class DynamicsSpec(RegistrySpec):
    """A registered injector by name plus construction parameters."""

    registry = INJECTORS
    instance_type = Injector
    kind = "injector"

