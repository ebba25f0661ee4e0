"""Declarative fault-schedule specifications.

:class:`FaultSpec` is the fault counterpart of
:class:`~repro.dynamics.spec.DynamicsSpec`: a registered fault schedule
by name plus construction parameters, round-tripping through JSON
(scenario files, ``repro-lb simulate --faults``) and building fresh
:class:`~repro.faults.schedules.FaultSchedule` instances per replica.
If the params include a ``seed``, replica ``r`` is built with
``seed + r`` so replicas see independent — and batch-size-independent —
fault histories, exactly like seeded load specs and injectors.  The
shared machinery lives in :class:`repro.specs.RegistrySpec`.
"""

from __future__ import annotations

from repro.faults.schedules import FAULTS, FaultSchedule
from repro.specs import RegistrySpec


class FaultSpec(RegistrySpec):
    """A registered fault schedule by name plus construction params."""

    registry = FAULTS
    instance_type = FaultSchedule
    kind = "fault"

