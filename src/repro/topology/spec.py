"""Declarative topology-schedule specifications.

:class:`TopologySpec` is the topology counterpart of
:class:`~repro.dynamics.spec.DynamicsSpec` and
:class:`~repro.faults.spec.FaultSpec`: a registered topology schedule
by name plus construction parameters, round-tripping through JSON
(scenario files, ``repro-lb simulate --topology``) and building fresh
:class:`~repro.topology.schedules.TopologySchedule` instances per
replica.  If the params include a ``seed``, replica ``r`` is built with
``seed + r`` so replicas see independent — and batch-size-independent —
churn histories, exactly like seeded load specs, injectors, and fault
schedules.  The shared machinery lives in
:class:`repro.specs.RegistrySpec`.
"""

from __future__ import annotations

from repro.specs import RegistrySpec
from repro.topology.schedules import TOPOLOGIES, TopologySchedule


class TopologySpec(RegistrySpec):
    """A registered topology schedule by name plus construction params."""

    registry = TOPOLOGIES
    instance_type = TopologySchedule
    kind = "topology"

