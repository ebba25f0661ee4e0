"""Fault injection: per-round network-fault schedules and their specs.

The network adversary complementing :mod:`repro.dynamics`: link
failures, node crash/recover epochs, and in-flight message drops, all
declarative (:class:`FaultSpec`), seeded with the replica-offset
discipline, and executed bit-identically by the dense, structured, and
batched engines (see :mod:`repro.faults.schedules` for the model).
"""

from repro.faults.schedules import (
    FAULTS,
    FaultSchedule,
    InvalidFault,
    LinkFailures,
    MessageDrop,
    NodeCrashes,
    RoundFaults,
    apply_round_faults,
    dense_port_values,
    register_fault,
    structured_port_values,
    validate_round_faults,
)
from repro.faults.spec import FaultSpec

__all__ = [
    "FAULTS",
    "register_fault",
    "FaultSchedule",
    "FaultSpec",
    "InvalidFault",
    "RoundFaults",
    "LinkFailures",
    "NodeCrashes",
    "MessageDrop",
    "apply_round_faults",
    "dense_port_values",
    "structured_port_values",
    "validate_round_faults",
]
