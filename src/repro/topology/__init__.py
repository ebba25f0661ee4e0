"""Dynamic-topology subsystem: per-round graph churn schedules.

See :mod:`repro.topology.schedules` for the schedule protocol and the
built-in schedules (``edge_churn``, ``node_join_leave``,
``expander_rewire``, ``scripted``), and :mod:`repro.topology.spec` for
the declarative JSON/CLI spec layer.
"""

from repro.topology.schedules import (
    TOPOLOGIES,
    EdgeChurn,
    ExpanderRewire,
    InvalidTopology,
    NodeJoinLeave,
    ScriptedTopology,
    TopologyEvents,
    TopologySchedule,
    apply_topology_events,
    register_topology,
    validate_topology_events,
)
from repro.topology.spec import TopologySpec

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
    "TopologySpec",
    "apply_topology_events",
    "validate_topology_events",
]
