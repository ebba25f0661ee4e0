"""Declarative scenario API: specs, suites, and the batch runner.

This is the system's front door: describe *what to run* — graph family,
initial workload, algorithm, stop rule, replicas — and every replica
runs in one stacked batch through the round executor.  See
:mod:`repro.scenarios.spec` for the data model and
:mod:`repro.scenarios.batch` for the executor.
"""

from repro.core.probes import ProbeSpec
from repro.core.trace import RunRecord, SamplingSchedule, Trace
from repro.dynamics.spec import DynamicsSpec
from repro.faults.spec import FaultSpec
from repro.topology.spec import TopologySpec
from repro.scenarios.batch import BatchResult, BatchRunner
from repro.scenarios.spec import (
    STOP_KINDS,
    AlgorithmSpec,
    GraphSpec,
    LoadSpec,
    Scenario,
    ScenarioResult,
    ScenarioSuite,
    StopRule,
    canonical_json,
    content_hash,
)

__all__ = [
    "canonical_json",
    "content_hash",
    "GraphSpec",
    "LoadSpec",
    "AlgorithmSpec",
    "StopRule",
    "STOP_KINDS",
    "ProbeSpec",
    "DynamicsSpec",
    "FaultSpec",
    "TopologySpec",
    "SamplingSchedule",
    "Trace",
    "RunRecord",
    "Scenario",
    "ScenarioResult",
    "ScenarioSuite",
    "BatchRunner",
    "BatchResult",
]
