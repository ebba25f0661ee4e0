"""Execution backends as registry plugins.

``repro.engines`` owns *how* a round's arrays move — the round executor
(:class:`~repro.scenarios.batch.BatchRunner`, and its 1-replica view
:class:`~repro.core.engine.Simulator`) delegates the per-round
computation to a registered :class:`EngineBackend` and keeps everything
else (validation, conservation, probes, faults, churn).  See
:mod:`repro.engines.base` for the backend contract and the built-in
modules for the three shipped backends:

======================  ==========  ========================================
name                    protocol    kernel
======================  ==========  ========================================
``dense``               dense       numpy gather (universal fallback)
``structured``          structured  numpy matrix-free, every round one
                                    CSR gather (auto fast path)
``partitioned``         structured  k partitions x worker processes + shm
======================  ==========  ========================================

``engine="auto"`` is a selection policy, not a backend: it picks
``structured`` when the balancer and the attached observers allow it
and ``dense`` otherwise, exactly as before the registry existed.

Engine specs accept constructor params via the shared shorthand
grammar — ``engine='partitioned:{"workers": 4}'`` anywhere an engine
name is accepted (Scenario JSON, the CLI, runner constructors).
"""

from repro.engines.base import (
    DENSE,
    ENGINES,
    STRUCTURED,
    EngineBackend,
    create_engine,
    engine_names,
    register_engine,
    split_engine_spec,
)
from repro.engines import builtin as _builtin  # noqa: F401 (registers)
from repro.engines import partitioned as _partitioned  # noqa: F401

__all__ = [
    "DENSE",
    "ENGINES",
    "STRUCTURED",
    "EngineBackend",
    "create_engine",
    "engine_names",
    "register_engine",
    "split_engine_spec",
]
