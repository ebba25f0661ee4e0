"""Execution backends as registry plugins.

``repro.engines`` owns *how* a round's arrays move — the round executor
(:class:`~repro.scenarios.batch.BatchRunner`, and its 1-replica view
:class:`~repro.core.engine.Simulator`) delegates the per-round
computation to a registered :class:`EngineBackend` and keeps everything
else (validation, conservation, probes, faults, churn).  See
:mod:`repro.engines.base` for the backend contract and the built-in
module for the two shipped numpy backends:

======================  ==========  ========================================
name                    protocol    round computation
======================  ==========  ========================================
``dense``               dense       reverse-port gather (universal fallback)
``structured``          structured  matrix-free, every round one CSR
                                    gather (auto fast path)
======================  ==========  ========================================

``engine="auto"`` is a selection policy, not a backend: it picks
``structured`` when the balancer and the attached observers allow it
and ``dense`` otherwise, exactly as before the registry existed.

An engine spec is a bare registry name everywhere one is accepted
(Scenario JSON, the CLI, runner constructors); backends take no
constructor params.
"""

from repro.engines.base import (
    DENSE,
    ENGINES,
    STRUCTURED,
    EngineBackend,
    create_engine,
    engine_names,
    register_engine,
)
from repro.engines import builtin as _builtin  # noqa: F401 (registers)

__all__ = [
    "DENSE",
    "ENGINES",
    "STRUCTURED",
    "EngineBackend",
    "create_engine",
    "engine_names",
    "register_engine",
]
