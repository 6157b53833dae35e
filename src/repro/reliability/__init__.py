"""Reliability substrate: deterministic fault injection, retries, health.

The serving and sharded-evaluation tiers promise that a worker crash, a
truncated cache entry or a malformed request frame degrades a *request*, not
the process -- and that whatever recovers is byte-identical to a fault-free
run.  Promises like that rot unless every failure mode is exercised by a
reproducible test, so this package provides three small pieces:

* :mod:`repro.reliability.faults` -- :class:`FaultPlan`, a seeded plan of
  injected failures keyed on operation identity (the same ``[seed, ...]``
  keying discipline as ``lane_generators``), so a chaos run is exactly as
  deterministic as the evaluation it perturbs;
* :mod:`repro.reliability.retry` -- :class:`RetryPolicy`, capped exponential
  backoff shared by the worker pool and the serving tier;
* :mod:`repro.reliability.health` -- :class:`HealthCounters` (retries,
  respawns, timeouts, degradations) and :class:`PoolUnhealthy`,
  the signal that a pool exhausted its retries and callers should degrade.

Nothing here rolls episodes: the recovery paths live in
:mod:`repro.analysis.parallel` (per-chunk retry + pool respawn) and
:mod:`repro.serving` (deadlines, admission control, pooled -> in-process
degradation); ``tests/test_reliability.py`` locks the contracts down.
"""

from repro.reliability.faults import (
    ChunkDirective,
    FaultPlan,
    InjectedFault,
    apply_chunk_directive,
)
from repro.reliability.health import HealthCounters, PoolUnhealthy
from repro.reliability.retry import RetryPolicy

__all__ = [
    "ChunkDirective",
    "FaultPlan",
    "InjectedFault",
    "apply_chunk_directive",
    "HealthCounters",
    "PoolUnhealthy",
    "RetryPolicy",
]
