"""Health accounting for the pool and serving tiers."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HealthCounters", "PoolUnhealthy"]


class PoolUnhealthy(RuntimeError):
    """A pool exhausted its retry budget on at least one chunk.

    Raised by ``EvaluationPool.run_chunks_reliably`` once any chunk fails
    ``RetryPolicy.max_attempts`` times.  The serving tier catches it and
    degrades pooled dispatch to in-process continuous batching; direct
    callers of the pool see it propagate, carrying the last underlying
    failure as ``__cause__``.
    """


@dataclass
class HealthCounters:
    """Monotonic failure-handling counters, merged into ``stats()``.

    The pool owns ``retries`` / ``respawns`` / ``faults_injected``; the
    serving tier owns ``timeouts`` / ``degradations``.
    Both expose the same type so ``EvaluationService.stats()`` can merge a
    pool's counters with its own without translation.
    """

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degradations: int = 0
    faults_injected: int = 0
