"""Deterministic fault injection keyed on operation identity.

A :class:`FaultPlan` decides, as a pure function of ``(plan seed, operation
identity, attempt)``, whether an operation fails and how -- the same keyed
RNG discipline :func:`repro.analysis.evaluation.lane_generators` uses for
lane randomness (``default_rng([seed, domain, ...])``), so a chaos run is
reproducible: the same plan against the same workload injects the same
faults, every time, on any machine.

Four injection sites exist today:

* **worker chunks** -- :meth:`FaultPlan.chunk_directive` decides whether a
  chunk dispatch crashes (raise :class:`InjectedFault`, or hard-kill the
  worker process with ``os._exit`` when ``hard_crash``), hangs (sleep past
  the parent's chunk timeout) or returns slow.  The decision is made in the
  *parent* and shipped to the worker as a picklable
  :class:`ChunkDirective`, which the worker executes before rolling
  (:func:`apply_chunk_directive`) -- workers never need the plan itself.
* **cache reads** -- :meth:`FaultPlan.corrupts_cache_read` makes a payload
  arrive truncated (:meth:`FaultPlan.truncate`), exercising the cache's
  evict-and-re-roll path.
* **connections** -- :meth:`FaultPlan.drops_connection` closes an accepted
  connection before it is served, exercising the server's accept-failure
  accounting (the server must survive; other connections must be
  unaffected).  stdin/stdout is connection 0.
* **frames** -- :meth:`FaultPlan.corrupts_frame` truncates one JSONL
  request frame of one connection mid-flight
  (:meth:`FaultPlan.mangle_line`): the frame errors, the connection and
  the server live on.

Faults inject only on the first ``faulted_attempts`` tries of an operation
(first ``faulted_reads`` reads of a cache key), so a plan with rate 1.0
injects exactly one failure per operation and recovery is guaranteed to
converge; raise the budget to model a persistent failure and exercise the
retries-exhausted path instead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["FaultPlan", "ChunkDirective", "InjectedFault", "apply_chunk_directive"]

# Domain codes keep the decision streams of the injection sites disjoint,
# exactly like the 1/2 codes splitting env from feedback streams in
# ``lane_generators``.  The values are allocated from the tree-wide domain
# registry (docs/contracts.md, RNG-PROVENANCE): 1/2 are the evaluation lane
# streams, 3/4 the pipeline jitter streams, 5 the oracle episodes -- fault
# decisions own 6-9 and 13/14 so no fault stream can unify with a simulation
# stream even for an adversarial seed choice.  10 (a retired request-line
# fault) stays unallocated; 11/12 belong to the fleet-bench workload streams.
_DOMAIN_CRASH = 6
_DOMAIN_HANG = 7
_DOMAIN_SLOW = 8
_DOMAIN_CACHE = 9
_DOMAIN_CONNECTION = 13
_DOMAIN_FRAME = 14


class InjectedFault(RuntimeError):
    """A failure injected by a :class:`FaultPlan` (simulates a worker crash).

    Raised inside a pool worker and pickled back to the parent, where the
    retry loop treats it -- like a chunk timeout -- as *transient*: retry,
    don't propagate.  Genuine exceptions from evaluation code are not
    retried; a deterministic bug re-raised three times is still the same
    bug, and hiding it behind retries would only slow the crash down.
    """


@dataclass(frozen=True)
class ChunkDirective:
    """One chunk attempt's injected behaviour, decided parent-side.

    ``kind`` is ``"crash"``, ``"hang"`` or ``"slow"``; ``seconds`` is the
    sleep for hang/slow; ``hard`` upgrades a crash from a raised
    :class:`InjectedFault` to ``os._exit`` -- a real worker-process death,
    which only a chunk timeout (not an exception) can detect.
    """

    kind: str
    seconds: float = 0.0
    hard: bool = False


def apply_chunk_directive(directive: ChunkDirective) -> None:
    """Execute one directive worker-side, before the chunk rolls."""
    if directive.kind == "crash":
        if directive.hard:
            os._exit(17)  # no cleanup, no exception: a genuine process death
        raise InjectedFault("injected worker crash")
    # "hang" and "slow" differ only in whether the parent's chunk timeout
    # fires first; both are just a sleep here.
    time.sleep(directive.seconds)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic plan of injected failures.

    Rates are per-operation probabilities evaluated on keyed RNG streams:
    ``default_rng([seed, domain, *identity, attempt]).random() < rate``.
    Identity-keyed (not draw-order-keyed) decisions mean the plan does not
    care how many operations run or in what order -- the operation either
    faults under this plan or it does not, reproducibly.
    """

    seed: int
    crash_rate: float = 0.0
    hard_crash: bool = False
    hang_rate: float = 0.0
    hang_seconds: float = 3600.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.05
    cache_corrupt_rate: float = 0.0
    connection_drop_rate: float = 0.0
    frame_corrupt_rate: float = 0.0
    faulted_attempts: int = 1
    faulted_reads: int = 1

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in (
            "crash_rate", "hang_rate", "slow_rate", "cache_corrupt_rate",
            "connection_drop_rate", "frame_corrupt_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.faulted_attempts < 0 or self.faulted_reads < 0:
            raise ValueError("fault budgets must be >= 0")

    # -- keyed decisions -------------------------------------------------------

    def _roll(self, domain: int, *key: int) -> float:
        return float(np.random.default_rng([self.seed, domain, *key]).random())

    def chunk_directive(
        self, chunk_key: tuple[int, ...], attempt: int
    ) -> ChunkDirective | None:
        """The injected behaviour of one chunk attempt, or ``None``.

        ``chunk_key`` identifies the chunk (evaluation seed, first global
        lane, lane count); ``attempt`` is the dispatch attempt, so retries
        re-decide.  Crash outranks hang outranks slow when several rates
        fire on the same key.
        """
        if attempt >= self.faulted_attempts:
            return None
        if self._roll(_DOMAIN_CRASH, *chunk_key, attempt) < self.crash_rate:
            return ChunkDirective("crash", hard=self.hard_crash)
        if self._roll(_DOMAIN_HANG, *chunk_key, attempt) < self.hang_rate:
            return ChunkDirective("hang", seconds=self.hang_seconds)
        if self._roll(_DOMAIN_SLOW, *chunk_key, attempt) < self.slow_rate:
            return ChunkDirective("slow", seconds=self.slow_seconds)
        return None

    def corrupts_cache_read(self, key: str, read_index: int) -> bool:
        """Whether the ``read_index``-th read of cache entry ``key`` arrives
        truncated.  Keys are hex digests; the first 16 hex chars seed the
        decision stream."""
        if read_index >= self.faulted_reads:
            return False
        ident = int(key[:16], 16) if key else 0
        return self._roll(_DOMAIN_CACHE, ident, read_index) < self.cache_corrupt_rate

    def drops_connection(self, connection: int) -> bool:
        """Whether the ``connection``-th accepted connection is dropped at
        accept (closed before a single frame is read).  Connections do not
        retry, so the decision is unbudgeted -- like frames."""
        return self._roll(_DOMAIN_CONNECTION, connection) < self.connection_drop_rate

    def corrupts_frame(self, connection: int, frame: int) -> bool:
        """Whether frame ``frame`` of connection ``connection`` arrives
        mangled (:meth:`mangle_line`); keyed per connection so one noisy
        link does not decide for its neighbours."""
        return self._roll(_DOMAIN_FRAME, connection, frame) < self.frame_corrupt_rate

    # -- fault payload transforms ----------------------------------------------

    @staticmethod
    def truncate(payload: bytes) -> bytes:
        """A mid-write truncation: the first third of the payload."""
        return payload[: len(payload) // 3]

    @staticmethod
    def mangle_line(line: str) -> str:
        """A half-received request line (always invalid JSON for real
        requests: the opening brace survives, the closing one does not)."""
        return line[: max(1, len(line) // 2)]
