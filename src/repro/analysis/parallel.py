"""Multi-process sharded fleet evaluation: the scale-out path.

:mod:`repro.analysis.evaluation` streams lane specs through one continuous
fleet of ``fleet_size`` slots (:func:`~repro.analysis.evaluation.roll_specs`).
This module lifts that roll across OS processes:
:meth:`EvaluationPool.roll_specs` splits the specs into contiguous shards,
each shard ships to a worker as a :class:`LaneChunk` of lane specs
(:class:`~repro.analysis.evaluation.LaneSpec`), and the workers execute *the
same* :func:`repro.analysis.evaluation.roll_specs` the in-process path runs.
A chunk may mix systems, layouts, seeds and frame budgets, and lane chunks
are the only work a pool does: every pool holds one policy archive.
Because every lane's randomness is keyed on its global index
(``lane_generators`` -- ``[seed, 1, lane]`` / ``[seed, 2, lane]``) and fleet
results are fleet-size invariant, the merged output is byte-identical to a
single-process run for any worker count; ``tests/test_parallel.py`` asserts
this for Tbl. 1 and the per-family matrix, and ``tests/test_differential.py``
across every entry point.

Design notes:

* **Spawn, not fork.**  Workers start from a fresh interpreter, so they
  never inherit BLAS thread pools, open file handles or module state from
  the parent -- the only inputs a worker sees are its initializer payload
  (the path of the pool's archive file, the sha256 of its bytes and a
  readiness semaphore) and its chunks, which keeps the determinism contract
  auditable.  Spawn pickles that payload into each child's start-up pipe,
  which the child reads only once its interpreter has started; a payload
  larger than the pipe would hold the parent's write, one child after the
  other, but this one fits at once, so ``Pool()`` returns at once and the
  workers start side by side.
* **Policies ship once, as a file.**  Trained policies serialize to npz
  bytes (the ``nn/serialization.py`` state-dict format) in a
  :class:`PolicyArchive`, which :class:`EvaluationPool` writes once with
  :func:`save_archive` into a pool-private temporary directory
  (``repro-pool-*``); each worker reads the file once, checks its sha256
  and restores the policies a single time, not per chunk.  npz round-trips
  float64 exactly, so worker-side inference is bitwise equal to the
  parent's.  The directory lives as long as the pool (respawned workers
  read the same file) and :meth:`EvaluationPool.close` removes it; a parent
  killed by SIGKILL leaves it behind in the temp dir.
* **Tasks travel as instruction strings.**  ``Task`` objects close over
  lambdas and cannot pickle, so a spec carries instruction strings, which
  :func:`~repro.analysis.evaluation.build_lane` looks back up in the
  worker's own registry (``task_by_instruction``).
* **Failures surface.**  A chunk that raises in a worker propagates the
  exception through ``Pool.map`` -- lanes are never silently dropped -- and
  the merge re-checks that exactly one trace list came back per lane.

The pool is cached per (policies, worker count) so every evaluation a run
makes with the same trained policies (Tbl. 1 and 2's sweeps, the family
matrix) pays the spawn cost once; :func:`lease_pool` hands the same warm
pool to long-lived callers (the :mod:`repro.serving` evaluation service
keeps one leased between requests and rolls each drain's misses through
:meth:`EvaluationPool.roll_specs`, the method :func:`run_sharded` calls).

Determinism guarantees of this module: worker-side rollouts are bitwise
equal to parent-side rollouts (spawned interpreters, npz-exact policy
round-trips, the same ``roll_specs`` code object), lane randomness is a
pure function of each spec's ``(seed, lane)``, and merges preserve spec
order -- so *any* partition of the specs across *any* number of workers
reproduces the single-process result byte for byte.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import multiprocessing
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.fleet import FleetRunner
from repro.core.runner import EpisodeTrace
from repro.nn.serialization import load_state_dict, state_dict
from repro.reliability.faults import (
    ChunkDirective,
    FaultPlan,
    InjectedFault,
    apply_chunk_directive,
)
from repro.reliability.health import HealthCounters, PoolUnhealthy
from repro.reliability.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.analysis.evaluation import LaneSpec, TrainedPolicies

__all__ = [
    "PolicyArchive",
    "LaneChunk",
    "EvaluationPool",
    "archive_policies",
    "restore_policies",
    "save_archive",
    "load_archive",
    "lease_pool",
    "release_pool",
    "shard_lanes",
    "run_sharded",
    "shutdown_pools",
]

# Worker-side failures the retry loop treats as transient: an injected crash,
# a chunk timeout (the only way a hard worker death is observable -- the pool
# repopulates the process but the dispatched task is simply lost), and the
# IPC errors a dying worker leaves behind on the result pipe.  Anything else
# is a genuine bug in evaluation code and propagates unchanged -- retrying a
# deterministic exception just re-raises it more slowly.
_TRANSIENT_IPC_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError)


# -- policy shipment -----------------------------------------------------------


@dataclass(frozen=True)
class PolicyArchive:
    """Trained policies serialized once for shipment to every worker.

    ``baseline_npz`` / ``corki_npz`` hold each policy's full state dict as
    npz bytes (the :mod:`repro.nn.serialization` format -- float64
    round-trips exactly, which is what makes worker-side inference bitwise
    equal to the parent's).  ``normalizer_scale`` is the shared
    :class:`~repro.sim.dataset.ActionNormalizer` scale vector as npy bytes.
    ``token_dim`` / ``hidden_dim`` let :func:`restore_policies` rebuild
    modules of the right shape before loading, and ``demos_per_task`` /
    ``epochs`` carry the training metadata through so a restored
    :class:`~repro.analysis.evaluation.TrainedPolicies` is indistinguishable
    from the original.  The archive bytes are also the content the serving
    layer's cache keys hash (:func:`repro.serving.cache.policy_digest`):
    any weight change changes the digest.
    """

    baseline_npz: bytes
    corki_npz: bytes
    normalizer_scale: bytes
    token_dim: int
    hidden_dim: int
    demos_per_task: int
    epochs: int


def _module_npz(module) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **state_dict(module))
    return buffer.getvalue()


def _load_module_npz(module, payload: bytes) -> None:
    with np.load(io.BytesIO(payload)) as archive:
        load_state_dict(module, dict(archive.items()))


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def archive_policies(policies) -> PolicyArchive:
    """Serialize a :class:`TrainedPolicies` pair to one picklable payload.

    The archive holds one action scale, which :func:`restore_policies`
    installs on both policies; a pair whose normalizers differ (each
    trainer fits its own) raises ``ValueError`` instead of restoring --
    and digesting -- as a pair it is not.
    """
    scale = _npy(policies.baseline.normalizer.scale)
    if _npy(policies.corki.normalizer.scale) != scale:
        raise ValueError(
            "baseline and Corki normalizer scales differ; a policy archive "
            "stores one shared scale, so train both policies on the same "
            "demonstrations"
        )
    return PolicyArchive(
        baseline_npz=_module_npz(policies.baseline),
        corki_npz=_module_npz(policies.corki),
        normalizer_scale=scale,
        token_dim=policies.baseline.token_dim,
        hidden_dim=policies.baseline.hidden_dim,
        demos_per_task=policies.demos_per_task,
        epochs=policies.epochs,
    )


def restore_policies(archive: PolicyArchive):
    """Reconstruct the trained policies from an archive (worker side)."""
    from repro.analysis.evaluation import TrainedPolicies
    from repro.core.policy import BaselinePolicy, CorkiPolicy
    from repro.sim.camera import OBSERVATION_DIM
    from repro.sim.dataset import ActionNormalizer
    from repro.sim.tasks import TASKS

    # The init weights are irrelevant -- load_state_dict overwrites every
    # parameter, and it raises on any missing/mis-shaped entry.
    # repro: allow[RNG-KEYED] reason=throwaway init weights; load_state_dict overwrites every parameter
    rng = np.random.default_rng(0)
    baseline = BaselinePolicy(
        OBSERVATION_DIM, len(TASKS), rng,
        token_dim=archive.token_dim, hidden_dim=archive.hidden_dim,
    )
    corki = CorkiPolicy(
        OBSERVATION_DIM, len(TASKS), rng,
        token_dim=archive.token_dim, hidden_dim=archive.hidden_dim,
    )
    _load_module_npz(baseline, archive.baseline_npz)
    _load_module_npz(corki, archive.corki_npz)
    scale = np.load(io.BytesIO(archive.normalizer_scale))
    baseline.set_normalizer(ActionNormalizer(scale))
    corki.set_normalizer(ActionNormalizer(scale))
    return TrainedPolicies(baseline, corki, archive.demos_per_task, archive.epochs)


_ARCHIVE_SCHEMA = "repro-policy-archive/1"


def save_archive(path, archive: PolicyArchive):
    """Persist one :class:`PolicyArchive` as a single npz file (atomic).

    This is the on-disk shape the serving tier's hot-reload op loads
    (``{"op": "reload", "archive": PATH}``): the exact bytes
    :func:`archive_policies` produced, wrapped as uint8 arrays, so
    ``restore_policies(load_archive(path))`` reproduces the trained pair --
    and therefore its :func:`~repro.serving.cache.policy_digest` -- exactly.
    """
    from repro.atomicio import atomic_savez

    return atomic_savez(
        path,
        schema=np.array(_ARCHIVE_SCHEMA),
        baseline_npz=np.frombuffer(archive.baseline_npz, dtype=np.uint8),
        corki_npz=np.frombuffer(archive.corki_npz, dtype=np.uint8),
        normalizer_scale=np.frombuffer(archive.normalizer_scale, dtype=np.uint8),
        dims=np.array([
            archive.token_dim, archive.hidden_dim,
            archive.demos_per_task, archive.epochs,
        ], dtype=int),
    )


def load_archive(path) -> PolicyArchive:
    """Inverse of :func:`save_archive`; raises on any malformed file."""
    with np.load(path) as data:
        if "schema" not in data.files or str(data["schema"]) != _ARCHIVE_SCHEMA:
            raise ValueError(f"{path} is not a {_ARCHIVE_SCHEMA} policy archive")
        dims = [int(value) for value in data["dims"]]
        return PolicyArchive(
            baseline_npz=data["baseline_npz"].tobytes(),
            corki_npz=data["corki_npz"].tobytes(),
            normalizer_scale=data["normalizer_scale"].tobytes(),
            token_dim=dims[0],
            hidden_dim=dims[1],
            demos_per_task=dims[2],
            epochs=dims[3],
        )


# -- chunk specifications ------------------------------------------------------


@dataclass(frozen=True)
class LaneChunk:
    """One worker's share of a roll: lane specs, streamed by ``roll_specs``
    through ``fleet_size`` slots.

    The specs may mix systems, layouts, seeds and frame budgets.  Each
    carries its global lane index, on which its randomness keys, so how the
    specs are sliced never changes a lane's bytes.
    """

    specs: tuple[LaneSpec, ...]
    fleet_size: int


# -- worker side ---------------------------------------------------------------

_WORKER_POLICIES: TrainedPolicies | None = None

# Why this worker's initializer could not restore the pool's archive; every
# chunk raises it.  The initializer itself never raises: a raising
# initializer kills its worker, and ``multiprocessing.Pool`` starts a
# replacement that fails the same way, forever.
_WORKER_ERROR: str | None = None


def _read_archive(path: str, digest: str) -> PolicyArchive:
    """Read the pool's archive file once and check it is the file written."""
    with open(path, "rb") as handle:
        payload = handle.read()
    found = hashlib.sha256(payload).hexdigest()
    if found != digest:
        raise ValueError(
            f"{path} has sha256 {found}, but the pool wrote sha256 {digest}"
        )
    return load_archive(io.BytesIO(payload))


def _init_worker(path: str, digest: str, ready) -> None:
    """Pool initializer: restore the pool's policy archive exactly once.

    A failure is stored for the worker's chunks to raise.  ``ready`` is
    released in every case; :meth:`EvaluationPool.warm_up` waits on it.
    """
    global _WORKER_POLICIES, _WORKER_ERROR
    try:
        _WORKER_POLICIES = restore_policies(_read_archive(path, digest))
    except Exception as exc:  # the worker must live; its chunks raise this
        _WORKER_ERROR = (
            f"pool worker could not restore the policy archive: "
            f"{type(exc).__name__}: {exc}"
        )
    finally:
        ready.release()


def _run_lane_chunk(chunk: LaneChunk) -> list[list[EpisodeTrace]]:
    from repro.analysis.evaluation import roll_specs

    if _WORKER_ERROR is not None:
        raise RuntimeError(_WORKER_ERROR)
    runner = FleetRunner(_WORKER_POLICIES.baseline, _WORKER_POLICIES.corki)
    return roll_specs(runner, chunk.specs, chunk.fleet_size)


def _run_faulted_chunk(
    payload: tuple[LaneChunk, ChunkDirective],
) -> list[list[EpisodeTrace]]:
    """Execute an injected fault, then roll the chunk normally.

    The parent decides the directive (it owns the :class:`FaultPlan`), so the
    worker only replays it: crash/hang/slow first, then -- if the directive
    let it live -- the exact same ``_run_lane_chunk`` a fault-free dispatch
    runs, which is what keeps recovered traces byte-identical.
    """
    chunk, directive = payload
    apply_chunk_directive(directive)
    return _run_lane_chunk(chunk)


# -- parent side ---------------------------------------------------------------


def _chunk_fault_key(chunk: LaneChunk) -> tuple[int, int, int]:
    """A :class:`FaultPlan` identity for one chunk: (first spec's seed, first
    spec's global lane, lane count).  Stable across retries and across how
    the parent happened to order its dispatches, so the same plan faults the
    same chunk every run."""
    first = chunk.specs[0]
    return (first.seed, first.lane, len(chunk.specs))


class EvaluationPool:
    """A warm spawn-context worker pool bound to one set of policies.

    The archive is written once, into a pool-private temporary directory,
    and workers restore it from that file in their initializer, so
    dispatching a chunk costs only the chunk's own pickling.  Use as a
    context manager, or rely on the module-level cache (:func:`run_sharded`)
    which keeps one pool alive per (policies, worker count); either way
    :meth:`close` removes the directory.

    Dispatch is fault-tolerant: :meth:`run_chunks_reliably` retries
    transient chunk failures (injected crashes, chunk timeouts, IPC errors
    from a dying worker) with capped exponential backoff, respawning the
    whole pool when a worker process actually died, and re-dispatching only
    the failed chunks.  Because a chunk's lane randomness is keyed on global
    lane indices -- never on which attempt or which worker rolled it -- a
    re-rolled chunk is byte-identical to a first-try roll, so recovery
    preserves the module's merge contract.  ``health`` counts retries,
    respawns and injected faults for ``stats()`` reporting.
    """

    def __init__(self, archive: PolicyArchive, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.health = HealthCounters()
        directory = tempfile.mkdtemp(prefix="repro-pool-")
        # Runs on close(), on garbage collection or at exit, whichever comes
        # first, and only once.
        self._remove_archive = weakref.finalize(
            self, shutil.rmtree, directory, ignore_errors=True
        )
        path = save_archive(os.path.join(directory, "policies.npz"), archive)
        with open(path, "rb") as handle:
            self._digest = hashlib.sha256(handle.read()).hexdigest()
        self._archive_path = str(path)
        self._spawn()

    def _spawn(self) -> None:
        """Start the workers.  Each reads the archive file in its
        initializer and then releases ``_ready`` once."""
        context = multiprocessing.get_context("spawn")
        self._ready = context.Semaphore(0)
        self._warm = False
        self._pool = context.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(self._archive_path, self._digest, self._ready),
        )

    def respawn(self) -> None:
        """Replace the worker processes wholesale (after a worker death).

        ``terminate`` rather than a graceful close: a pool that lost a
        worker mid-task can hold results that will never arrive, and the
        tasks it was running are re-dispatched by the caller anyway.  The
        new workers restore from the same archive file.
        """
        self._pool.terminate()
        self._pool.join()
        self._spawn()
        self.health.respawns += 1

    def warm_up(self) -> None:
        """Wait until every worker has started and restored the archive.

        Each worker's initializer releases the pool's readiness semaphore
        once, after its restore -- or after storing why the restore failed,
        which the worker's first chunk then raises.  This takes one signal
        per worker, then records the pool as warm, so a later call (a
        second lease of the cached pool) returns at once; :meth:`respawn`
        clears the record.  Like ``Pool.map`` it blocks without a timeout.
        Benchmarks call this (plus a small real rollout per worker) so the
        timed region measures chunk execution, not interpreter start-up.
        """
        if self._warm:
            return
        for _ in range(self.workers):
            self._ready.acquire()
        self._warm = True

    def _dispatch(self, chunk: LaneChunk, attempt: int, fault_plan: FaultPlan | None):
        """Queue one chunk attempt, injecting the plan's directive if any."""
        if fault_plan is not None:
            directive = fault_plan.chunk_directive(_chunk_fault_key(chunk), attempt)
            if directive is not None:
                self.health.faults_injected += 1
                return self._pool.apply_async(_run_faulted_chunk, ((chunk, directive),))
        return self._pool.apply_async(_run_lane_chunk, (chunk,))

    def run_chunks_reliably(
        self,
        chunks: Sequence[LaneChunk],
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        chunk_timeout: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> list[list[list[EpisodeTrace]]]:
        """Execute lane chunks with per-chunk retry and pool respawn.

        Every pending chunk is dispatched asynchronously, then collected;
        a chunk whose failure is transient (injected crash, result timeout,
        IPC error) is queued for the next round, after a capped-exponential
        backoff and -- when the failure implies a dead worker process -- a
        full pool respawn.  Only failed chunks re-dispatch; completed
        results are kept, and the return is in ``chunks`` order regardless
        of which attempt produced each entry.  ``chunk_timeout`` (seconds)
        is what makes a *hard* worker death detectable: the pool repopulates
        the process but the task's result is lost, so only the deadline
        expiring tells the parent to re-dispatch.  Without a timeout, hard
        deaths hang exactly as they always did.

        Raises :class:`PoolUnhealthy` (chaining the last underlying failure)
        once any chunk exhausts ``retry.max_attempts``; deterministic worker
        exceptions propagate immediately, unretried.
        """
        retry = retry if retry is not None else RetryPolicy()
        chunk_list = list(chunks)
        results: list = [None] * len(chunk_list)
        attempts = [0] * len(chunk_list)
        pending = list(range(len(chunk_list)))
        while pending:
            handles = [
                (index, self._dispatch(chunk_list[index], attempts[index], fault_plan))
                for index in pending
            ]
            failed: list[int] = []
            respawn_needed = False
            last_failure: BaseException | None = None
            for index, handle in handles:
                try:
                    results[index] = handle.get(chunk_timeout)
                except InjectedFault as exc:
                    # The worker raised and survived; no respawn needed.
                    failed.append(index)
                    last_failure = exc
                except multiprocessing.TimeoutError as exc:
                    failed.append(index)
                    last_failure = exc
                    respawn_needed = True
                except _TRANSIENT_IPC_ERRORS as exc:
                    failed.append(index)
                    last_failure = exc
                    respawn_needed = True
            if not failed:
                break
            for index in failed:
                attempts[index] += 1
                if attempts[index] >= retry.max_attempts:
                    raise PoolUnhealthy(
                        f"chunk {_chunk_fault_key(chunk_list[index])} failed "
                        f"{attempts[index]} times (retry budget exhausted)"
                    ) from last_failure
            self.health.retries += len(failed)
            if respawn_needed:
                self.respawn()
            delay = retry.delay(max(attempts[index] for index in failed) - 1)
            if delay > 0:
                sleep(delay)
            pending = failed
        return results

    def roll_specs(
        self,
        specs: Sequence[LaneSpec],
        fleet_size: int,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        chunk_timeout: float | None = None,
    ) -> list[list[EpisodeTrace]]:
        """Roll lane specs on the workers; traces merge in spec order.

        One contiguous :class:`LaneChunk` per worker (:func:`shard_lanes`)
        goes through :meth:`run_chunks_reliably`.  Byte-identical to the
        in-process ``roll_specs``, also after injected or real worker
        crashes: a re-rolled chunk keys its randomness on the same global
        lane indices.
        """
        chunks = [
            LaneChunk(specs=tuple(specs[start:stop]), fleet_size=fleet_size)
            for start, stop in shard_lanes(len(specs), self.workers)
        ]
        results = self.run_chunks_reliably(
            chunks, retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout
        )
        merged = [lane_traces for chunk_result in results for lane_traces in chunk_result]
        if len(merged) != len(specs):
            raise RuntimeError(
                f"sharded evaluation returned {len(merged)} lanes for "
                f"{len(specs)} specs; a worker dropped lanes"
            )
        return merged

    def close(self) -> None:
        """Stop the workers and remove the archive's directory (idempotent)."""
        self._pool.terminate()
        self._pool.join()
        self._remove_archive()

    def __enter__(self) -> "EvaluationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# Cache value keeps a strong reference to the policies: the key uses their
# id(), which stays unambiguous only while the object is alive.
_POOL_CACHE: dict[tuple[int, int], tuple[object, EvaluationPool]] = {}

# Outstanding lease_pool() leases per cache key; release_pool() tears the
# pool down when the last lease returns, so a crashed service drain cannot
# leak spawn workers until interpreter exit.
_LEASE_COUNTS: dict[tuple[int, int], int] = {}


def _pool_key(policies, workers: int) -> tuple[int, int]:
    return (id(policies), workers)


def _cached_pool(policies, workers: int) -> EvaluationPool:
    """One pool per (policies identity, worker count).

    Policies are frozen after training in this codebase, so identity is a
    sound cache key; every evaluation with the same weights spawns its
    workers once.  Pools are torn down atexit (or explicitly via
    :func:`shutdown_pools`).
    """
    key = _pool_key(policies, workers)
    entry = _POOL_CACHE.get(key)
    if entry is None:
        entry = (policies, EvaluationPool(archive_policies(policies), workers))
        _POOL_CACHE[key] = entry
    return entry[1]


def shutdown_pools() -> None:
    """Terminate every cached worker pool and remove its archive directory
    (idempotent; registered ``atexit`` once, when this module is imported)."""
    _LEASE_COUNTS.clear()
    while _POOL_CACHE:
        _, (_, pool) = _POOL_CACHE.popitem()
        pool.close()


atexit.register(shutdown_pools)


def lease_pool(policies, workers: int) -> EvaluationPool:
    """Lease the warm cached pool for ``policies`` at ``workers`` processes.

    The lease is shared, not exclusive: the module-level cache owns the pool
    and keeps it alive between requests (this is what lets the evaluation
    service answer a request seconds after the last one without re-spawning
    interpreters or re-shipping weights).  Do **not** ``close()`` a leased
    pool -- pair every lease with :func:`release_pool`, which terminates the
    pool once the last lease returns; :func:`shutdown_pools` (registered
    atexit) remains the backstop for leases never released.
    """
    pool = _cached_pool(policies, workers)
    key = _pool_key(policies, workers)
    _LEASE_COUNTS[key] = _LEASE_COUNTS.get(key, 0) + 1
    return pool


def release_pool(policies, workers: int) -> None:
    """Return one :func:`lease_pool` lease; tear the pool down on the last.

    Idempotent past zero (releasing an unleased pool is a no-op), so it is
    safe to call from both an explicit ``close()`` and a ``weakref``
    finalizer.  Pools obtained implicitly through :func:`run_sharded` are
    not leases and are unaffected -- they live until :func:`shutdown_pools`.
    """
    key = _pool_key(policies, workers)
    count = _LEASE_COUNTS.get(key)
    if count is None:
        return
    if count > 1:
        _LEASE_COUNTS[key] = count - 1
        return
    del _LEASE_COUNTS[key]
    entry = _POOL_CACHE.pop(key, None)
    if entry is not None:
        entry[1].close()


# repro: allow[BATCH-REF] reason=pure index bookkeeping, not a batched kernel; any partition merges identically
def shard_lanes(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal ``[start, stop)`` lane ranges, one per worker.

    ``shard_lanes(10, 4)`` -> ``[(0, 3), (3, 6), (6, 8), (8, 10)]``: the
    first ``total % workers`` ranges carry one extra lane, so sizes differ
    by at most one.  Never returns an empty range: with fewer lanes than
    workers the surplus workers simply receive no chunk (callers size their
    pools by ``len(shard_lanes(...))``, not by ``workers``).  Splitting is
    pure bookkeeping -- lane randomness is keyed on each spec's global lane
    index, so *any* partition merges back to the identical result;
    :meth:`EvaluationPool.roll_specs` splits every pooled roll with it,
    specs mixing systems, seeds, layouts and frame budgets.
    """
    workers = max(1, min(workers, total))
    base, extra = divmod(total, workers)
    ranges: list[tuple[int, int]] = []
    start = 0
    for worker in range(workers):
        size = base + (1 if worker < extra else 0)
        if size:
            ranges.append((start, start + size))
            start += size
    return ranges


def run_sharded(
    policies,
    specs: Sequence[LaneSpec],
    fleet_size: int,
    workers: int,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    chunk_timeout: float | None = None,
) -> list[list[EpisodeTrace]]:
    """Roll lane specs on the cached pool for ``policies``; traces merge in
    spec order (:meth:`EvaluationPool.roll_specs`)."""
    if not specs:  # zero lanes: same empty result the in-process path yields
        return []
    # Fewer lanes than workers -> fewer chunks; don't spawn (and archive-
    # restore into) workers that could never receive one.
    pool = _cached_pool(policies, min(workers, len(specs)))
    return pool.roll_specs(specs, fleet_size, retry, fault_plan, chunk_timeout)
