"""Content-addressed result cache for evaluation episodes.

A cache entry is one lane's trace list, keyed by a SHA-256 digest over
*everything* that determines its bytes:

* the **policy digest** -- a hash of the trained weights themselves (the
  npz archive bytes :func:`repro.analysis.parallel.archive_policies`
  produces, plus the normalizer scale and the head dimensions), so
  retraining or perturbing a single weight changes every key;
* the **environment schema** -- task-registry size and the camera's
  raw-feature / observation widths (the same fields the policy-training
  cache tags with: growing the task suite or the sensor channels must
  invalidate, not silently reuse);
* the **request identity** -- system name, scene layout, evaluation seed,
  *global lane index*, the job's instruction strings and the frame budget.

Determinism contract: because every lane's randomness is a pure function of
``(seed, lane index)`` (:func:`repro.analysis.evaluation.lane_generators`)
and fleet numerics are fleet-size invariant, a key identifies exactly one
byte pattern of traces.  Entries round-trip through npz (float64-exact), so
a cache hit is **byte-identical** to a fresh roll -- ``tests/test_serving.py``
asserts this end to end.

Robustness: entries are validated on read; a corrupted payload (truncated
file, stray bytes, missing arrays) is evicted and reported as a miss, so
the caller re-rolls instead of crashing.  Capacity is bounded by an LRU
policy over ``max_entries``; evicted entries also leave the disk store.

Shared mounts: several processes may point at one cache directory (the
multi-server deployment shape ``docs/serving.md`` documents).  Keys are
content addresses, so concurrent writers of the same key write the same
bytes; atomic ``os.replace`` keeps every read a complete payload; and an
advisory ``flock`` on ``<dir>/.lock`` (shared for reads, exclusive for
writes and evictions) serialises the metadata races those two guarantees
do not cover -- an eviction never yanks a file mid-read, and a read that
loses the race to an eviction reports a miss instead of raising.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts mount unlocked
    fcntl = None  # type: ignore[assignment]

from repro.core.runner import MAX_EPISODE_FRAMES, EpisodeTrace

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "policy_digest",
    "result_key",
    "encode_traces",
    "decode_traces",
]

CACHE_SCHEMA = "repro-result-cache/2"
"""Versions the key *and* payload layout; bumping it invalidates every entry.

Schema 2 (the estimate-era schema): payloads embed the schema marker, so a
pre-bump payload that somehow lands under a current key (hand-copied files,
a downgraded writer) fails validation and is evicted as corrupt -- the lane
re-rolls instead of serving a result the estimate path cannot vouch for.
"""

_DIGEST_CACHE: dict[int, tuple[weakref.ref, str]] = {}


def policy_digest(policies) -> str:
    """SHA-256 over the trained weights (archive bytes + head dimensions).

    Policies are frozen after training in this codebase, so the digest is
    memoised by object identity -- the archive serialization (every weight
    to npz bytes) runs once per trained pair, not once per request.  The
    memo holds a weak reference and re-verifies it, because a bare ``id()``
    key can be recycled by the allocator after the original object dies --
    a stale digest here would serve one model's cached traces as another's.
    A pair :func:`~repro.analysis.parallel.archive_policies` refuses (the
    two normalizers differ) raises its ``ValueError`` here too.
    """
    entry = _DIGEST_CACHE.get(id(policies))
    if entry is not None:
        ref, digest = entry
        if ref() is policies:
            return digest
    from repro.analysis.parallel import archive_policies

    archive = archive_policies(policies)
    hasher = hashlib.sha256()
    hasher.update(archive.baseline_npz)
    hasher.update(archive.corki_npz)
    hasher.update(archive.normalizer_scale)
    hasher.update(f"{archive.token_dim}:{archive.hidden_dim}".encode())
    digest = hasher.hexdigest()
    _DIGEST_CACHE[id(policies)] = (weakref.ref(policies), digest)
    return digest


def result_key(
    policy: str,
    system: str,
    layout_name: str,
    seed: int,
    lane: int,
    instructions: tuple[str, ...],
    max_frames: int = MAX_EPISODE_FRAMES,
    registry_size: int | None = None,
    raw_feature_dim: int | None = None,
    observation_dim: int | None = None,
) -> str:
    """The content address of one lane's result.

    ``policy`` is a :func:`policy_digest`.  The schema fields default to the
    live registry/camera constants; tests pass explicit values to assert
    that changing any of them changes the key.
    """
    if registry_size is None or raw_feature_dim is None or observation_dim is None:
        from repro.sim.camera import OBSERVATION_DIM, RAW_FEATURE_DIM
        from repro.sim.tasks import TASKS

        registry_size = len(TASKS) if registry_size is None else registry_size
        raw_feature_dim = RAW_FEATURE_DIM if raw_feature_dim is None else raw_feature_dim
        observation_dim = OBSERVATION_DIM if observation_dim is None else observation_dim
    payload = "\n".join(
        [
            CACHE_SCHEMA,
            policy,
            f"registry={registry_size}",
            f"raw={raw_feature_dim}",
            f"obs={observation_dim}",
            f"system={system}",
            f"layout={layout_name}",
            f"seed={seed}",
            f"lane={lane}",
            f"frames={max_frames}",
            *instructions,
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def encode_traces(traces: list[EpisodeTrace]) -> bytes:
    """Serialize one lane's trace list to npz bytes (float64-exact)."""
    arrays: dict[str, np.ndarray] = {
        "schema": np.array(CACHE_SCHEMA),
        "count": np.array(len(traces)),
    }
    for index, trace in enumerate(traces):
        arrays[f"success_{index}"] = np.array(trace.success)
        arrays[f"frames_{index}"] = np.array(trace.frames)
        arrays[f"executed_{index}"] = np.array(trace.executed_steps, dtype=int)
        arrays[f"ee_{index}"] = trace.ee_path
        arrays[f"reference_{index}"] = trace.reference_path
        arrays[f"gripper_{index}"] = trace.gripper_path
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def decode_traces(payload: bytes) -> list[EpisodeTrace]:
    """Inverse of :func:`encode_traces`; raises on any malformed payload.

    The embedded schema marker is validated first: payloads written under an
    older schema (or missing the marker entirely) raise, which the cache
    treats as a corrupt entry -- evict and re-roll, never serve stale layout.
    """
    with np.load(io.BytesIO(payload)) as archive:
        if "schema" not in archive.files or str(archive["schema"]) != CACHE_SCHEMA:
            raise ValueError("cache payload written under a different schema")
        count = int(archive["count"])
        return [
            EpisodeTrace(
                success=bool(archive[f"success_{index}"]),
                frames=int(archive[f"frames_{index}"]),
                executed_steps=[int(k) for k in archive[f"executed_{index}"]],
                ee_path=archive[f"ee_{index}"],
                reference_path=archive[f"reference_{index}"],
                gripper_path=archive[f"gripper_{index}"],
            )
            for index in range(count)
        ]


class ResultCache:
    """LRU result cache, in-memory with an optional on-disk mirror.

    ``directory`` persists entries as ``<key>.npz`` files, so a cache
    survives process restarts (``repro-experiments --result-cache`` reruns,
    service restarts); in-memory entries hold the *encoded* bytes, so a hit
    always decodes through the same npz path a disk hit takes -- one code
    path, and returned traces never alias a caller's objects.
    ``max_entries`` LRU-bounds the in-memory tier, and evicting an entry
    also deletes its file; entries written by *earlier* processes are only
    counted once this process reads them, so a long-lived directory is
    bounded per process lifetime, not globally -- prune the directory (or
    start fresh) if disk footprint matters across many restarts.

    Disk writes are atomic: the payload lands in a uniquely-named temp file
    in the same directory and is ``os.replace``-d into place, so a crash
    mid-write (or two processes writing the same key) can never leave a
    truncated ``<key>.npz`` for later reads to evict.  ``fault_plan``
    (a :class:`repro.reliability.FaultPlan`) optionally truncates payloads
    *on read*, simulating exactly that torn write so the evict-and-re-roll
    path stays exercised.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_entries: int | None = None,
        fault_plan=None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.directory = Path(directory) if directory is not None else None
        self.max_entries = max_entries
        self.fault_plan = fault_plan
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._reads: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def lane_key(
        self,
        policies,
        system: str,
        layout,
        seed: int,
        lane: int,
        job,
        max_frames: int = MAX_EPISODE_FRAMES,
    ) -> str:
        """Key one evaluation lane: ``job`` is a task list (or instructions)."""
        instructions = tuple(
            task if isinstance(task, str) else task.instruction for task in job
        )
        return result_key(
            policy_digest(policies),
            system,
            layout.name,
            seed,
            lane,
            instructions,
            max_frames=max_frames,
        )

    def _path(self, key: str) -> Path | None:
        return None if self.directory is None else self.directory / f"{key}.npz"

    @contextmanager
    def _mount_lock(self, shared: bool):
        """Advisory lock over the shared directory (no-op without a mount).

        ``flock`` on a sidecar ``<dir>/.lock`` file: shared for reads,
        exclusive for writes/evictions.  Advisory is enough -- every writer
        in this codebase takes the lock, and a foreign writer that does not
        is still harmless thanks to atomic ``os.replace`` (the lock guards
        unlink-vs-read metadata races, not payload integrity).
        """
        if self.directory is None or fcntl is None:
            yield
            return
        # repro: allow[ATOMIC-WRITE] reason=zero-length flock sidecar; the lock fd carries no payload, data files go through mkstemp+os.replace
        with open(self.directory / ".lock", "a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def _read_disk(self, path: Path) -> bytes | None:
        """One locked disk read; a file another process evicted between our
        existence check and the read is a miss, never an exception."""
        with self._mount_lock(shared=True):
            try:
                return path.read_bytes()
            except FileNotFoundError:
                return None

    def get(self, key: str) -> list[EpisodeTrace] | None:
        """The cached traces for ``key``, or ``None`` (miss / corrupt entry)."""
        payload = self._entries.get(key)
        if payload is None:
            path = self._path(key)
            if path is not None:
                payload = self._read_disk(path)
        if payload is None:
            self.misses += 1
            return None
        if self.fault_plan is not None:
            # Per-key read counts feed the fault plan's draws; without a
            # plan they would only grow with every key ever served.
            read_index = self._reads.get(key, 0)
            self._reads[key] = read_index + 1
            if self.fault_plan.corrupts_cache_read(key, read_index):
                payload = self.fault_plan.truncate(payload)
        try:
            traces = decode_traces(payload)
        except Exception:
            # A corrupted entry must behave as a miss, not an error: drop it
            # so the caller re-rolls and the fresh result replaces it.
            self.corrupt += 1
            self.misses += 1
            self._drop(key)
            return None
        self._entries[key] = payload
        self._entries.move_to_end(key)
        self._shrink()
        self.hits += 1
        return traces

    def put(self, key: str, traces: list[EpisodeTrace]) -> None:
        """Store one lane's traces under ``key`` (idempotent)."""
        payload = encode_traces(traces)
        self._entries[key] = payload
        self._entries.move_to_end(key)
        path = self._path(key)
        if path is not None:
            # Unique temp name (mkstemp, same filesystem) + atomic rename:
            # a deterministic name like `<key>.tmp` would let two processes
            # caching the same key interleave their writes, which is the
            # torn-file failure this dance exists to rule out.  The mount
            # lock additionally keeps the replace from racing a concurrent
            # eviction's unlink of the same key.
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                with self._mount_lock(shared=False):
                    os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        self._shrink()

    def _unlink(self, path: Path) -> None:
        """Remove one entry's file; losing the unlink race to another
        process mounting the same directory is success, not an error."""
        with self._mount_lock(shared=False):
            path.unlink(missing_ok=True)

    def _drop(self, key: str) -> None:
        self._entries.pop(key, None)
        path = self._path(key)
        if path is not None:
            self._unlink(path)

    def _shrink(self) -> None:
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            path = self._path(evicted)
            if path is not None:
                self._unlink(path)

    def stats(self) -> dict[str, int]:
        """Counters for the service's ``stats`` op and the bench report."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }
