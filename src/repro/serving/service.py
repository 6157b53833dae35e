"""The long-lived evaluation service: continuous batching over warm engines.

Batch CLI runs (``repro-experiments tbl1``) plan every lane up front, roll
the whole fleet, and tear everything down.  A serving layer cannot: requests
arrive one at a time, and throughput depends on never letting the batched
inference (or the worker pool) go cold between them.  This module keeps both
engines warm:

* **In-process** (``workers <= 1``): one persistent
  :class:`~repro.core.fleet.FleetRunner` serves every drain through
  evaluation's own roll, :func:`~repro.analysis.evaluation.roll_specs` over
  :meth:`~repro.core.fleet.FleetRunner.run_continuous` -- a finished lane's
  slot is refilled from the drain's misses on the next tick instead of
  waiting for the fleet to drain, which is exactly the property Corki's
  trajectory-level execution exposes (inference happens at boundaries, so
  boundaries are where admission is free).
* **Multi-process** (``workers >= 2``): the service leases the warm
  spawn-context pool (:func:`repro.analysis.parallel.lease_pool` -- spawned
  once, policies shipped once) and rolls every drain's misses through
  :meth:`~repro.analysis.parallel.EvaluationPool.roll_specs`, the call
  sharded evaluation makes: one chunk per worker, all dispatched before
  any is collected.

Results flow through the content-addressed :class:`~repro.serving.cache.
ResultCache`: a repeated request (same weights, task, seed, lane, config)
is served from the cache without re-rolling, and because lane randomness is
keyed ``(seed, lane)`` the cached bytes equal a fresh roll's bytes exactly.

Determinism contract: for any mix of admission order, slot count, worker
count and cache temperature, a request's traces are byte-identical to the
same lane rolled by ``evaluate_system(..., workers=1)``.
``tests/test_serving.py`` asserts this cold and warm, in-process and
pooled.

Reliability contract (``tests/test_reliability.py``): a failure degrades a
*request*, never the process.  Requests carry an optional ``deadline_ms``
enforced at inference-boundary ticks (an expired request returns a
structured ``timeout`` result, it does not stall the batch); pooled
dispatch retries transient worker crashes with capped backoff and respawns
dead pools (:meth:`~repro.analysis.parallel.EvaluationPool.
run_chunks_reliably`); and when a pool exhausts its retry budget the drain
*degrades* to the in-process continuous-batching engine -- logged and
counted, never silent.  Whatever survives a fault is still byte-identical
to the fault-free run, because every recovery path re-rolls lanes under
their original ``(seed, lane)`` keys.
"""

from __future__ import annotations

import logging
import time
import weakref
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.config import VARIATIONS
from repro.core.fleet import DEFAULT_FLEET_SIZE, FleetRunner
from repro.core.runner import MAX_EPISODE_FRAMES, EpisodeTrace
from repro.pipeline.estimate import PipelineEstimate, estimate_from_steps
from repro.reliability.faults import FaultPlan
from repro.reliability.health import HealthCounters, PoolUnhealthy
from repro.reliability.retry import RetryPolicy
from repro.serving.cache import ResultCache

if TYPE_CHECKING:
    from repro.analysis.evaluation import LaneSpec

__all__ = [
    "EpisodeRequest",
    "MAX_REQUEST_FRAMES",
    "ServedResult",
    "EvaluationService",
    "estimate_for_request",
]

logger = logging.getLogger("repro.serving")

MAX_REQUEST_FRAMES = 10 * MAX_EPISODE_FRAMES
"""The largest ``max_frames`` a request may ask for: 1,500 frames, ten times
the evaluation budget, or 50 s of robot time at the 30 Hz camera rate.

Every slot of the in-process engine keeps path buffers as long as the
longest admitted frame budget (``LaneArrays.reserve``: 57 bytes per frame per
slot), so one request's budget sizes the memory of its whole drain.  At the
default 128 slots this ceiling costs about 11 MB; an unbounded budget let
one ``max_frames`` of ``10**9`` ask for 89 GiB and fail every request
drained with it."""


@dataclass(frozen=True)
class EpisodeRequest:
    """One episode-evaluation request: instruction(s) + system + seed.

    ``instructions`` is the job -- one instruction for a single episode,
    several for a long-horizon chain.  ``(seed, lane)`` addresses the
    request's random streams exactly as a batch evaluation lane would be
    addressed (:func:`repro.analysis.evaluation.lane_generators`), so a
    service request can reproduce -- and cache-share with -- any lane of any
    batch run.  ``layout`` is ``"seen"`` or ``"unseen"``.

    ``deadline_ms`` bounds how long the request may wait + roll, measured
    from :meth:`EvaluationService.submit`; past it the service returns a
    structured ``timeout`` result instead of traces (``0`` means "expire
    immediately" -- useful for probing the timeout path).  Deadlines do not
    enter the cache key: an expired request served later would still roll
    the same bytes.

    ``priority`` orders *dispatch*, not results: within one drain, higher
    priorities enter the engines first (slot admission in-process, chunk
    build order pooled), so under contention they finish -- and a network
    front end answers them -- sooner.  Ties keep submission order; the
    default is ``0``; negative values yield.  Priority is scheduling
    metadata, like the deadline: it does not enter the cache key, because
    it cannot change a single byte of the result.
    """

    system: str
    instructions: tuple[str, ...]
    seed: int
    lane: int = 0
    layout: str = "seen"
    max_frames: int = MAX_EPISODE_FRAMES
    deadline_ms: float | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0, got {self.deadline_ms}")
        if not self.instructions:
            raise ValueError("a request needs at least one instruction")
        if self.system != "roboflamingo" and self.system not in VARIATIONS:
            known = ", ".join(["roboflamingo", *VARIATIONS])
            raise ValueError(f"unknown system {self.system!r} (expected one of: {known})")
        if self.layout not in ("seen", "unseen"):
            raise ValueError(f"layout must be 'seen' or 'unseen', got {self.layout!r}")
        # Reject everything the rng keying cannot represent *here*, so one
        # malformed request yields a per-request error instead of blowing up
        # mid-drain (possibly inside a pool worker) and dropping the batch.
        if self.seed < 0 or self.lane < 0:
            raise ValueError(f"seed and lane must be >= 0, got {self.seed}/{self.lane}")
        if not 1 <= self.max_frames <= MAX_REQUEST_FRAMES:
            raise ValueError(
                f"max_frames must be in 1..{MAX_REQUEST_FRAMES}, got {self.max_frames}"
            )
        if not isinstance(self.priority, int) or isinstance(self.priority, bool):
            raise ValueError(f"priority must be an int, got {self.priority!r}")


@dataclass
class ServedResult:
    """A request's outcome: traces on success, a structured failure otherwise.

    ``status`` is ``"ok"`` (traces present, possibly cache-served) or
    ``"timeout"`` (the request's ``deadline_ms`` expired before completion);
    a ``timeout`` carries an ``error`` string and an empty trace list -- a
    request is *answered* in every case, never silently dropped.
    """

    request: EpisodeRequest
    traces: list[EpisodeTrace] = field(default_factory=list, repr=False)
    cached: bool = False
    estimate: PipelineEstimate | None = None
    status: str = "ok"
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def successes(self) -> list[bool]:
        return [bool(trace.success) for trace in self.traces]


def estimate_for_request(
    request: EpisodeRequest, traces: list[EpisodeTrace]
) -> PipelineEstimate | None:
    """The latency/energy estimate of one served request.

    A pure function of the request identity and the traces' frame structure
    (jitter keyed ``(seed, lane)`` like every other lane stream), computed
    the same way on the fresh and the cached path -- which is why a cache
    hit's estimate is bitwise the fresh roll's.
    """
    steps = [step for trace in traces for step in trace.executed_steps]
    if not steps:
        return None
    return estimate_from_steps(
        request.system, steps, seed=request.seed, lane=request.lane
    )


def _lane_spec(request: EpisodeRequest) -> LaneSpec:
    """The lane a request rolls: the batch lane at ``(request.seed,
    request.lane)``, and the identity its cache key hashes."""
    from repro.analysis.evaluation import LaneSpec
    from repro.sim.world import SEEN_LAYOUT, UNSEEN_LAYOUT

    return LaneSpec(
        request.system,
        SEEN_LAYOUT if request.layout == "seen" else UNSEEN_LAYOUT,
        request.seed,
        request.lane,
        request.instructions,
        request.max_frames,
    )


@dataclass
class _Admission:
    """One queued request and its lane spec; ``admitted_at`` (service-clock
    seconds) anchors its ``deadline_ms``."""

    request: EpisodeRequest
    admitted_at: float
    spec: LaneSpec


class EvaluationService:
    """Accept episode requests, serve them from warm engines and the cache.

    ::

        service = EvaluationService(policies, workers=2)
        service.submit(EpisodeRequest("corki-5", ("lift the red block",), seed=3))
        [result] = service.drain()          # rolls; byte-identical to batch
        [again] = service.serve([result.request])   # cache hit, no rolling

    ``submit`` only queues; ``drain`` serves everything queued and returns
    results in submission order.  ``serve`` is submit-all + drain.  The
    service is single-threaded by design -- continuous batching happens
    *inside* a drain (slot refill / async chunk collection), which keeps the
    determinism story auditable; a front end owns the transport loop and
    feeds batches here (:class:`~repro.serving.server.EvaluationServer`
    does exactly that over stdin/stdout or TCP, and owns admission control).

    ``use_cache=False`` disables caching; otherwise ``cache`` (default: a
    fresh in-memory cache) serves repeats.  ``slots`` bounds in-flight
    lanes for the in-process path (default
    :data:`~repro.core.fleet.DEFAULT_FLEET_SIZE`); pool workers stream
    their chunks through that many slots.

    Reliability knobs: ``retry`` / ``chunk_timeout`` govern pooled-dispatch
    crash recovery; ``fault_plan`` injects deterministic failures for chaos
    tests (it reaches the pool dispatch and the internally-constructed
    default cache); ``clock`` is the monotonic time source deadlines are
    measured on (injectable so timeout tests need not sleep).  Use the
    service as a context manager -- or call :meth:`close` -- to return its
    pool lease; a ``weakref`` finalizer (which also runs atexit) backstops
    leaks when a drain raises and the service is abandoned.
    """

    def __init__(
        self,
        policies,
        workers: int = 1,
        slots: int = DEFAULT_FLEET_SIZE,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        retry: RetryPolicy | None = None,
        chunk_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.policies = policies
        self.workers = workers
        self.slots = slots
        self.retry = retry
        self.chunk_timeout = chunk_timeout
        self.fault_plan = fault_plan
        self._clock = clock
        self.health = HealthCounters()
        # use_cache=False turns caching off entirely; otherwise an in-memory
        # unbounded cache is the default and ``cache`` overrides it.  (An
        # explicit identity check: an *empty* ResultCache is len()-falsy.)
        self.cache = (
            (cache if cache is not None else ResultCache(fault_plan=fault_plan))
            if use_cache else None
        )
        self._queue: list[_Admission] = []
        self._runner = FleetRunner(
            baseline=policies.baseline, corki=policies.corki
        )
        self._pool = None
        self._finalizer = None
        self._closed = False
        if workers > 1:
            from repro.analysis.parallel import lease_pool, release_pool

            # Lease (and thereby spawn) the pool up front: its workers start
            # and restore the policies while the service finishes setting
            # up, so the first request need not pay interpreter start-up.
            self._pool = lease_pool(policies, workers)
            # The finalizer runs when the service is garbage-collected *or*
            # at interpreter exit -- whichever comes first -- so an abandoned
            # service (a drain that raised, a test that forgot close()) can
            # never leak its lease past process lifetime.  close() calls the
            # same finalizer, making explicit and implicit release one path.
            self._finalizer = weakref.finalize(self, release_pool, policies, workers)
        self.requests_served = 0

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release the pool lease and refuse further work (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool = None
        if self._finalizer is not None:
            self._finalizer()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("EvaluationService is closed")

    # -- request intake --------------------------------------------------------

    def submit(self, request: EpisodeRequest) -> None:
        """Queue one request for the next :meth:`drain`."""
        self._check_open()
        self._queue.append(_Admission(request, self._clock(), _lane_spec(request)))

    def serve(self, requests) -> list[ServedResult]:
        """Submit every request, drain, return results in request order."""
        for request in requests:
            self.submit(request)
        return self.drain()

    def drain(self) -> list[ServedResult]:
        """Serve everything queued; results come back in submission order.

        Duplicate requests within one drain (same cache key) roll once:
        later copies are filled from the first roll's result and flagged
        ``cached`` -- they were served without rolling, which is what the
        flag reports.  With caching off every request rolls (the bench
        relies on that to measure pure serving throughput).

        Requests whose ``deadline_ms`` already expired answer ``timeout``
        without touching an engine, and
        in-process lanes that expire *mid-roll* are evicted at the next
        inference boundary -- an expired request never stalls the batch.
        """
        self._check_open()
        admissions, self._queue = self._queue, []
        if not admissions:
            return []
        results: dict[int, ServedResult] = {}
        misses: list[tuple[int, _Admission, str | None]] = []
        primary_by_key: dict[str, int] = {}
        duplicates: list[tuple[int, _Admission, int]] = []
        for index, admission in enumerate(admissions):
            request = admission.request
            if self._expired(admission):
                self._timeout(index, admission, results)
                continue
            key = None if self.cache is None else self.cache.lane_key(
                self.policies, admission.spec
            )
            hit = None if key is None else self.cache.get(key)
            if hit is not None:
                results[index] = ServedResult(
                    request, hit, cached=True,
                    estimate=estimate_for_request(request, hit),
                )
            elif key is not None and key in primary_by_key:
                duplicates.append((index, admission, primary_by_key[key]))
            else:
                if key is not None:
                    primary_by_key[key] = index
                misses.append((index, admission, key))
        # Priority-aware dispatch: higher-priority misses enter the engines
        # first (continuous-batching slot admission in-process, chunk build
        # order pooled); ties keep submission order.  Results still return
        # in submission order -- priority moves work, not the response
        # contract -- and cache hits above never waited at all.
        misses.sort(key=lambda miss: (-miss[1].request.priority, miss[0]))
        if misses:
            pooled = self.workers > 1 and self._pool is not None
            rolled = self._roll_pooled(misses) if pooled else self._roll_continuous(misses)
            for (index, admission, key), traces in zip(misses, rolled):
                if traces is None:
                    self._timeout(index, admission, results)
                    continue
                if key is not None:
                    self.cache.put(key, traces)
                results[index] = ServedResult(
                    admission.request, traces, cached=False,
                    estimate=estimate_for_request(admission.request, traces),
                )
        for index, admission, primary in duplicates:
            outcome = results[primary]
            if outcome.ok:
                traces = list(outcome.traces)
                results[index] = ServedResult(
                    admission.request, traces, cached=True,
                    estimate=estimate_for_request(admission.request, traces),
                )
            else:
                # The primary never produced traces (its deadline expired),
                # so its duplicates share the failure -- answered, not rolled.
                results[index] = ServedResult(
                    admission.request, status=outcome.status, error=outcome.error,
                )
        self.requests_served += len(admissions)
        return [results[index] for index in range(len(admissions))]

    def stats(self) -> dict[str, int]:
        """Service, reliability and work counters plus the cache's.

        ``timeouts`` / ``degradations`` are the service's own; ``retries`` /
        ``respawns`` / ``faults_injected`` come from the leased pool (zeros
        in-process).  ``slots`` and the ``fleet_*`` counters describe the
        in-process engine's work since the service started, one per
        :class:`~repro.core.fleet.FleetCounters` field (pooled rolls happen
        in the workers and are not counted here).  Cache counters ride
        along when caching is on.
        """
        cache_stats = self.cache.stats() if self.cache is not None else {}
        pool_health = self._pool.health if self._pool is not None else HealthCounters()
        work = {f"fleet_{name}": count for name, count in asdict(self._runner.counters).items()}
        return {
            "requests_served": self.requests_served,
            "workers": self.workers,
            "timeouts": self.health.timeouts,
            "degradations": self.health.degradations,
            "retries": pool_health.retries,
            "respawns": pool_health.respawns,
            "faults_injected": pool_health.faults_injected,
            "slots": self.slots,
            **work,
            **cache_stats,
        }

    # -- deadlines -------------------------------------------------------------

    def _expired(self, admission: _Admission) -> bool:
        deadline = admission.request.deadline_ms
        if deadline is None:
            return False
        return (self._clock() - admission.admitted_at) * 1000.0 >= deadline

    def _timeout(self, index: int, admission: _Admission, results: dict) -> None:
        self.health.timeouts += 1
        results[index] = ServedResult(
            admission.request,
            status="timeout",
            error=f"deadline of {admission.request.deadline_ms:g} ms exceeded",
        )

    # -- rolling ---------------------------------------------------------------

    def _roll_continuous(self, misses) -> list[list[EpisodeTrace] | None]:
        """In-process path: the misses stream through the warm runner's slots
        (:func:`~repro.analysis.evaluation.roll_specs`), one trace list per
        miss, ``None`` where its deadline expired.

        Deadlines are enforced where the runner exposes a boundary: before a
        miss takes a slot (one that expired while earlier lanes rolled never
        builds its environment) and at every inference boundary, where an
        expired lane is evicted and its slot refilled -- the batch never
        waits for a doomed lane.  Without deadlines no clock is read.
        """
        from repro.analysis.evaluation import roll_specs

        expired = None
        if any(admission.request.deadline_ms is not None for _, admission, _ in misses):

            def expired(k: int) -> bool:
                return self._expired(misses[k][1])

        specs = [admission.spec for _, admission, _ in misses]
        return roll_specs(self._runner, specs, self.slots, expired)

    def _roll_pooled(self, misses) -> list[list[EpisodeTrace] | None]:
        """Multi-process path: the live misses, in priority order, roll on
        the leased pool (:meth:`~repro.analysis.parallel.EvaluationPool.
        roll_specs`); ``None`` marks a miss that expired before dispatch.

        The pool splits them into one chunk of lane specs per worker -- a
        chunk mixes systems, seeds, layouts and frame budgets -- and
        dispatches every chunk before collecting any, under its reliable
        path (per-chunk retry, backoff, respawn).  If the pool still
        exhausts its retry budget the drain **degrades** to the in-process
        engine -- logged and counted in ``stats()``, and byte-identical
        because both engines key lane randomness the same way.
        """
        rolled: list[list[EpisodeTrace] | None] = [None] * len(misses)
        live = [k for k, (_, admission, _) in enumerate(misses) if not self._expired(admission)]
        try:
            traces = self._pool.roll_specs(
                [misses[k][1].spec for k in live], DEFAULT_FLEET_SIZE,
                self.retry, self.fault_plan, self.chunk_timeout,
            )
        except PoolUnhealthy as failure:
            self.health.degradations += 1
            logger.warning(
                "worker pool unhealthy (%s); degrading %d request(s) to "
                "in-process continuous batching", failure, len(live),
            )
            traces = self._roll_continuous([misses[k] for k in live])
        for k, lane_traces in zip(live, traces):
            rolled[k] = lane_traces
        return rolled
