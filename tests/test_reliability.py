"""Chaos suite: every promised failure mode, injected and recovered.

The reliability contract under test (``repro.reliability`` +
``analysis/parallel.py`` + ``serving/``): a fault degrades a *request*,
never the process, and whatever recovers is **byte-identical** to the
fault-free ``workers=1`` run -- lane randomness is keyed on global lane
indices, so re-rolling a crashed chunk or a corrupt cache entry cannot
change a byte.  Faults are injected by seeded :class:`FaultPlan` streams,
so every test here is deterministic and CI-gateable (the ``chaos`` job).
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.analysis import parallel
from repro.analysis.evaluation import (
    JOB_LENGTH,
    TrainedPolicies,
    evaluate_system,
    roll_lane_chunk,
    sample_job,
)
from repro.analysis.parallel import (
    archive_policies,
    restore_policies,
    run_sharded,
    shutdown_pools,
)
from repro.reliability import (
    ChunkDirective,
    FaultPlan,
    HealthCounters,
    PoolUnhealthy,
    RetryPolicy,
)
from repro.serving.__main__ import main as serve_main
from repro.serving.cache import ResultCache
from repro.serving.service import EpisodeRequest, EvaluationService
from repro.sim.world import SEEN_LAYOUT

SEED = 77
JOBS = 4


@pytest.fixture(scope="module")
def trained(tiny_policies):
    baseline, corki, _ = tiny_policies
    return TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def reference(trained):
    """The fault-free in-process roll every recovery must reproduce,
    lane-structured (a failed task aborts its job, so per-lane trace counts
    vary -- the flattened ``evaluate_system`` trace list cannot be sliced
    back into lanes)."""
    return roll_lane_chunk(
        trained, "corki-5", SEEN_LAYOUT, SEED, lane_jobs_for(SEED, JOBS),
        fleet_size=32,
    )


def lane_jobs_for(seed: int, count: int):
    job_rng = np.random.default_rng(seed)
    return [sample_job(job_rng, JOB_LENGTH) for _ in range(count)]


def job_requests(system: str, seed: int, count: int) -> list[EpisodeRequest]:
    return [
        EpisodeRequest(
            system=system,
            instructions=tuple(task.instruction for task in job),
            seed=seed,
            lane=lane,
        )
        for lane, job in enumerate(lane_jobs_for(seed, count))
    ]


def assert_traces_equal(a, b):
    assert a.success == b.success
    assert a.frames == b.frames
    assert a.executed_steps == b.executed_steps
    assert np.array_equal(a.ee_path, b.ee_path)
    assert np.array_equal(a.reference_path, b.reference_path)
    assert np.array_equal(a.gripper_path, b.gripper_path)


def reference_flat(reference):
    return [trace for lane_traces in reference for trace in lane_traces]


def assert_lane_equal(expected, actual):
    assert len(expected) == len(actual)
    for fresh, other in zip(expected, actual):
        assert_traces_equal(fresh, other)


def shared_pool_health(trained) -> HealthCounters:
    """The cached workers=2 pool's counters (without taking a lease)."""
    entry = parallel._POOL_CACHE.get((id(trained), 2))
    return entry[1].health if entry is not None else HealthCounters()


NO_BACKOFF = RetryPolicy(max_attempts=3, base_delay=0.0)


# -- the fault plan itself -----------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=-1)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, frame_corrupt_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(seed=0, faulted_attempts=-1)

    def test_decisions_are_deterministic_and_identity_keyed(self):
        plan = FaultPlan(seed=9, crash_rate=0.5, cache_corrupt_rate=0.5,
                         frame_corrupt_rate=0.5)
        clone = FaultPlan(seed=9, crash_rate=0.5, cache_corrupt_rate=0.5,
                          frame_corrupt_rate=0.5)
        keys = [(1, 0, 2), (1, 2, 2), (2, 0, 2)]
        assert [plan.chunk_directive(k, 0) for k in keys] == [
            clone.chunk_directive(k, 0) for k in keys
        ]
        assert [plan.corrupts_frame(0, i) for i in range(8)] == [
            clone.corrupts_frame(0, i) for i in range(8)
        ]
        digest = "ab" * 32
        assert plan.corrupts_cache_read(digest, 0) == clone.corrupts_cache_read(digest, 0)

    def test_seed_changes_decisions(self):
        decisions = {
            seed: tuple(
                FaultPlan(seed=seed, crash_rate=0.5).chunk_directive((1, k, 2), 0)
                is not None
                for k in range(16)
            )
            for seed in range(4)
        }
        assert len(set(decisions.values())) > 1

    def test_budget_gates_attempts_and_reads(self):
        plan = FaultPlan(seed=1, crash_rate=1.0, cache_corrupt_rate=1.0,
                         faulted_attempts=1, faulted_reads=1)
        assert plan.chunk_directive((5, 0, 2), 0) is not None
        assert plan.chunk_directive((5, 0, 2), 1) is None
        digest = "cd" * 32
        assert plan.corrupts_cache_read(digest, 0)
        assert not plan.corrupts_cache_read(digest, 1)
        persistent = FaultPlan(seed=1, crash_rate=1.0, faulted_attempts=99)
        assert persistent.chunk_directive((5, 0, 2), 42) is not None

    def test_crash_outranks_hang_outranks_slow(self):
        every = FaultPlan(seed=1, crash_rate=1.0, hang_rate=1.0, slow_rate=1.0)
        assert every.chunk_directive((1, 0, 1), 0).kind == "crash"
        hang = FaultPlan(seed=1, hang_rate=1.0, slow_rate=1.0, hang_seconds=9.0)
        directive = hang.chunk_directive((1, 0, 1), 0)
        assert directive == ChunkDirective("hang", seconds=9.0)

    def test_payload_transforms(self):
        payload = bytes(range(60))
        assert FaultPlan.truncate(payload) == payload[:20]
        line = '{"system": "corki-5", "seed": 1}'
        mangled = FaultPlan.mangle_line(line)
        assert mangled == line[: len(line) // 2]
        with pytest.raises(json.JSONDecodeError):
            json.loads(mangled)


class TestRetryPolicy:
    def test_capped_exponential_delays(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.3,
                             multiplier=2.0)
        assert policy.delays() == pytest.approx([0.1, 0.2, 0.3, 0.3, 0.3])

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# -- worker-crash recovery -----------------------------------------------------


class TestCrashRecovery:
    def test_injected_crash_recovers_byte_identically(self, trained, reference):
        """The acceptance property: every chunk's first attempt crashes, the
        retry loop re-dispatches, and the merged result equals the fault-free
        ``workers=1`` evaluation byte for byte."""
        before = dataclasses.replace(shared_pool_health(trained))
        faulted = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, JOBS, seed=SEED, workers=2,
            retry=NO_BACKOFF, fault_plan=FaultPlan(seed=5, crash_rate=1.0),
        )
        assert_lane_equal(reference_flat(reference), faulted.traces)
        health = shared_pool_health(trained)
        assert health.faults_injected - before.faults_injected >= 1
        assert health.retries - before.retries >= 1

    def test_retries_exhausted_raises_pool_unhealthy(self, trained):
        """A persistent fault (budget past the retry cap) must surface as
        PoolUnhealthy chaining the underlying failure, not hang or succeed."""
        plan = FaultPlan(seed=5, crash_rate=1.0, faulted_attempts=99)
        with pytest.raises(PoolUnhealthy) as failure:
            run_sharded(
                trained, "corki-5", SEEN_LAYOUT, SEED, lane_jobs_for(SEED, JOBS),
                fleet_size=32, workers=2,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0), fault_plan=plan,
            )
        assert "injected worker crash" in str(failure.value.__cause__)

    def test_deterministic_worker_error_is_not_retried(self, trained):
        """A genuine bug (unknown instruction) propagates unchanged on the
        first attempt -- retries are for transient failures only."""

        class GhostTask:
            instruction = "summon a task that does not exist"

        before = dataclasses.replace(shared_pool_health(trained))
        with pytest.raises(KeyError, match="unknown instruction"):
            run_sharded(
                trained, "corki-5", SEEN_LAYOUT, SEED,
                [[GhostTask()], [GhostTask()]],
                fleet_size=32, workers=2, retry=NO_BACKOFF,
            )
        assert shared_pool_health(trained).retries == before.retries

    def test_hard_crash_detected_by_timeout_and_rerolled(self, trained):
        """``os._exit`` kills the worker process outright; only the chunk
        timeout can notice.  The pool respawns, re-dispatches, and the
        result still matches an in-process roll byte for byte."""
        jobs = lane_jobs_for(SEED, 2)
        before = dataclasses.replace(shared_pool_health(trained))
        merged = run_sharded(
            trained, "corki-5", SEEN_LAYOUT, SEED, jobs,
            fleet_size=32, workers=2, retry=NO_BACKOFF,
            fault_plan=FaultPlan(seed=3, crash_rate=1.0, hard_crash=True),
            chunk_timeout=8.0,
        )
        expected = roll_lane_chunk(
            trained, "corki-5", SEEN_LAYOUT, SEED, jobs, fleet_size=32
        )
        assert len(expected) == len(merged)
        for expected_lane, merged_lane in zip(expected, merged):
            assert_lane_equal(expected_lane, merged_lane)
        health = shared_pool_health(trained)
        assert health.respawns - before.respawns >= 1


# -- cache corruption ----------------------------------------------------------


class TestCacheFaults:
    def test_corrupt_first_read_evicts_then_heals(self, reference):
        plan = FaultPlan(seed=11, cache_corrupt_rate=1.0)
        cache = ResultCache(fault_plan=plan)
        key, traces = "ab" * 32, reference[0]
        cache.put(key, traces)
        assert cache.get(key) is None  # truncated on read 0: evict, miss
        assert cache.corrupt == 1 and cache.misses == 1 and len(cache) == 0
        cache.put(key, traces)
        healed = cache.get(key)  # read 1 is past the fault budget
        assert healed is not None and cache.hits == 1
        for fresh, roundtripped in zip(traces, healed):
            assert_traces_equal(fresh, roundtripped)

    def test_truncated_disk_entry_behaves_as_miss(self, tmp_path, reference):
        """A genuinely torn file (not injected) must also evict cleanly."""
        cache = ResultCache(directory=tmp_path)
        key, traces = "cd" * 32, reference[0]
        cache.put(key, traces)
        path = tmp_path / f"{key}.npz"
        path.write_bytes(path.read_bytes()[:40])
        rereader = ResultCache(directory=tmp_path)
        assert rereader.get(key) is None
        assert rereader.corrupt == 1 and not path.exists()

    def test_service_rerolls_corrupt_entry_byte_identically(
        self, trained, reference
    ):
        """Acceptance: with every entry's first read arriving truncated, a
        warm drain silently re-rolls and still equals the reference."""
        plan = FaultPlan(seed=11, cache_corrupt_rate=1.0)
        service = EvaluationService(trained, workers=1, slots=4, fault_plan=plan)
        requests = job_requests("corki-5", SEED, JOBS)
        service.serve(requests)  # cold: rolls and populates the cache
        warm = service.serve(requests)  # every first read corrupts
        assert all(result.ok and not result.cached for result in warm)
        served = [trace for result in warm for trace in result.traces]
        assert_lane_equal(reference_flat(reference), served)
        assert service.cache.corrupt == JOBS
        healed = service.serve(requests)  # re-written entries now hit
        assert all(result.cached for result in healed)


class TestAtomicCacheWrites:
    def test_put_leaves_only_final_files(self, tmp_path, reference):
        cache = ResultCache(directory=tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" * 32, reference[0])
        # The flock sidecar (`.lock`) is the one non-entry file the shared
        # mount contract allows (docs/serving.md, tests/test_cache_shared.py).
        names = sorted(
            entry.name for entry in tmp_path.iterdir() if entry.name != ".lock"
        )
        assert len(names) == 3 and all(name.endswith(".npz") for name in names)

    def test_failed_replace_leaves_no_partial_entry(
        self, tmp_path, reference, monkeypatch
    ):
        """If the atomic rename itself fails, neither a torn final file nor
        a stray temp file may remain."""
        cache = ResultCache(directory=tmp_path)
        key = "ef" * 32

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.serving.cache.os.replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            cache.put(key, reference[0])
        assert [entry.name for entry in tmp_path.iterdir() if entry.name != ".lock"] == []


# -- deadlines -----------------------------------------------------------------


class TickingClock:
    """A monotonic clock advancing a fixed step per reading, so deadline
    expiry happens after a deterministic number of ticks -- no sleeping."""

    def __init__(self, step: float = 0.001):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestDeadlines:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_expired_deadline_returns_structured_timeout(
        self, trained, reference, workers
    ):
        """Acceptance: an already-expired request answers ``timeout`` without
        blocking the batch, on both engines; survivors match the reference."""
        service = EvaluationService(trained, workers=workers, slots=4)
        requests = job_requests("corki-5", SEED, JOBS)
        requests[1] = dataclasses.replace(requests[1], deadline_ms=0.0)
        results = service.serve(requests)
        assert [result.status for result in results] == [
            "ok", "timeout", "ok", "ok"
        ]
        assert results[1].traces == [] and "deadline" in results[1].error
        for lane in (0, 2, 3):
            assert_lane_equal(reference[lane], results[lane].traces)
        assert service.stats()["timeouts"] == 1
        if workers > 1:
            service.close()

    def test_mid_flight_expiry_cancels_at_inference_boundary(
        self, trained, reference
    ):
        """A deadline that expires *during* the roll evicts its lane at the
        next tick; the surviving lane's bytes are untouched."""
        clock = TickingClock(step=0.001)
        service = EvaluationService(trained, workers=1, slots=2, clock=clock)
        requests = job_requests("corki-5", SEED, 2)
        # ~25 clock readings at 1 ms each: alive at admission, dead within
        # the first few ticks -- far shorter than any episode.
        requests[0] = dataclasses.replace(requests[0], deadline_ms=25.0)
        results = service.serve(requests)
        assert results[0].status == "timeout" and results[0].traces == []
        assert results[1].status == "ok"
        assert_lane_equal(reference[1], results[1].traces)
        assert service.stats()["timeouts"] == 1

    def test_deadline_is_validated_and_cache_neutral(self, trained):
        with pytest.raises(ValueError):
            EpisodeRequest("corki-5", ("lift the red block",), seed=1,
                           deadline_ms=-1.0)
        service = EvaluationService(trained, workers=1)
        request = job_requests("corki-5", SEED, 1)[0]
        relaxed = dataclasses.replace(request, deadline_ms=1e9)
        assert service._key(request) == service._key(relaxed)


# -- admission control ---------------------------------------------------------


class TestAdmissionControl:
    def test_jsonl_surface_reports_statuses(self, trained):
        request = job_requests("corki-5", SEED, 2)
        lines = "\n".join([
            json.dumps({"id": "a", "system": "corki-5", "seed": SEED,
                        "instructions": list(request[0].instructions)}),
            json.dumps({"id": "b", "system": "corki-5", "seed": SEED, "lane": 1,
                        "instructions": list(request[1].instructions)}),
            "",
        ])
        stdout = io.StringIO()
        assert serve_main(
            ["--slots", "2", "--max-pending", "1"],
            policies=trained, stdin=io.StringIO(lines), stdout=stdout,
        ) == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        by_id = {response["id"]: response for response in responses}
        assert len(by_id) == 2
        assert by_id["a"]["status"] == "ok"
        assert by_id["a"]["successes"] and "estimate" in by_id["a"]
        assert by_id["b"] == {"id": "b", "status": "rejected",
                              "error": "admission queue full"}


# -- graceful degradation ------------------------------------------------------


class TestDegradation:
    def test_unhealthy_pool_degrades_to_in_process(self, trained, reference):
        """When every retry crashes, the drain falls back to the in-process
        engine: all requests still answer, byte-identical, and the fallback
        is counted -- never silent."""
        plan = FaultPlan(seed=2, crash_rate=1.0, faulted_attempts=99)
        with EvaluationService(
            trained, workers=2, slots=4,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0), fault_plan=plan,
        ) as service:
            results = service.serve(job_requests("corki-5", SEED, JOBS))
            assert all(result.ok for result in results)
            served = [trace for result in results for trace in result.traces]
            assert_lane_equal(reference_flat(reference), served)
            stats = service.stats()
            assert stats["degradations"] == 1
            assert stats["retries"] >= 1 and stats["faults_injected"] >= 2


# -- malformed request lines ---------------------------------------------------


class TestMalformedLines:
    def test_mangled_line_errors_without_killing_the_drain(self, trained):
        def plan_for(seed):
            return FaultPlan(seed=seed, frame_corrupt_rate=0.5)

        # Frame 0 mangled; frame 1 (the same request) and frame 2 (stats) clean.
        seed = next(
            s for s in range(100)
            if [plan_for(s).corrupts_frame(0, k) for k in range(3)]
            == [True, False, False]
        )
        request = job_requests("corki-5", SEED, 1)[0]
        payload = json.dumps({"id": "r", "system": "corki-5", "seed": SEED,
                              "instructions": list(request.instructions)})
        stdin = io.StringIO(
            payload + "\n" + payload + "\n\n" + json.dumps({"op": "stats"}) + "\n"
        )
        stdout = io.StringIO()
        assert serve_main(
            ["--slots", "2", "--fault-seed", str(seed), "--fault-frame-rate", "0.5"],
            policies=trained, stdin=stdin, stdout=stdout,
        ) == 0
        error, ok, stats = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert error["status"] == "error" and "id" not in error
        assert ok["id"] == "r" and ok["status"] == "ok"
        assert stats["stats"]["requests_served"] == 1
        assert stats["stats"]["frames_corrupted"] == 1


# -- pool-lease lifecycle ------------------------------------------------------


class TestLeaseLifecycle:
    @pytest.fixture()
    def clone(self, trained):
        # A private policy object, so closing its pool cannot disturb the
        # module-shared (trained, 2) pool other tests keep warm.
        return restore_policies(archive_policies(trained))

    def test_close_releases_the_lease_and_refuses_work(self, clone):
        key = (id(clone), 2)
        service = EvaluationService(clone, workers=2, slots=2)
        assert parallel._LEASE_COUNTS[key] == 1
        assert key in parallel._POOL_CACHE
        service.close()
        assert key not in parallel._LEASE_COUNTS
        assert key not in parallel._POOL_CACHE
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(job_requests("corki-5", SEED, 1)[0])
        with pytest.raises(RuntimeError, match="closed"):
            service.drain()

    def test_context_manager_releases_on_exception(self, clone):
        key = (id(clone), 2)
        with pytest.raises(RuntimeError, match="boom"):
            with EvaluationService(clone, workers=2, slots=2):
                assert parallel._LEASE_COUNTS[key] == 1
                raise RuntimeError("boom")
        assert key not in parallel._LEASE_COUNTS
        assert key not in parallel._POOL_CACHE

    def test_shared_lease_refcounts(self, clone):
        key = (id(clone), 2)
        first = EvaluationService(clone, workers=2, slots=2)
        second = EvaluationService(clone, workers=2, slots=2)
        assert first._pool is second._pool
        assert parallel._LEASE_COUNTS[key] == 2
        first.close()
        assert parallel._LEASE_COUNTS[key] == 1
        assert key in parallel._POOL_CACHE
        second.close()
        assert key not in parallel._POOL_CACHE

    def test_garbage_collected_service_returns_its_lease(self, clone):
        key = (id(clone), 2)
        service = EvaluationService(clone, workers=2, slots=2)
        assert parallel._LEASE_COUNTS[key] == 1
        del service  # the weakref finalizer is the atexit-grade backstop
        assert key not in parallel._LEASE_COUNTS
        assert key not in parallel._POOL_CACHE


# -- end-to-end chaos smoke ----------------------------------------------------


class TestChaosServingSmoke:
    def test_service_survives_crashes_and_corrupt_reads(
        self, trained, reference
    ):
        """`python -m repro.serving` under an armed FaultPlan: every chunk's
        first dispatch crashes and every cache entry's first read arrives
        truncated, yet every request answers ``ok`` with reference bytes.

        The ``stats`` op between the two copies of the batch is the barrier
        that makes the second copy its own drain, so it reads the cache
        entries the first drain wrote."""
        requests = job_requests("corki-5", SEED, 2)
        batch = "\n".join(
            json.dumps({
                "id": f"r{request.lane}", "system": request.system,
                "seed": request.seed, "lane": request.lane,
                "instructions": list(request.instructions),
            })
            for request in requests
        )
        stats_op = json.dumps({"op": "stats"})
        stdin = io.StringIO(
            batch + "\n\n" + stats_op + "\n" + batch + "\n\n" + stats_op + "\n"
        )
        stdout = io.StringIO()
        code = serve_main(
            [
                "--workers", "2", "--retry-attempts", "3",
                "--fault-seed", "9", "--fault-crash-rate", "1.0",
                "--fault-cache-rate", "1.0", "--max-pending", "8",
            ],
            policies=trained, stdin=stdin, stdout=stdout,
        )
        assert code == 0
        lines = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert ["stats" in line for line in lines] == [False, False, True] * 2
        responses = [line for line in lines if "stats" not in line]
        stats = lines[-1]["stats"]
        assert all(response["status"] == "ok" for response in responses)
        for response in responses:
            lane = int(response["id"][1:])
            expected = reference[lane]
            assert response["frames"] == [trace.frames for trace in expected]
            assert response["executed_steps"] == [
                list(trace.executed_steps) for trace in expected
            ]
        assert stats["faults_injected"] >= 1 and stats["retries"] >= 1
        assert stats["corrupt"] >= 1 and stats["requests_served"] == 4
