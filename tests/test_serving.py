"""Tests for the evaluation service (`repro.serving`).

The acceptance property: serving a request set -- continuous batching
in-process, or fanned across a warm worker pool, cache cold or warm --
produces traces **byte-identical** to the equivalent
``evaluate_system(..., workers=1)`` batch run.  Everything else here guards
the cache key (any weight/schema/request change must change it), the LRU
and corruption behaviour, and the JSONL protocol surface.
"""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.analysis.evaluation import (
    JOB_LENGTH,
    TrainedPolicies,
    evaluate_system,
)
from repro.analysis.parallel import archive_policies, restore_policies, shutdown_pools
from repro.core.fleet import FleetLane, FleetRunner
from repro.serving.cache import (
    ResultCache,
    decode_traces,
    encode_traces,
    policy_digest,
    result_key,
)
from repro.serving.service import (
    EpisodeRequest,
    EvaluationService,
    estimate_for_request,
)
from repro.sim.env import ManipulationEnv
from repro.sim.tasks import TASKS, sample_job
from repro.sim.world import SEEN_LAYOUT


@pytest.fixture(scope="module")
def trained(tiny_policies):
    baseline, corki, _ = tiny_policies
    return TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


def job_requests(system: str, seed: int, count: int) -> list[EpisodeRequest]:
    """Requests mirroring lanes 0..count-1 of ``evaluate_system(seed=seed)``."""
    job_rng = np.random.default_rng(seed)
    jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(count)]
    return [
        EpisodeRequest(
            system=system,
            instructions=tuple(task.instruction for task in job),
            seed=seed,
            lane=lane,
        )
        for lane, job in enumerate(jobs)
    ]


def assert_traces_equal(a, b):
    assert a.success == b.success
    assert a.frames == b.frames
    assert a.executed_steps == b.executed_steps
    assert np.array_equal(a.ee_path, b.ee_path)
    assert np.array_equal(a.reference_path, b.reference_path)
    assert np.array_equal(a.gripper_path, b.gripper_path)


def assert_serves_batch(results, evaluation):
    served = [trace for result in results for trace in result.traces]
    assert len(served) == len(evaluation.traces)
    for fresh, roll in zip(evaluation.traces, served):
        assert_traces_equal(fresh, roll)


# -- cache keys ----------------------------------------------------------------


class TestCacheKeys:
    def test_digest_changes_with_policy_weights(self, trained):
        """Perturbing one weight must re-address every cached result."""
        perturbed = restore_policies(archive_policies(trained))
        parameter = perturbed.baseline.parameters()[0]
        parameter.data[...] = parameter.data + 1e-3
        assert policy_digest(trained) != policy_digest(perturbed)

    def test_digest_is_stable_for_identical_weights(self, trained):
        """A round-tripped copy of the same weights shares the digest (and a
        repeated call hits the memo)."""
        clone = restore_policies(archive_policies(trained))
        assert policy_digest(clone) == policy_digest(trained)
        assert policy_digest(trained) == policy_digest(trained)

    def test_key_changes_with_environment_schema(self):
        """The PR 3 cache-tag fields: registry size and feature dims all
        invalidate -- growing the task suite or the camera must re-roll."""
        base = dict(
            policy="p", system="corki-5", layout_name="seen", seed=1, lane=0,
            instructions=("lift the red block",),
        )
        key = result_key(**base)
        assert key != result_key(**base, registry_size=len(TASKS) + 1)
        assert key != result_key(**base, raw_feature_dim=99)
        assert key != result_key(**base, observation_dim=99)

    def test_key_changes_with_request_identity(self):
        base = dict(
            policy="p", system="corki-5", layout_name="seen", seed=1, lane=0,
            instructions=("lift the red block",),
        )
        key = result_key(**base)
        assert key != result_key(**{**base, "system": "corki-3"})
        assert key != result_key(**{**base, "layout_name": "unseen"})
        assert key != result_key(**{**base, "seed": 2})
        assert key != result_key(**{**base, "lane": 1})
        assert key != result_key(**{**base, "instructions": ("open the drawer",)})
        assert key != result_key(**base, max_frames=10)


# -- cache storage -------------------------------------------------------------


class TestResultCacheStore:
    def roll_one(self, trained):
        evaluation = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=1, seed=3)
        return evaluation.traces

    def test_roundtrip_is_byte_identical(self, trained):
        traces = self.roll_one(trained)
        for original, decoded in zip(traces, decode_traces(encode_traces(traces))):
            assert_traces_equal(original, decoded)

    def test_lru_eviction_bounds_entries(self, trained, tmp_path):
        cache = ResultCache(directory=tmp_path, max_entries=2)
        traces = self.roll_one(trained)
        cache.put("a", traces)
        cache.put("b", traces)
        cache.get("a")  # refresh "a": "b" becomes least recently used
        cache.put("c", traces)
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None
        assert cache.evictions == 1
        assert not (tmp_path / "b.npz").exists()

    def test_disk_entries_survive_a_new_instance(self, trained, tmp_path):
        traces = self.roll_one(trained)
        ResultCache(directory=tmp_path).put("k", traces)
        reopened = ResultCache(directory=tmp_path)
        hit = reopened.get("k")
        assert hit is not None
        for original, decoded in zip(traces, hit):
            assert_traces_equal(original, decoded)

    def test_corrupted_entry_is_a_miss_and_is_dropped(self, trained, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k", self.roll_one(trained))
        (tmp_path / "k.npz").write_bytes(b"not an npz archive")
        fresh = ResultCache(directory=tmp_path)  # no in-memory copy to mask it
        assert fresh.get("k") is None
        assert fresh.corrupt == 1
        assert not (tmp_path / "k.npz").exists()

    def test_in_memory_corruption_is_also_survived(self, trained):
        cache = ResultCache()
        cache.put("k", self.roll_one(trained))
        cache._entries["k"] = b"garbage"
        assert cache.get("k") is None
        assert cache.corrupt == 1


# -- cache threading through evaluate_system -----------------------------------


class TestEvaluateSystemCache:
    def test_rerun_hits_and_matches(self, trained, tmp_path):
        cache = ResultCache(directory=tmp_path)
        first = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=3, seed=7, cache=cache)
        assert cache.misses == 3 and cache.hits == 0
        second = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=3, seed=7, cache=cache)
        assert cache.hits == 3
        assert second.completed_counts == first.completed_counts
        for a, b in zip(first.traces, second.traces):
            assert_traces_equal(a, b)

    def test_cached_equals_uncached(self, trained, tmp_path):
        plain = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=3, seed=7)
        cached = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, jobs=3, seed=7,
            cache=ResultCache(directory=tmp_path),
        )
        rerun = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, jobs=3, seed=7,
            cache=ResultCache(directory=tmp_path),
        )
        for a, b, c in zip(plain.traces, cached.traces, rerun.traces):
            assert_traces_equal(a, b)
            assert_traces_equal(a, c)

    def test_partial_hits_reroll_only_missing_lanes(self, trained, tmp_path):
        """A scattered miss set re-rolls at the original global lane indices,
        so partially-cached results stay byte-identical."""
        plain = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=4, seed=7)
        cache = ResultCache(directory=tmp_path)
        evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=4, seed=7, cache=cache)
        # Corrupt lanes 0 and 2 on disk; a fresh instance must re-roll just them.
        files = sorted(tmp_path.glob("*.npz"))
        assert len(files) == 4
        job_rng = np.random.default_rng(7)
        jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(4)]
        for lane in (0, 2):
            key = cache.lane_key(trained, "corki-5", SEEN_LAYOUT, 7, lane, jobs[lane])
            (tmp_path / f"{key}.npz").write_bytes(b"corrupt")
        fresh = ResultCache(directory=tmp_path)
        rerolled = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, jobs=4, seed=7, cache=fresh
        )
        assert fresh.corrupt == 2 and fresh.hits == 2
        for a, b in zip(plain.traces, rerolled.traces):
            assert_traces_equal(a, b)


# -- continuous batching -------------------------------------------------------


class TestRunContinuous:
    def test_refill_matches_batch_run(self, trained):
        """Lanes admitted into freed slots equal the same lanes run as one
        batch -- the fleet-size/admission-order invariance, end to end."""
        from repro.analysis.evaluation import lane_generators

        def lanes_and_envs(count):
            job_rng = np.random.default_rng(5)
            jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(count)]
            pairs = []
            for lane_index, job in enumerate(jobs):
                env_rng, _ = lane_generators(5, lane_index)
                pairs.append(
                    (
                        ManipulationEnv(SEEN_LAYOUT, env_rng),
                        FleetLane(tasks=list(job)),
                    )
                )
            return pairs

        runner = FleetRunner(baseline=trained.baseline)
        batch_pairs = lanes_and_envs(4)
        batch = runner.run(
            [env for env, _ in batch_pairs], [lane for _, lane in batch_pairs]
        )
        results = {}
        streamed_pairs = lanes_and_envs(4)
        order = {id(lane): index for index, (_, lane) in enumerate(streamed_pairs)}
        served = runner.run_continuous(
            iter(streamed_pairs),
            slots=2,
            on_complete=lambda lane, traces: results.__setitem__(order[id(lane)], traces),
        )
        assert served == 4 and sorted(results) == [0, 1, 2, 3]
        for index in range(4):
            for a, b in zip(batch[index], results[index]):
                assert_traces_equal(a, b)

    def test_empty_source_serves_nothing(self, trained):
        runner = FleetRunner(baseline=trained.baseline)
        assert runner.run_continuous(iter(()), slots=4, on_complete=lambda *_: None) == 0

    def test_slots_must_be_positive(self, trained):
        runner = FleetRunner(baseline=trained.baseline)
        with pytest.raises(ValueError, match="slots"):
            runner.run_continuous(iter(()), slots=0, on_complete=lambda *_: None)


# -- the service ---------------------------------------------------------------


class TestServiceInProcess:
    def test_continuous_service_matches_batch(self, trained):
        batch = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=4, seed=11, workers=1)
        service = EvaluationService(trained, workers=1, slots=2)
        cold = service.serve(job_requests("corki-5", 11, 4))
        assert [result.cached for result in cold] == [False] * 4
        assert_serves_batch(cold, batch)
        warm = service.serve(job_requests("corki-5", 11, 4))
        assert [result.cached for result in warm] == [True] * 4
        assert_serves_batch(warm, batch)

    def test_mixed_systems_in_one_drain(self, trained):
        corki = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=2, seed=11)
        base = evaluate_system(trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=11)
        service = EvaluationService(trained, workers=1, slots=4)
        results = service.serve(
            job_requests("corki-5", 11, 2) + job_requests("roboflamingo", 11, 2)
        )
        assert_serves_batch(results[:2], corki)
        assert_serves_batch(results[2:], base)

    def test_cache_disabled_rolls_every_time(self, trained):
        service = EvaluationService(trained, workers=1, slots=2, use_cache=False)
        requests = job_requests("corki-5", 11, 2)
        first = service.serve(requests)
        second = service.serve(requests)
        assert not any(result.cached for result in first + second)
        for a, b in zip(first, second):
            for x, y in zip(a.traces, b.traces):
                assert_traces_equal(x, y)

    def test_rejects_unknown_system_and_layout(self):
        with pytest.raises(ValueError, match="unknown system"):
            EpisodeRequest(system="corki-42", instructions=("x",), seed=0)
        with pytest.raises(ValueError, match="layout"):
            EpisodeRequest(
                system="corki-5", instructions=("x",), seed=0, layout="imagined"
            )
        with pytest.raises(ValueError, match="instruction"):
            EpisodeRequest(system="corki-5", instructions=(), seed=0)

    def test_rejects_negative_seed_and_lane(self):
        """A malformed-but-parseable request must fail at validation, not
        mid-drain (where it would take the whole batch down)."""
        with pytest.raises(ValueError, match="seed and lane"):
            EpisodeRequest(system="corki-5", instructions=("x",), seed=-1)
        with pytest.raises(ValueError, match="seed and lane"):
            EpisodeRequest(system="corki-5", instructions=("x",), seed=0, lane=-2)
        with pytest.raises(ValueError, match="max_frames"):
            EpisodeRequest(system="corki-5", instructions=("x",), seed=0, max_frames=0)

    def test_duplicate_requests_in_one_drain_roll_once(self, trained):
        service = EvaluationService(trained, workers=1, slots=4)
        request = job_requests("corki-5", 11, 1)[0]
        results = service.serve([request, request, request])
        # All three lookups miss (the roll lands after), but only the
        # primary rolled: one cache entry, copies flagged cached.
        assert len(service.cache) == 1
        assert [result.cached for result in results] == [False, True, True]
        for duplicate in results[1:]:
            assert duplicate.traces is not results[0].traces
            for a, b in zip(results[0].traces, duplicate.traces):
                assert_traces_equal(a, b)

    def test_policy_digest_not_fooled_by_id_reuse(self, trained):
        """Recycled object ids must not resurrect a stale digest."""
        from repro.serving.cache import _DIGEST_CACHE

        clone = restore_policies(archive_policies(trained))
        stale_id = id(clone)
        first = policy_digest(clone)
        assert _DIGEST_CACHE[stale_id][1] == first
        del clone
        # Simulate the allocator handing the dead object's id to different
        # weights: the weakref check must force a recompute.
        perturbed = restore_policies(archive_policies(trained))
        parameter = perturbed.baseline.parameters()[0]
        parameter.data[...] = parameter.data + 1e-3
        _DIGEST_CACHE[id(perturbed)] = _DIGEST_CACHE.pop(stale_id, (lambda: None, first))
        assert policy_digest(perturbed) != first


class TestServicePooled:
    def test_pooled_service_matches_batch_cold_and_warm(self, trained):
        """The acceptance criterion: workers >= 2, cache cold then warm,
        byte-identical to ``evaluate_system(..., workers=1)``."""
        batch = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=4, seed=11, workers=1)
        service = EvaluationService(trained, workers=2, slots=8)
        cold = service.serve(job_requests("corki-5", 11, 4))
        assert [result.cached for result in cold] == [False] * 4
        assert_serves_batch(cold, batch)
        warm = service.serve(job_requests("corki-5", 11, 4))
        assert [result.cached for result in warm] == [True] * 4
        assert_serves_batch(warm, batch)

    def test_pooled_mixed_burst_matches_batches(self, trained):
        corki = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=2, seed=13)
        base = evaluate_system(trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=13)
        service = EvaluationService(trained, workers=2)
        results = service.serve(
            job_requests("corki-5", 13, 2) + job_requests("roboflamingo", 13, 2)
        )
        assert_serves_batch(results[:2], corki)
        assert_serves_batch(results[2:], base)


# -- the JSONL surface ---------------------------------------------------------


class TestJsonlProtocol:
    def run_lines(self, trained, lines):
        from repro.serving.__main__ import main

        out = io.StringIO()
        stdin = io.StringIO("\n".join(lines) + "\n")
        assert main(["--slots", "2"], policies=trained, stdin=stdin, stdout=out) == 0
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_stats_and_errors_do_not_break_the_loop(self, trained):
        request = job_requests("roboflamingo", 17, 1)[0]
        lines = [
            "this is not json",
            json.dumps({"id": "bad", "system": "corki-5", "seed": 1}),  # no instructions
            json.dumps(  # a typo'd instruction must not kill the loop
                {"id": "typo", "system": "corki-5", "instruction": "levitate", "seed": 1}
            ),
            json.dumps({"op": "stats"}),
            json.dumps(
                {
                    "id": "ok",
                    "system": request.system,
                    "instruction": request.instructions[0],
                    "seed": request.seed,
                }
            ),
        ]
        responses = self.run_lines(trained, lines)
        assert "error" in responses[0]
        assert responses[1]["id"] == "bad" and "error" in responses[1]
        assert responses[2]["id"] == "typo" and "unknown instruction" in responses[2]["error"]
        assert "stats" in responses[3]
        # single-instruction shorthand serves lane 0 of the request's seed
        assert responses[4]["id"] == "ok" and len(responses[4]["successes"]) >= 1

    def test_repro_serve_main_cold_then_warm(self, trained, tmp_path):
        """The ``repro-serve`` surface end to end: two service processes
        sharing a disk cache -- the second serves every request cached."""
        from repro.serving.__main__ import main

        requests = job_requests("corki-5", 19, 2)
        lines = "\n".join(
            json.dumps(
                {
                    "id": f"r{request.lane}",
                    "system": request.system,
                    "instructions": list(request.instructions),
                    "seed": request.seed,
                    "lane": request.lane,
                }
            )
            for request in requests
        ) + "\n"
        argv = ["--workers", "2", "--cache-dir", str(tmp_path)]
        cold_out = io.StringIO()
        assert main(argv, policies=trained, stdin=io.StringIO(lines), stdout=cold_out) == 0
        warm_out = io.StringIO()
        assert main(argv, policies=trained, stdin=io.StringIO(lines), stdout=warm_out) == 0
        cold = [json.loads(line) for line in cold_out.getvalue().splitlines()]
        warm = [json.loads(line) for line in warm_out.getvalue().splitlines()]
        assert [response["cached"] for response in cold] == [False, False]
        assert [response["cached"] for response in warm] == [True, True]
        for a, b in zip(cold, warm):
            assert a["successes"] == b["successes"]
            assert a["frames"] == b["frames"]
            assert a["executed_steps"] == b["executed_steps"]


class TestProfileThreading:
    def test_result_cache_dir_flows_into_experiment_context(self, trained, tmp_path, monkeypatch):
        """`--result-cache` reruns of tbl1 must produce identical reports
        while rolling nothing the second time."""
        from repro.experiments.accuracy_tables import accuracy_table
        from repro.experiments.context import ExperimentContext
        from repro.experiments.profiles import QUICK

        monkeypatch.setattr(ExperimentContext, "policies", lambda self: trained)
        profile = dataclasses.replace(
            QUICK, jobs=2, result_cache_dir=str(tmp_path / "cache")
        )
        first = accuracy_table("seen", profile)
        # A fresh context simulates a rerun of the CLI in a new process.
        import repro.experiments.context as context_module

        monkeypatch.setattr(context_module, "_SHARED", None)
        second = accuracy_table("seen", profile)
        assert first == second
        assert list((tmp_path / "cache").glob("*.npz"))


# -- pipeline-cost estimates on responses --------------------------------------


class TestServedEstimates:
    """The estimate block is a pure function of the request and its traces:
    cache hits, duplicates, and fresh rolls must all carry identical
    estimates, and pre-schema-bump payloads must re-roll rather than serve
    estimate-less (or stale-layout) results."""

    def strip_schema_marker(self, payload: bytes) -> bytes:
        """Re-encode an npz payload the way the pre-bump schema wrote it."""
        arrays = dict(np.load(io.BytesIO(payload)))
        del arrays["schema"]
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        return buffer.getvalue()

    def test_fresh_and_cached_estimates_are_identical(self, trained):
        service = EvaluationService(trained, workers=1, slots=2)
        requests = job_requests("corki-5", 11, 2)
        fresh = service.serve(requests)
        warm = service.serve(requests)
        for request, cold, hot in zip(requests, fresh, warm):
            assert cold.estimate is not None
            assert not cold.cached and hot.cached
            assert cold.estimate == hot.estimate
            assert cold.estimate == estimate_for_request(request, cold.traces)
            assert cold.estimate.system == "corki-5"
            assert cold.estimate.frames == sum(t.frames for t in cold.traces)

    def test_duplicates_in_one_drain_share_the_estimate(self, trained):
        service = EvaluationService(trained, workers=1, slots=2)
        request = job_requests("corki-5", 11, 1)[0]
        primary, duplicate = service.serve([request, request])
        assert primary.estimate == duplicate.estimate

    def test_jsonl_response_carries_the_estimate(self, trained):
        from repro.serving.jsonl import response_to_json

        service = EvaluationService(trained, workers=1, slots=2)
        result = service.serve(job_requests("corki-5", 11, 1))[0]
        response = response_to_json(result, "r1")
        assert response["estimate"] == result.estimate.to_json()
        for field in ("system", "frames", "mean_latency_ms", "mean_energy_j"):
            assert field in response["estimate"]

    def test_decode_rejects_pre_bump_payloads(self, trained):
        traces = evaluate_system(trained, "corki-5", SEEN_LAYOUT, jobs=1, seed=3).traces
        with pytest.raises(ValueError, match="schema"):
            decode_traces(self.strip_schema_marker(encode_traces(traces)))

    def test_pre_bump_entry_is_evicted_and_rerolled(self, trained):
        """A payload written before the schema bump, planted under the
        current key, must count as corrupt and re-roll -- with the re-rolled
        response carrying the same estimate a fresh one would."""
        service = EvaluationService(trained, workers=1, slots=2)
        request = job_requests("corki-5", 11, 1)[0]
        fresh = service.serve([request])[0]
        (key, payload), = service.cache._entries.items()
        service.cache._entries[key] = self.strip_schema_marker(payload)
        rerolled = service.serve([request])[0]
        assert not rerolled.cached
        assert service.cache.corrupt == 1
        assert rerolled.estimate == fresh.estimate
        for a, b in zip(fresh.traces, rerolled.traces):
            assert_traces_equal(a, b)

    def test_schema_string_is_part_of_the_key(self, trained, monkeypatch):
        import repro.serving.cache as cache_module

        kwargs = dict(
            policy=policy_digest(trained), system="corki-5", layout_name="seen",
            seed=3, lane=0, instructions=("x",),
        )
        before = result_key(**kwargs)
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA", "repro-result-cache/1")
        assert result_key(**kwargs) != before
