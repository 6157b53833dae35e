"""Tests for multi-process sharded fleet evaluation (`repro.analysis.parallel`).

The headline property: sharding an evaluation across OS processes changes
*no byte* of its output -- per-lane randomness is keyed on the global lane
index, policies round-trip through npz exactly, and traces merge in lane
order.  Asserted here at three levels: raw traces, the per-family matrix,
and the formatted Tbl. 1 report the CLI prints.

Also covers the satellite bugfixes that share this seam: the re-keyed
``(seed, lane)`` RNG streams (adjacent seeds used to collide bit-for-bit)
and Corki-SW's list aliasing in ``evaluate_all_systems``.
"""

import atexit
import copy
import dataclasses
import hashlib
import multiprocessing
import pickle
from multiprocessing.synchronize import SemLock

import numpy as np
import pytest

import repro.analysis.evaluation as evaluation
import repro.analysis.parallel as parallel
from repro.analysis.evaluation import (
    LaneSpec,
    TrainedPolicies,
    evaluate_all_systems,
    evaluate_system,
    evaluate_system_families,
    lane_generators,
)
from repro.analysis.parallel import (
    EvaluationPool,
    archive_policies,
    lease_pool,
    release_pool,
    restore_policies,
    run_sharded,
    shard_lanes,
    shutdown_pools,
)
from repro.serving.cache import policy_digest
from repro.sim.dataset import ActionNormalizer
from repro.core.runner import EpisodeTrace
from repro.sim.tasks import TASK_FAMILIES
from repro.sim.world import SEEN_LAYOUT


@pytest.fixture(scope="module")
def trained(tiny_policies):
    """One TrainedPolicies object per module, so the worker-pool cache
    (keyed on policy identity) spawns each pool exactly once."""
    baseline, corki, _ = tiny_policies
    return TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


def assert_traces_equal(a, b):
    assert a.success == b.success
    assert a.frames == b.frames
    assert a.executed_steps == b.executed_steps
    assert np.array_equal(a.ee_path, b.ee_path)
    assert np.array_equal(a.reference_path, b.reference_path)
    assert np.array_equal(a.gripper_path, b.gripper_path)


class TestShardLanes:
    def test_partition_covers_lane_space(self):
        ranges = shard_lanes(10, 4)
        assert ranges == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_workers_than_lanes_drops_empty_ranges(self):
        assert shard_lanes(2, 4) == [(0, 1), (1, 2)]

    def test_single_worker(self):
        assert shard_lanes(5, 1) == [(0, 5)]


class TestPolicyArchive:
    def test_roundtrip_is_bitwise(self, trained):
        restored = restore_policies(archive_policies(trained))
        observation = np.linspace(-1.0, 1.0, trained.baseline.observation_dim)
        original = trained.corki.encode_frame_token(observation, 3)
        roundtripped = restored.corki.encode_frame_token(observation, 3)
        assert np.array_equal(original, roundtripped)
        assert np.array_equal(
            trained.baseline.normalizer.scale, restored.baseline.normalizer.scale
        )
        assert restored.demos_per_task == trained.demos_per_task

    def test_mismatched_normalizers_are_refused(self, trained, tiny_policies):
        """The archive carries one action scale, installed on both policies
        by ``restore_policies``.  A pair whose trainers fit different
        normalizers must not archive, digest or ship to workers as that
        one scale -- pool workers would roll Corki lanes mis-scaled."""
        corki = copy.deepcopy(trained.corki)
        corki.set_normalizer(ActionNormalizer.fit(tiny_policies[2][:5]))
        assert not np.array_equal(corki.normalizer.scale, trained.baseline.normalizer.scale)
        mismatched = TrainedPolicies(trained.baseline, corki, 3, 1)
        with pytest.raises(ValueError, match="normalizer"):
            archive_policies(mismatched)
        with pytest.raises(ValueError, match="normalizer"):
            policy_digest(mismatched)
        with pytest.raises(ValueError, match="normalizer"):
            evaluate_system(mismatched, "corki-5", SEEN_LAYOUT, jobs=2, workers=2)


class TestPoolStartup:
    def test_pool_arguments_carry_no_archive_bytes(self, trained, monkeypatch):
        """Spawn pickles the initializer arguments into each worker's
        start-up pipe, and the parent's write waits for the worker to read
        them; the archive ships as a file, so only its path, the sha256 of
        its bytes and the readiness semaphore travel there."""
        captured = {}

        class NoWorkers:
            def terminate(self):
                pass

            def join(self):
                pass

        def capture(**kwargs):
            captured.update(kwargs)
            return NoWorkers()

        context = multiprocessing.get_context("spawn")
        monkeypatch.setattr(context, "Pool", capture)
        with EvaluationPool(archive_policies(trained), 2) as pool:
            arguments = [value for key, value in captured.items() if key != "initargs"]
            for argument in [*arguments, *captured["initargs"]]:
                if not isinstance(argument, SemLock):
                    assert len(pickle.dumps(argument)) < 4096
            path, digest, _ = captured["initargs"]
            with open(path, "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest
        assert pool._archive_path == path

    def test_lease_cycles_register_the_atexit_hook_once(self, monkeypatch):
        """Each lease/release cycle used to register ``shutdown_pools``
        again, growing the atexit list once per pooled service a process
        opened and closed."""
        registered = []

        class IdlePool:
            def __init__(self, archive, workers):
                pass

            def close(self):
                pass

        policies = object()  # a stand-in: nothing is archived or spawned
        monkeypatch.setattr(atexit, "register", registered.append)
        monkeypatch.setattr(parallel, "archive_policies", lambda policies: None)
        monkeypatch.setattr(parallel, "EvaluationPool", IdlePool)
        monkeypatch.setattr(parallel, "_POOL_CACHE", {})
        monkeypatch.setattr(parallel, "_LEASE_COUNTS", {})
        for _ in range(3):
            lease_pool(policies, 2)
            release_pool(policies, 2)
        assert registered.count(shutdown_pools) <= 1


class TestShardedEvaluation:
    def test_traces_byte_identical_across_workers(self, trained):
        sequential = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, jobs=5, seed=11, workers=1
        )
        sharded = evaluate_system(
            trained, "corki-5", SEEN_LAYOUT, jobs=5, seed=11, workers=2
        )
        assert sharded.completed_counts == sequential.completed_counts
        assert np.array_equal(
            sharded.job_stats.success_at, sequential.job_stats.success_at
        )
        assert sharded.job_stats.average_length == sequential.job_stats.average_length
        assert len(sharded.traces) == len(sequential.traces)
        for a, b in zip(sequential.traces, sharded.traces):
            assert_traces_equal(a, b)

    def test_more_workers_than_lanes(self, trained):
        sequential = evaluate_system(
            trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=5, workers=1
        )
        sharded = evaluate_system(
            trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=5, workers=4
        )
        assert sharded.completed_counts == sequential.completed_counts
        for a, b in zip(sequential.traces, sharded.traces):
            assert_traces_equal(a, b)

    def test_family_matrix_identical_across_workers(self, trained):
        sequential, _ = evaluate_system_families(
            trained, "roboflamingo", SEEN_LAYOUT, episodes_per_task=1, workers=1
        )
        sharded, _ = evaluate_system_families(
            trained, "roboflamingo", SEEN_LAYOUT, episodes_per_task=1, workers=2
        )
        assert set(sharded) == set(TASK_FAMILIES)
        assert sharded == sequential

    @staticmethod
    def _crash_sharded(trained):
        """Dispatch a chunk whose instruction cannot resolve in a worker."""
        ghost = ("summon a task nobody registered",)
        run_sharded(
            trained,
            [LaneSpec("roboflamingo", SEEN_LAYOUT, 1, lane, ghost) for lane in range(2)],
            fleet_size=32, workers=2,
        )

    def test_worker_crash_surfaces_an_error(self, trained):
        """A chunk whose instruction cannot resolve raises instead of
        silently dropping its lanes."""
        with pytest.raises(KeyError, match="unknown instruction"):
            self._crash_sharded(trained)

    def test_zero_lanes_yields_empty_result_without_spawning(self, trained):
        """Matches the in-process path: no lanes -> no traces, no pool."""
        assert run_sharded(trained, [], fleet_size=32, workers=2) == []

    def test_pool_survives_a_failed_chunk(self, trained):
        """After a chunk failure the cached pool still serves good chunks."""
        with pytest.raises(KeyError):
            self._crash_sharded(trained)
        sequential = evaluate_system(
            trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=5, workers=1
        )
        sharded = evaluate_system(
            trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=5, workers=2
        )
        assert sharded.completed_counts == sequential.completed_counts


class TestTbl1ByteIdentity:
    def test_report_byte_identical_across_workers(self, trained, monkeypatch):
        """The acceptance criterion: `--workers 4 tbl1` == `--workers 1`.

        Exercised at reduced scale through the same code path the CLI runs
        (shared context -> evaluate_all_systems -> formatted table), with
        the profile's trained policies swapped for the tiny test pair.
        """
        from repro.experiments.accuracy_tables import accuracy_table
        from repro.experiments.context import ExperimentContext
        from repro.experiments.profiles import QUICK

        monkeypatch.setattr(ExperimentContext, "policies", lambda self: trained)
        base = dataclasses.replace(QUICK, jobs=3)
        report_1 = accuracy_table("seen", dataclasses.replace(base, workers=1))
        report_4 = accuracy_table("seen", dataclasses.replace(base, workers=4))
        assert report_1 == report_4


class TestSeedStreamKeying:
    def test_lane_streams_disjoint_within_a_seed(self):
        env_rng, feedback_rng = lane_generators(1234, 7)
        assert not np.array_equal(
            env_rng.random(16), feedback_rng.random(16)
        )

    def test_adjacent_seeds_do_not_share_streams(self):
        """Regression: `[seed + 1, lane]` / `[seed + 2, lane]` keying made
        seed S's feedback stream identical to seed S+1's env stream."""
        for seed in (0, 1234, 9999):
            for lane in (0, 3):
                _, feedback_here = lane_generators(seed, lane)
                env_next, _ = lane_generators(seed + 1, lane)
                assert not np.array_equal(
                    feedback_here.random(16), env_next.random(16)
                )

    def test_adjacent_seeds_produce_distinct_episodes(self, trained):
        """Behavioral form of the regression: evaluations one seed apart
        must not share scene randomness."""
        here = evaluate_system(trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=21)
        there = evaluate_system(trained, "roboflamingo", SEEN_LAYOUT, jobs=2, seed=22)
        assert any(
            a.ee_path.shape != b.ee_path.shape or not np.array_equal(a.ee_path, b.ee_path)
            for a, b in zip(here.traces, there.traces)
        )


class TestCorkiSwCopies:
    def test_corki_sw_lists_are_independent(self, monkeypatch):
        """Regression: corki-sw aliased corki-5's trace/count *list objects*,
        so mutating one silently corrupted the other."""
        systems = ["roboflamingo", *evaluation.VARIATIONS]

        def fake_roll_specs(runner, specs, fleet_size):
            """One successful episode per lane; its frame count tags the system."""
            return [
                [EpisodeTrace(
                    success=True, frames=systems.index(spec.system) + 2,
                    executed_steps=[1], ee_path=np.zeros((1, 6)),
                    reference_path=np.zeros((1, 6)), gripper_path=np.zeros(1),
                )]
                for spec in specs
            ]

        monkeypatch.setattr(evaluation, "roll_specs", fake_roll_specs)
        # The in-process roll builds its runner from the policies, then the fake runs.
        policies = TrainedPolicies(baseline=None, corki=None, demos_per_task=0, epochs=0)
        results = evaluate_all_systems(policies, SEEN_LAYOUT, jobs=1)
        corki5, corki_sw = results["corki-5"], results["corki-sw"]
        assert [trace.frames for trace in corki5.traces] == [systems.index("corki-5") + 2]
        assert corki_sw.traces == corki5.traces
        assert corki_sw.completed_counts == corki5.completed_counts
        assert corki_sw.traces is not corki5.traces
        assert corki_sw.completed_counts is not corki5.completed_counts
        corki5_traces = list(corki5.traces)
        corki_sw.traces.append("mutation")
        corki_sw.completed_counts.append(0)
        assert corki5.traces == corki5_traces
        assert corki5.completed_counts == [1]
