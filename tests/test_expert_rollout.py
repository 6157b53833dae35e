"""The batched scripted-expert roller against its one-episode-at-a-time form.

``repro.sim.dataset.roll_expert_episodes`` steps every episode of a call as
a lane of one ``BatchedManipulationEnv``.  Demonstration collection and the
expert oracle used to be two scalar loops, one episode after another; both
are frozen below as the reference.  The roller must reproduce them byte for
byte: every ``Demonstration`` field, the count kept, every oracle outcome,
and the state of the caller's generator after the call (callers keep
drawing from it: the session fixtures initialise their policies from it).
The demonstrations are what the committed policy cache was trained on.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.evaluation import expert_oracle_outcomes
from repro.sim.dataset import (
    DEMO_JITTER_STD,
    Demonstration,
    collect_demonstrations,
    roll_expert_episodes,
)
from repro.sim.env import PERFECT_ACTUATION, ManipulationEnv
from repro.sim.expert import render_keyframes
from repro.sim.tasks import TASKS, Task
from repro.sim.world import SEEN_LAYOUT, UNSEEN_LAYOUT, SceneLayout

LAYOUTS = {"seen": SEEN_LAYOUT, "unseen": UNSEEN_LAYOUT}
ORACLE_PAIRS = [(index, episode) for index in range(len(TASKS)) for episode in range(2)]


# -- the frozen one-episode-at-a-time loops ---------------------------------------


def frozen_collect_demonstrations(
    layout: SceneLayout,
    rng: np.random.Generator,
    tasks: list[Task] | None = None,
    per_task: int = 8,
    jitter_std: float = DEMO_JITTER_STD,
    keep_failures: bool = False,
) -> list[Demonstration]:
    tasks = tasks if tasks is not None else TASKS
    env = ManipulationEnv(layout, rng, actuation=PERFECT_ACTUATION)
    demonstrations = []
    for task in tasks:
        for _ in range(per_task):
            demo = _frozen_expert_episode(env, task, rng, jitter_std)
            if demo.succeeded or keep_failures:
                demonstrations.append(demo)
    return demonstrations


def _frozen_expert_episode(
    env: ManipulationEnv, task: Task, rng: np.random.Generator, jitter_std: float
) -> Demonstration:
    observation = env.reset(task)
    assert env.scene is not None
    keyframes = task.expert(env.scene)
    expert = render_keyframes(env.scene.ee_pose, keyframes, env.frame_dt)

    observations = [observation]
    poses = [env.scene.ee_pose.copy()]
    gripper = [env.scene.gripper_open]
    for t in range(1, len(expert)):
        command = expert.poses[t].copy()
        command[:3] += rng.normal(0.0, jitter_std, size=3)
        command[5] += rng.normal(0.0, 2.0 * jitter_std)
        observation = env.step(command, bool(expert.gripper_open[t]))
        observations.append(observation)
        poses.append(env.scene.ee_pose.copy())
        gripper.append(env.scene.gripper_open)
    return Demonstration(
        instruction_id=task.instruction_id,
        observations=np.array(observations),
        poses=np.array(poses),
        clean_poses=expert.poses.copy(),
        gripper_open=np.array(gripper, dtype=bool),
        succeeded=env.succeeded,
    )


def oracle_generator(seed: int, index: int, episode: int) -> np.random.Generator:
    """The oracle's keyed stream for one ``(index, episode)`` pair."""
    return np.random.default_rng([seed, 5, index, episode])


def frozen_oracle_episode(
    layout: SceneLayout, index: int, episode: int, seed: int
) -> tuple[tuple[str, str, bool], np.ndarray]:
    """The scalar oracle episode; also returns the frames it observed."""
    task = TASKS[index]
    env = ManipulationEnv(
        layout,
        oracle_generator(seed, index, episode),
        actuation=PERFECT_ACTUATION,
        camera_noise_std=0.0,
    )
    frames = [env.reset(task)]
    assert env.scene is not None
    trajectory = render_keyframes(
        env.scene.ee_pose, task.expert(env.scene), env.frame_dt
    )
    for t in range(1, len(trajectory)):
        frames.append(env.step(trajectory.poses[t], bool(trajectory.gripper_open[t])))
    return (task.family, task.instruction, env.succeeded), np.array(frames)


# -- helpers ----------------------------------------------------------------------


def assert_same_demonstrations(batched, frozen):
    assert len(batched) == len(frozen)
    for new, ref in zip(batched, frozen):
        assert new.instruction_id == ref.instruction_id
        assert new.succeeded is ref.succeeded
        for field in ("observations", "poses", "clean_poses", "gripper_open"):
            new_array, ref_array = getattr(new, field), getattr(ref, field)
            assert new_array.dtype == ref_array.dtype, field
            assert new_array.shape == ref_array.shape, field
            assert new_array.tobytes() == ref_array.tobytes(), field


def collect_both(layout, seed, **kwargs):
    batched_rng = np.random.default_rng(seed)
    frozen_rng = np.random.default_rng(seed)
    batched = collect_demonstrations(layout, batched_rng, **kwargs)
    frozen = frozen_collect_demonstrations(layout, frozen_rng, **kwargs)
    return batched, frozen, batched_rng, frozen_rng


# -- demonstrations ---------------------------------------------------------------


class TestCollectDemonstrations:
    @given(
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from(sorted(LAYOUTS)),
        per_task=st.integers(0, 3),
        indices=st.lists(st.integers(0, len(TASKS) - 1), max_size=6),
        jitter_std=st.sampled_from([0.0, DEMO_JITTER_STD, 0.02]),
        keep_failures=st.booleans(),
    )
    @example(
        seed=1, layout="unseen", per_task=1, indices=None, jitter_std=DEMO_JITTER_STD,
        keep_failures=False,
    )
    @example(seed=2, layout="seen", per_task=2, indices=None, jitter_std=0.02, keep_failures=True)
    def test_matches_the_one_episode_loop(
        self, seed, layout, per_task, indices, jitter_std, keep_failures
    ):
        tasks = None if indices is None else [TASKS[index] for index in indices]
        batched, frozen, batched_rng, frozen_rng = collect_both(
            LAYOUTS[layout], seed, tasks=tasks, per_task=per_task,
            jitter_std=jitter_std, keep_failures=keep_failures,
        )
        assert_same_demonstrations(batched, frozen)
        assert batched_rng.bit_generator.state == frozen_rng.bit_generator.state

    def test_perfbench_train_collection(self):
        """The train benchmark's set-up: one demonstration per task."""
        batched, frozen, batched_rng, frozen_rng = collect_both(
            SEEN_LAYOUT, [1, 79], per_task=1
        )
        assert len(batched) == len(TASKS)
        assert_same_demonstrations(batched, frozen)
        assert batched_rng.bit_generator.state == frozen_rng.bit_generator.state

    def test_generator_continues_where_the_loop_left_it(self):
        """A later draw on the shared generator sees the same stream."""
        batched, frozen, batched_rng, frozen_rng = collect_both(
            UNSEEN_LAYOUT, 7, tasks=TASKS[:4], per_task=2
        )
        assert batched_rng.normal(size=8).tobytes() == frozen_rng.normal(size=8).tobytes()

    def test_failures_are_kept_or_dropped_alike(self):
        batched, frozen, _, _ = collect_both(
            SEEN_LAYOUT, 11, tasks=TASKS[:12], per_task=2, jitter_std=0.02,
            keep_failures=True,
        )
        assert_same_demonstrations(batched, frozen)
        assert not all(demo.succeeded for demo in batched), "jitter 0.02 fails some"

    def test_nothing_to_collect_draws_nothing(self):
        for kwargs in ({"per_task": 0}, {"tasks": []}):
            rng = np.random.default_rng(3)
            before = rng.bit_generator.state
            assert collect_demonstrations(SEEN_LAYOUT, rng, **kwargs) == []
            assert rng.bit_generator.state == before

    def test_one_frame_expert_rolls_no_step(self):
        task = TASKS[0]
        still = dataclasses.replace(task, expert=lambda scene: [])
        batched, frozen, batched_rng, frozen_rng = collect_both(
            SEEN_LAYOUT, 5, tasks=[still, task], per_task=2, keep_failures=True
        )
        assert [len(demo) for demo in batched[:2]] == [1, 1]
        assert_same_demonstrations(batched, frozen)
        assert batched_rng.bit_generator.state == frozen_rng.bit_generator.state


# -- the expert oracle ------------------------------------------------------------


class TestExpertOracle:
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_outcomes_and_frames_match_the_scalar_oracle(self, layout, seed):
        reference = [
            frozen_oracle_episode(LAYOUTS[layout], index, episode, seed)
            for index, episode in ORACLE_PAIRS
        ]
        assert expert_oracle_outcomes(LAYOUTS[layout], ORACLE_PAIRS, seed) == [
            outcome for outcome, _ in reference
        ]
        episodes = roll_expert_episodes(
            LAYOUTS[layout],
            [TASKS[index] for index, _ in ORACLE_PAIRS],
            [oracle_generator(seed, index, episode) for index, episode in ORACLE_PAIRS],
            jitter_std=None,
            camera_noise_std=0.0,
        )
        for episode, (_, frames) in zip(episodes, reference):
            assert episode.observations.tobytes() == frames.tobytes()

    def test_a_shard_reproduces_its_slice_of_the_sweep(self):
        """Keyed lanes: rolling any subset of pairs gives those pairs' outcomes."""
        full = expert_oracle_outcomes(UNSEEN_LAYOUT, ORACLE_PAIRS, seed=2)
        shard = ORACLE_PAIRS[5:29:3]
        assert expert_oracle_outcomes(UNSEEN_LAYOUT, shard, seed=2) == [
            full[ORACLE_PAIRS.index(pair)] for pair in shard
        ]
        assert expert_oracle_outcomes(UNSEEN_LAYOUT, [], seed=2) == []
