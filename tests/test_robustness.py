"""Failure-injection and edge-case tests across the stack."""

import numpy as np

from repro.core import VARIATIONS, FleetLane, FleetRunner
from repro.core.fleet import LaneArrays
from repro.sim import (
    PERFECT_ACTUATION,
    SEEN_LAYOUT,
    TASKS,
    ActuationModel,
    BatchedManipulationEnv,
    ManipulationEnv,
    collect_demonstrations,
)


class TestActuationDegradation:
    def test_noise_destroys_expert_success(self):
        """With centimetre-level actuation noise the expert must start failing.

        This is the physical channel through which control quality reaches
        task success -- the basis of the 30 Hz vs 100 Hz comparison.
        """
        clean = collect_demonstrations(
            SEEN_LAYOUT, np.random.default_rng(0), per_task=2, jitter_std=0.0,
            keep_failures=True,
        )
        noisy = collect_demonstrations(
            SEEN_LAYOUT, np.random.default_rng(0), per_task=2, jitter_std=0.02,
            keep_failures=True,
        )
        clean_rate = np.mean([demo.succeeded for demo in clean])
        noisy_rate = np.mean([demo.succeeded for demo in noisy])
        assert clean_rate == 1.0
        assert noisy_rate < clean_rate

    def test_low_tracking_gain_slows_approach(self):
        """A sluggish actuation model covers less ground per frame."""
        results = {}
        for gain in (1.0, 0.5):
            env = ManipulationEnv(
                SEEN_LAYOUT,
                np.random.default_rng(0),
                actuation=ActuationModel("test", tracking_gain=gain, noise_std=0.0),
            )
            env.reset(TASKS[0])
            start = env.scene.ee_pose.copy()
            target = start + np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
            env.step(target, True)
            results[gain] = env.scene.ee_pose[0] - start[0]
        assert results[0.5] < results[1.0]


class TestGraspBoundaries:
    def _env_with_block_at(self, offset):
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(0), actuation=PERFECT_ACTUATION)
        env.reset(TASKS[0])
        block = env.scene.blocks["red"]
        env.scene.ee_pose = np.array(
            [block.position[0] + offset, block.position[1], 0.03, 0.0, 0.0, 0.0]
        )
        return env

    def test_grasp_inside_radius(self):
        env = self._env_with_block_at(0.03)
        env.step(env.scene.ee_pose, False)
        assert env.scene.attached == "red"

    def test_grasp_outside_radius_fails(self):
        env = self._env_with_block_at(0.06)
        env.step(env.scene.ee_pose, False)
        assert env.scene.attached is None

    def test_grasp_too_high_fails(self):
        env = self._env_with_block_at(0.0)
        env.scene.ee_pose[2] = 0.15
        env.step(env.scene.ee_pose, False)
        assert env.scene.attached is None


class TestTokenWindow:
    """The Corki window gather of the fleet's lane store (one slot)."""

    @staticmethod
    def _store(corki):
        fleet = BatchedManipulationEnv([ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(0))])
        store = LaneArrays(fleet, None, corki)
        store.admit(
            0,
            FleetLane(
                tasks=[TASKS[0]], variation=VARIATIONS["corki-5"],
                rng=np.random.default_rng(1),
            ),
        )
        return store

    @staticmethod
    def _insert(store, frame, token, inference):
        store.insert_tokens(np.array([0]), np.array([frame]), token[None], inference)

    @staticmethod
    def _window(store, frame):
        store.frame[0] = frame
        return store.corki_windows(np.array([0]))[0]

    def test_feedback_token_enters_window(self, tiny_policies):
        _, corki, _ = tiny_policies
        store = self._store(corki)
        rng = np.random.default_rng(0)
        observation = rng.normal(size=corki.observation_dim)
        self._insert(store, 0, corki.encode_frame_token(observation, 0), inference=True)
        feedback = corki.encode_feedback_token(observation)
        self._insert(store, 3, feedback, inference=False)
        assembled = self._window(store, 5)
        mask = corki.mask_token()
        # Slot for frame 3 must differ from the mask embedding.
        slot = assembled[-(5 - 3) - 1]
        assert not np.allclose(slot, mask)
        assert np.array_equal(slot, feedback)

    def test_unencoded_slots_are_mask(self, tiny_policies):
        _, corki, _ = tiny_policies
        store = self._store(corki)
        rng = np.random.default_rng(0)
        token = corki.encode_frame_token(rng.normal(size=corki.observation_dim), 0)
        self._insert(store, 11, token, inference=True)
        assembled = self._window(store, 11)
        mask = corki.mask_token()
        assert np.array_equal(assembled[0], mask)  # frame 0 never encoded
        assert np.array_equal(assembled[-1], token)  # current frame is real

    def test_warmup_padding_uses_first_real_token(self, tiny_policies):
        _, corki, _ = tiny_policies
        store = self._store(corki)
        rng = np.random.default_rng(0)
        token = corki.encode_frame_token(rng.normal(size=corki.observation_dim), 0)
        self._insert(store, 0, token, inference=True)
        assembled = self._window(store, 0)
        # Negative frames (before episode start) repeat the first real token.
        assert np.array_equal(assembled, np.repeat(token[None], 12, axis=0))


class TestRunnerEdgeCases:
    def test_single_frame_budget(self, tiny_policies):
        _, corki, _ = tiny_policies
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(0))
        lane = FleetLane(
            tasks=[TASKS[0]], variation=VARIATIONS["corki-9"],
            rng=np.random.default_rng(1), max_frames=1,
        )
        trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
        assert trace.frames == 1
        assert trace.executed_steps == [1]

    def test_closed_loop_disabled_variation(self, tiny_policies):
        from repro.core.config import CorkiVariation

        _, corki, _ = tiny_policies
        variation = CorkiVariation("corki-open", execute_steps=5, closed_loop=False)
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(0))
        lane = FleetLane(
            tasks=[TASKS[0]], variation=variation,
            rng=np.random.default_rng(1), max_frames=15,
        )
        trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
        assert trace.frames <= 15
