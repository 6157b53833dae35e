"""Tests for the policy heads, masking patterns and trainers."""

import numpy as np
import pytest

from repro.core import (
    PREDICTION_HORIZON,
    WINDOW_LENGTH,
    BaselinePolicy,
    CorkiPolicy,
    TrainingConfig,
    build_baseline_dataset,
    build_corki_dataset,
    deployment_slot_pattern,
    train_baseline,
    train_corki,
)
from repro.sim import (
    OBSERVATION_DIM,
    SEEN_LAYOUT,
    TASKS,
    ActionNormalizer,
    collect_demonstrations,
    corki_targets,
)


@pytest.fixture(scope="module")
def small_demos():
    return collect_demonstrations(SEEN_LAYOUT, np.random.default_rng(0), per_task=2)


class TestSlotPattern:
    def test_newest_slot_always_real(self, rng):
        for period in range(1, 10):
            real, _ = deployment_slot_pattern(WINDOW_LENGTH, period, rng)
            assert real[-1]

    def test_period_one_keeps_everything(self, rng):
        real, feedback = deployment_slot_pattern(WINDOW_LENGTH, 1, rng)
        assert real.all()
        assert not feedback.any()

    def test_real_slots_spaced_by_period(self, rng):
        real, _ = deployment_slot_pattern(WINDOW_LENGTH, 4, rng, closed_loop=False)
        indices = np.flatnonzero(real)
        assert np.all(np.diff(indices) == 4)

    def test_feedback_never_overlaps_real(self, rng):
        for _ in range(20):
            real, feedback = deployment_slot_pattern(WINDOW_LENGTH, 5, rng)
            assert not (real & feedback).any()

    def test_closed_loop_disabled(self, rng):
        _, feedback = deployment_slot_pattern(WINDOW_LENGTH, 5, rng, closed_loop=False)
        assert not feedback.any()


class TestBaselinePolicy:
    def test_forward_shapes(self, rng):
        policy = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        windows = rng.normal(size=(4, WINDOW_LENGTH, OBSERVATION_DIM))
        pose, gripper = policy(windows, np.zeros(4, dtype=int))
        assert pose.shape == (4, 6)
        assert gripper.shape == (4, 1)

    def test_predict_returns_physical_delta(self, rng):
        policy = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        policy.set_normalizer(ActionNormalizer(np.full(6, 0.01)))
        window = rng.normal(size=(WINDOW_LENGTH, OBSERVATION_DIM))
        tokens = policy.encode_frame_token_batch(window, np.zeros(WINDOW_LENGTH, dtype=int))
        # The VLM mixes no frames: one frame at a time equals the whole window.
        assert np.array_equal(tokens, policy.vlm.infer(window[None], np.zeros(1, dtype=int))[0])
        deltas, grippers_open = policy.predict_token_batch(tokens[None])
        assert deltas.shape == (1, 6)
        assert grippers_open.shape == (1,) and grippers_open.dtype == bool
        assert np.all(np.abs(deltas) < 0.1)  # normalised outputs x 1 cm scale

    def test_dataset_construction(self, small_demos):
        normalizer = ActionNormalizer.fit(small_demos)
        windows, instructions, poses, grippers = build_baseline_dataset(
            small_demos, normalizer
        )
        expected = sum(len(demo) - 1 for demo in small_demos)
        assert len(windows) == len(instructions) == len(poses) == len(grippers) == expected
        assert windows.shape[1:] == (WINDOW_LENGTH, OBSERVATION_DIM)
        # Normalised targets should be O(1).
        assert 0.1 < np.abs(poses).mean() < 3.0


def _reference_window(demo, t):
    """The pre-vectorisation per-row window gather, frozen as an oracle."""
    indices = np.clip(np.arange(t - WINDOW_LENGTH + 1, t + 1), 0, len(demo) - 1)
    return demo.observations[indices]


class TestVectorizedDatasetBuilders:
    """Array-indexed builders must be element-for-element the per-row loops."""

    def test_baseline_builder_matches_per_row_reference(self, small_demos):
        normalizer = ActionNormalizer.fit(small_demos)
        windows, instructions, poses, grippers = build_baseline_dataset(
            small_demos, normalizer
        )
        row = 0
        for demo in small_demos:
            for t in range(len(demo) - 1):
                assert np.array_equal(windows[row], _reference_window(demo, t))
                assert instructions[row] == demo.instruction_id
                assert np.array_equal(
                    poses[row], normalizer.normalize(demo.poses[t + 1] - demo.poses[t])
                )
                assert grippers[row, 0] == float(demo.gripper_open[t + 1])
                row += 1
        assert row == len(windows)

    def test_corki_builder_matches_corki_targets(self, small_demos):
        normalizer = ActionNormalizer.fit(small_demos)
        horizon = PREDICTION_HORIZON
        windows, instructions, offsets, grippers = build_corki_dataset(
            small_demos, normalizer, horizon
        )
        assert offsets.shape[1:] == (horizon + 1, 6)
        assert grippers.shape[1] == horizon
        row = 0
        for demo in small_demos:
            for t in range(len(demo) - 1):
                assert np.array_equal(windows[row], _reference_window(demo, t))
                assert instructions[row] == demo.instruction_id
                ref_offsets, ref_gripper = corki_targets(demo, t, horizon)
                assert np.array_equal(offsets[row, 0], np.zeros(6))
                assert np.array_equal(offsets[row, 1:], ref_offsets / normalizer.scale)
                assert np.array_equal(grippers[row], ref_gripper)
                row += 1
        assert row == len(windows)

    def test_corki_training_is_seed_for_seed_stable(self, small_demos):
        """Two runs from one seed produce identical losses and weights (the
        vectorised batch assembly consumes the generator exactly like the
        historical per-batch loops did)."""
        config = TrainingConfig(epochs=1, batch_size=16, seed=3)
        losses, weights = [], []
        for _ in range(2):
            policy = CorkiPolicy(
                OBSERVATION_DIM, len(TASKS), np.random.default_rng(5),
                token_dim=16, hidden_dim=24,
            )
            losses.append(train_corki(policy, small_demos, config))
            weights.append([p.data.copy() for p in policy.parameters()])
        assert losses[0] == losses[1]
        assert all(np.array_equal(a, b) for a, b in zip(*weights))


class TestCorkiPolicy:
    def test_forward_shapes(self, rng):
        policy = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        windows = rng.normal(size=(3, WINDOW_LENGTH, OBSERVATION_DIM))
        real = np.ones((3, WINDOW_LENGTH), dtype=bool)
        coefficients, gripper = policy(windows, np.zeros(3, dtype=int), real)
        assert coefficients.shape == (3, 6, 4)
        assert gripper.shape == (3, PREDICTION_HORIZON)

    def test_waypoint_offsets_match_basis(self, rng):
        policy = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        from repro.nn import Tensor

        coefficients = Tensor(rng.normal(size=(2, 6, 4)))
        waypoints = policy.waypoint_offsets(coefficients).numpy()
        tau = np.arange(0, PREDICTION_HORIZON + 1) / PREDICTION_HORIZON
        manual = np.einsum(
            "bdk,kj->bdj",
            coefficients.numpy(),
            np.stack([tau**3, tau**2, tau, np.ones_like(tau)]),
        )
        assert np.allclose(waypoints, manual)
        # j = 0 samples the constant coefficient only (Eq. 5 pins it to zero).
        assert np.allclose(waypoints[..., 0], coefficients.numpy()[..., 3])

    def test_mask_changes_prediction(self, rng):
        policy = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        windows = rng.normal(size=(1, WINDOW_LENGTH, OBSERVATION_DIM))
        all_real = np.ones((1, WINDOW_LENGTH), dtype=bool)
        sparse = np.zeros((1, WINDOW_LENGTH), dtype=bool)
        sparse[0, -1] = True
        full, _ = policy(windows, np.zeros(1, dtype=int), all_real)
        masked, _ = policy(windows, np.zeros(1, dtype=int), sparse)
        assert not np.allclose(full.numpy(), masked.numpy())

    def test_predict_trajectory_units(self, rng):
        policy = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        scale = np.full(6, 0.01)
        policy.set_normalizer(ActionNormalizer(scale))
        tokens = rng.normal(size=(WINDOW_LENGTH, 16))
        origin = np.array([0.1, -0.2, 0.15, 0.0, 0.0, 0.3])
        trajectory = policy.predict_trajectory(tokens, origin, step_dt=1 / 30)
        assert trajectory.steps == PREDICTION_HORIZON
        assert np.allclose(trajectory.pose(0.0), origin, atol=0.2)
        assert trajectory.duration == pytest.approx(PREDICTION_HORIZON / 30)

    def test_corki_targets_hold_final_pose(self, small_demos):
        demo = small_demos[0]
        offsets, gripper = corki_targets(demo, len(demo) - 1, PREDICTION_HORIZON)
        assert np.allclose(offsets, 0.0)
        assert gripper.shape == (PREDICTION_HORIZON,)


class TestTraining:
    def test_baseline_loss_decreases(self, small_demos, rng):
        policy = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        history = train_baseline(policy, small_demos, TrainingConfig(epochs=3, batch_size=64))
        assert history[-1] < history[0]

    def test_corki_loss_decreases(self, small_demos, rng):
        policy = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        history = train_corki(policy, small_demos, TrainingConfig(epochs=3, batch_size=64))
        assert history[-1] < history[0]

    def test_training_sets_normalizer(self, small_demos, rng):
        policy = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=16, hidden_dim=24)
        train_baseline(policy, small_demos, TrainingConfig(epochs=1, batch_size=64))
        assert not np.allclose(policy.normalizer.scale, np.ones(6))
