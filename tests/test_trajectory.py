"""Tests for the cubic trajectory representation and fitting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import CubicTrajectory, fit_cubic, polynomial_design_matrix
from repro.core.trajectory import pose_batch


def make_trajectory(coefficients=None, steps=9, duration=0.3):
    coefficients = (
        coefficients
        if coefficients is not None
        else np.vstack([np.array([0.0, 0.0, 0.1, 0.0])] + [np.zeros(4)] * 5)
    )
    return CubicTrajectory(
        origin=np.zeros(6),
        coefficients=coefficients,
        duration=duration,
        gripper_open=np.ones(steps, dtype=bool),
    )


class TestEvaluation:
    def test_pose_at_zero_is_origin_plus_constant(self):
        trajectory = make_trajectory()
        assert np.allclose(trajectory.pose(0.0), np.zeros(6))

    def test_linear_trajectory_endpoints(self):
        trajectory = make_trajectory()  # r(tau) = 0.1 tau on x
        assert trajectory.pose(trajectory.duration)[0] == pytest.approx(0.1)
        assert trajectory.pose(trajectory.duration / 2)[0] == pytest.approx(0.05)

    def test_pose_clamps_beyond_duration(self):
        trajectory = make_trajectory()
        assert np.allclose(trajectory.pose(10.0), trajectory.pose(trajectory.duration))

    def test_velocity_of_linear_trajectory(self):
        trajectory = make_trajectory(duration=0.5)
        # dx/dt = 0.1 / 0.5 = 0.2 m/s everywhere
        assert trajectory.velocity(0.1)[0] == pytest.approx(0.2)

    def test_acceleration_of_quadratic(self):
        coefficients = np.vstack([np.array([0.0, 0.2, 0.0, 0.0])] + [np.zeros(4)] * 5)
        trajectory = make_trajectory(coefficients, duration=0.3)
        # d2x/dt2 = 2 * 0.2 / 0.3^2
        assert trajectory.acceleration(0.1)[0] == pytest.approx(2 * 0.2 / 0.09)

    def test_velocity_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        coefficients = rng.normal(size=(6, 4)) * 0.05
        trajectory = make_trajectory(coefficients)
        t, eps = 0.15, 1e-6
        numeric = (trajectory.pose(t + eps) - trajectory.pose(t - eps)) / (2 * eps)
        assert np.allclose(trajectory.velocity(t), numeric, atol=1e-6)

    def test_waypoints_shape_and_spacing(self):
        trajectory = make_trajectory()
        waypoints = trajectory.waypoints()
        assert waypoints.shape == (9, 6)
        # Linear in tau: equally spaced x values.
        assert np.allclose(np.diff(waypoints[:, 0]), 0.1 / 9, atol=1e-12)

    def test_gripper_at_step_clamps(self):
        trajectory = make_trajectory()
        trajectory.gripper_open[-1] = False
        assert trajectory.gripper_at_step(9) is False
        assert trajectory.gripper_at_step(99) is False
        assert trajectory.gripper_at_step(1) is True

    def test_step_dt(self):
        trajectory = make_trajectory(steps=9, duration=0.3)
        assert trajectory.step_dt == pytest.approx(0.3 / 9)


class TestFitting:
    offsets_arrays = arrays(
        np.float64, (9, 3), elements=st.floats(-0.05, 0.05, width=64)
    )

    def test_exact_fit_of_cubic_data(self):
        rng = np.random.default_rng(1)
        true = rng.normal(size=(2, 4)) * 0.1
        true[:, 3] = 0.0  # start at origin
        tau = np.arange(1, 10) / 9
        data = polynomial_design_matrix(tau) @ true.T
        fitted = fit_cubic(data)
        assert np.allclose(fitted, true, atol=1e-9)

    def test_constrained_fit_passes_through_origin(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(9, 6)) * 0.01
        coefficients = fit_cubic(data, constrain_start=True)
        assert np.allclose(coefficients[:, 3], np.zeros(6))

    @given(offsets_arrays)
    def test_fit_smooths_noise(self, offsets):
        """The cubic fit's residual energy never exceeds the data's energy."""
        coefficients = fit_cubic(offsets, constrain_start=False)
        tau = np.arange(1, 10) / 9
        reconstruction = polynomial_design_matrix(tau) @ coefficients.T
        residual = offsets - reconstruction
        assert np.sum(residual**2) <= np.sum(offsets**2) + 1e-12

    def test_fit_denoises_known_line(self):
        """Noise on a linear motion shrinks after cubic fitting (Eq. 5's point)."""
        rng = np.random.default_rng(3)
        tau = np.arange(1, 10) / 9
        clean = np.outer(tau, [0.05, 0.0, 0.0])
        noisy = clean + rng.normal(0.0, 0.004, size=clean.shape)
        coefficients = fit_cubic(noisy)
        reconstruction = polynomial_design_matrix(tau) @ coefficients.T
        noise_before = np.abs(noisy - clean).mean()
        noise_after = np.abs(reconstruction - clean).mean()
        assert noise_after < noise_before


class TestPoseBatch:
    """The fleet runner's batched evaluator must equal per-lane pose()."""

    def _random_trajectories(self, rng, count):
        trajectories = []
        for k in range(count):
            steps = int(rng.integers(3, 12))
            trajectories.append(
                CubicTrajectory(
                    origin=rng.normal(size=6),
                    coefficients=rng.normal(size=(6, 4)),
                    duration=float(rng.uniform(0.1, 0.6)),
                    gripper_open=rng.integers(0, 2, size=steps).astype(bool),
                )
            )
        return trajectories

    @staticmethod
    def _pose_batch(trajectories, times):
        """``pose_batch`` over the trajectories' stacked arrays."""
        return pose_batch(
            np.stack([t.origin for t in trajectories]),
            np.stack([t.coefficients for t in trajectories]),
            np.array([t.duration for t in trajectories]),
            times,
        )

    def test_bitwise_equal_to_scalar_pose(self, rng):
        for count in (1, 2, 7, 32):
            trajectories = self._random_trajectories(rng, count)
            times = rng.uniform(-0.05, 0.8, size=count)  # includes clamp edges
            batched = self._pose_batch(trajectories, times)
            scalar = np.stack(
                [t.pose(float(time)) for t, time in zip(trajectories, times)]
            )
            assert np.array_equal(batched, scalar)

    def test_execution_time_grid(self, rng):
        """The exact call pattern of the fleet tick: the per-lane step times
        ``step * (duration / steps)`` over one shared duration."""
        trajectories = self._random_trajectories(rng, 9)
        for trajectory in trajectories:
            trajectory.duration = 0.3
        steps = np.array([int(rng.integers(1, t.steps + 1)) for t in trajectories])
        counts = np.array([t.steps for t in trajectories])
        durations = np.full(len(trajectories), 0.3)
        batched = pose_batch(
            np.stack([t.origin for t in trajectories]),
            np.stack([t.coefficients for t in trajectories]),
            durations,
            steps * (durations / counts),
        )
        for k, (trajectory, step) in enumerate(zip(trajectories, steps.tolist())):
            assert np.array_equal(batched[k], trajectory.pose(step * trajectory.step_dt))
