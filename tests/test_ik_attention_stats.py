"""Tests for the IK solver and the statistics helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.statistics import bootstrap_mean_ci, paired_bootstrap_difference
from repro.robot import end_effector_pose, forward_kinematics, panda
from repro.robot.ik import solve_ik, trajectory_to_joint_path

_PANDA = panda()


class TestInverseKinematics:
    def test_converges_to_reachable_pose(self):
        target = end_effector_pose(_PANDA, _PANDA.q_home)
        target[0] += 0.08
        target[2] -= 0.05
        result = solve_ik(_PANDA, target)
        assert result.converged
        assert result.position_error < 1e-4

    def test_solution_respects_joint_limits(self):
        target = end_effector_pose(_PANDA, _PANDA.q_home)
        target[1] += 0.15
        result = solve_ik(_PANDA, target)
        assert np.all(result.q >= _PANDA.q_lower - 1e-12)
        assert np.all(result.q <= _PANDA.q_upper + 1e-12)

    def test_unreachable_pose_reports_failure(self):
        target = np.array([2.0, 0.0, 0.5, 0.0, 0.0, 0.0])  # 2 m away
        result = solve_ik(_PANDA, target, max_iterations=50)
        assert not result.converged
        assert result.position_error > 0.5

    def test_roundtrip_fk_ik(self, rng):
        q_true = _PANDA.clamp_configuration(_PANDA.q_home + 0.2 * rng.normal(size=7))
        target = end_effector_pose(_PANDA, q_true)
        result = solve_ik(_PANDA, target)
        assert result.converged
        recovered = forward_kinematics(_PANDA, result.q)[:3, 3]
        assert np.allclose(recovered, target[:3], atol=1e-3)

    def test_trajectory_to_joint_path_continuity(self):
        start = end_effector_pose(_PANDA, _PANDA.q_home)
        poses = np.array([start + np.array([0.01 * k, 0, 0, 0, 0, 0]) for k in range(5)])
        path, converged = trajectory_to_joint_path(_PANDA, poses)
        assert converged
        # Consecutive solutions stay on one branch: small joint steps.
        assert np.abs(np.diff(path, axis=0)).max() < 0.2


class TestStatistics:
    def test_ci_contains_true_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(3.0, 1.0, size=200)
        ci = bootstrap_mean_ci(samples)
        assert 3.0 in ci
        assert ci.lower < ci.point < ci.upper

    def test_ci_width_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        small = bootstrap_mean_ci(rng.normal(size=20))
        large = bootstrap_mean_ci(rng.normal(size=2000))
        assert (large.upper - large.lower) < (small.upper - small.lower)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_mean_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_mean_ci(np.ones(3), confidence=1.5)

    def test_paired_difference_detects_shift(self):
        rng = np.random.default_rng(1)
        control = rng.normal(0.0, 1.0, size=300)
        treatment = control + 0.5
        ci = paired_bootstrap_difference(treatment, control)
        assert 0.0 not in ci
        assert ci.point == pytest.approx(0.5)

    def test_paired_requires_alignment(self):
        with pytest.raises(ValueError):
            paired_bootstrap_difference(np.ones(3), np.ones(4))

    @given(st.integers(0, 100))
    def test_ci_is_deterministic_given_seed(self, seed):
        samples = np.arange(10.0)
        a = bootstrap_mean_ci(samples, seed=seed)
        b = bootstrap_mean_ci(samples, seed=seed)
        assert a == b
