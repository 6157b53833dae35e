"""Cubic trajectory representation, the paper's core intermediate form.

Corki's policy predicts, for each of the six pose dimensions, a cubic
polynomial ``r(t) = a t^3 + b t^2 + c t + d`` (paper Eq. 4).  The cubic is
evaluated against ground-truth waypoints during training (Eq. 5) and sampled
by the controller at 100 Hz during execution.  Time is normalised to
``tau = t / duration`` inside the polynomial so that the four coefficients
have comparable magnitude -- the conditioning problem the paper reports when
supervising raw coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "CubicTrajectory",
    "TrajectoryBatch",
    "fit_cubic",
    "polynomial_design_matrix",
    "pose_batch",
]


def polynomial_design_matrix(tau: np.ndarray) -> np.ndarray:
    """Vandermonde rows ``[tau^3, tau^2, tau, 1]`` for normalised times."""
    tau = np.asarray(tau, dtype=float)
    return np.stack([tau**3, tau**2, tau, np.ones_like(tau)], axis=-1)


@dataclass
class CubicTrajectory:
    """A 6-DoF cubic pose trajectory plus a per-step gripper schedule.

    Attributes:
        origin: Pose ``[x, y, z, roll, pitch, yaw]`` at ``t = 0``.
        coefficients: Array of shape (6, 4): per-dimension ``[a, b, c, d]``
            acting on normalised time; values are pose *offsets* in
            metres/radians relative to ``origin``.
        duration: Physical length of the trajectory in seconds.
        gripper_open: Boolean array (steps,), the commanded gripper state at
            each waypoint step.
    """

    origin: np.ndarray
    coefficients: np.ndarray
    duration: float
    gripper_open: np.ndarray

    @property
    def steps(self) -> int:
        """Number of waypoint steps the trajectory covers."""
        return len(self.gripper_open)

    def _tau(self, t: float | np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(t, dtype=float) / self.duration, 0.0, 1.0)

    def pose(self, t: float) -> np.ndarray:
        """Absolute pose at time ``t`` seconds into the trajectory."""
        basis = polynomial_design_matrix(self._tau(t))
        return self.origin + self.coefficients @ basis

    def velocity(self, t: float) -> np.ndarray:
        """Pose rate (d pose / dt) at time ``t`` (physical seconds)."""
        tau = float(self._tau(t))
        dbasis = np.array([3.0 * tau**2, 2.0 * tau, 1.0, 0.0]) / self.duration
        return self.coefficients @ dbasis

    def acceleration(self, t: float) -> np.ndarray:
        """Pose acceleration at time ``t`` (physical seconds)."""
        tau = float(self._tau(t))
        ddbasis = np.array([6.0 * tau, 2.0, 0.0, 0.0]) / self.duration**2
        return self.coefficients @ ddbasis

    def waypoints(self, steps: int | None = None) -> np.ndarray:
        """Sample ``steps`` equally spaced waypoints (shape (steps, 6)).

        Waypoint ``j`` (1-based) sits at ``t = j * duration / steps``; the
        starting pose is not included, matching Algorithm 1's labelling where
        point A is the start and B..F are the waypoints.
        """
        steps = steps or self.steps
        tau = np.arange(1, steps + 1) / steps
        return self.origin + polynomial_design_matrix(tau) @ self.coefficients.T

    @property
    def step_dt(self) -> float:
        """Physical time between consecutive waypoints."""
        return self.duration / self.steps

    def gripper_at_step(self, step: int) -> bool:
        """Commanded gripper state at 1-based waypoint ``step``.

        Early termination executes only a prefix of the waypoints; callers
        pass the original step index, so no re-slicing is ever needed.
        """
        return bool(self.gripper_open[min(step, self.steps) - 1])


class TrajectoryBatch(NamedTuple):
    """``L`` cubic trajectories of one duration, as arrays (lane axis first).

    The batched form of :class:`CubicTrajectory` that
    :meth:`repro.core.policy.CorkiPolicy.predict_trajectory_batch` returns:
    ``origins`` ``(L, 6)``, physical ``coefficients`` ``(L, 6, 4)`` and the
    per-step ``gripper_open`` schedules ``(L, steps)``.  The fleet runner
    stores the arrays per slot; :meth:`trajectory` builds one lane's object.
    """

    origins: np.ndarray
    coefficients: np.ndarray
    duration: float
    gripper_open: np.ndarray

    def trajectory(self, lane: int) -> CubicTrajectory:
        """Lane ``lane`` as a :class:`CubicTrajectory` (origin copied)."""
        return CubicTrajectory(
            origin=self.origins[lane].copy(),
            coefficients=self.coefficients[lane],
            duration=self.duration,
            gripper_open=self.gripper_open[lane],
        )


def pose_batch(
    origins: np.ndarray,
    coefficients: np.ndarray,
    durations: float | np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """Evaluate ``N`` cubics, each at its own time, in one call.

    Row ``k`` is ``CubicTrajectory(origins[k], coefficients[k],
    durations[k], ...).pose(times[k])``; ``durations`` may be one shared
    duration.  This is the fleet runner's per-tick command evaluator: every
    Corki lane mid-trajectory needs its cubic sampled at its own execution
    time, and the normalised-time basis plus the stacked ``(N, 6, 4) @ (N,
    4, 1)`` matmul replace N Python-level :meth:`CubicTrajectory.pose`
    calls.  The stacked matmul reduces over the same four coefficients in
    the same order as the scalar matvec, so each row is bitwise the scalar
    result (``tests/test_trajectory.py`` locks this in).
    """
    times = np.asarray(times, dtype=float)
    tau = np.clip(times / durations, 0.0, 1.0)
    basis = polynomial_design_matrix(tau)  # (N, 4)
    return origins + (coefficients @ basis[:, :, None])[:, :, 0]


def fit_cubic(
    offsets: np.ndarray,
    constrain_start: bool = True,
) -> np.ndarray:
    """Least-squares cubic fit to waypoint offsets (the training-data view).

    ``offsets`` has shape (steps, dims): waypoint ``j`` (1-based, at
    ``tau = j / steps``) relative to the start pose.  When
    ``constrain_start`` is set the constant term is pinned to zero so the
    trajectory passes through the current pose.  Returns coefficients with
    shape (dims, 4).

    The fit is the smoothing mechanism the paper relies on: four coefficients
    regressed onto nine noisy waypoints average out recording jitter.
    """
    offsets = np.asarray(offsets, dtype=float)
    steps = offsets.shape[0]
    tau = np.arange(1, steps + 1) / steps
    basis = polynomial_design_matrix(tau)
    if constrain_start:
        solution, *_ = np.linalg.lstsq(basis[:, :3], offsets, rcond=None)
        coefficients = np.concatenate([solution, np.zeros((1, offsets.shape[1]))], axis=0)
    else:
        coefficients, *_ = np.linalg.lstsq(basis, offsets, rcond=None)
    return coefficients.T
