"""Task-space computed torque control (TS-CTC), the paper's Eq. 6.

``tau = J^T(theta) [ M_x(theta) (xdd_d + Kp e + Kv edot) + h_x(theta, theta_dot) ]``

The reference input is a task-space trajectory sample (pose, velocity,
acceleration); the feedback input is the measured joint state.  The same
computation runs on three substrates in this repository: this plain numpy
implementation (the robot's CPU), the accelerator functional model, and the
accelerator's approximate-computing mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.robot.batched import (
    _matvec,
    operational_space_quantities_lanes,
    pose_error_lanes,
)
from repro.robot.dynamics import operational_space_quantities
from repro.robot.kinematics import forward_kinematics
from repro.robot.model import RobotModel
from repro.robot.spatial import rotation_error, rpy_to_matrix

__all__ = ["TaskSpaceReference", "ControlGains", "TaskSpaceComputedTorqueController"]


@dataclass(frozen=True)
class TaskSpaceReference:
    """One sample of the reference trajectory in task space.

    ``pose`` is ``[x, y, z, roll, pitch, yaw]``; ``velocity`` and
    ``acceleration`` are 6-vectors ``[v; omega_rate]`` where the rotational
    part is the RPY rate treated as a world angular velocity (valid for the
    small per-step rotations the CALVIN action space produces).
    """

    pose: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray


@dataclass(frozen=True)
class ControlGains:
    """Diagonal task-space PD gains.

    Defaults are tuned for the Panda at a 100 Hz control rate: critically
    damped (``kv = 2 sqrt(kp)``) with stiffer translation than rotation.
    """

    kp: np.ndarray = field(
        default_factory=lambda: np.array([400.0, 400.0, 400.0, 100.0, 100.0, 100.0])
    )
    kv: np.ndarray = field(
        default_factory=lambda: np.array([40.0, 40.0, 40.0, 20.0, 20.0, 20.0])
    )
    nullspace_damping: float = 2.0


class TaskSpaceComputedTorqueController:
    """The TS-CTC control law of paper Fig. 6.

    Each call to :meth:`torque` performs one control cycle: it computes the
    five key blocks (forward kinematics, Jacobian, task-space mass matrix,
    task-space bias force, joint torque) and returns motor torques.  The
    redundant seventh degree of freedom is damped in the Jacobian nullspace,
    which keeps internal motion bounded without disturbing the task.
    """

    def __init__(self, model: RobotModel, gains: ControlGains | None = None):
        self.model = model
        self.gains = gains or ControlGains()

    def pose_error(self, reference_pose: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Task-space error ``e = x_d - x`` with a proper SO(3) orientation error."""
        actual = forward_kinematics(self.model, q)
        position_error = np.asarray(reference_pose[:3]) - actual[:3, 3]
        desired_rotation = rpy_to_matrix(reference_pose[3:])
        orientation_error = rotation_error(desired_rotation, actual[:3, :3])
        return np.concatenate([position_error, orientation_error])

    def torque(
        self,
        reference: TaskSpaceReference,
        q: np.ndarray,
        qd: np.ndarray,
        quantities: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """One TS-CTC cycle: reference sample + measured state -> joint torques.

        ``quantities`` optionally supplies precomputed operational-space
        terms (as returned by
        :func:`repro.robot.dynamics.operational_space_quantities`); the
        accelerator model uses this hook to substitute approximate values.
        """
        if quantities is None:
            quantities = operational_space_quantities(self.model, q, qd)
        jac = quantities["jacobian"]
        lambda_x = quantities["lambda_x"]
        h_x = quantities["h_x"]

        error = self.pose_error(reference.pose, q)
        velocity_error = np.asarray(reference.velocity) - jac @ np.asarray(qd)
        command = (
            np.asarray(reference.acceleration)
            + self.gains.kp * error
            + self.gains.kv * velocity_error
        )
        force = lambda_x @ command + h_x
        tau = jac.T @ force

        # Nullspace damping: project joint damping through (I - J^T Jbar^T).
        jbar_t = lambda_x @ jac @ np.linalg.inv(quantities["mass_matrix"])
        nullspace = np.eye(self.model.dof) - jac.T @ jbar_t
        tau = tau - nullspace @ (self.gains.nullspace_damping * np.asarray(qd))
        return self.model.clamp_torque(tau)

    def torque_lanes(
        self,
        reference_poses: np.ndarray,
        reference_velocities: np.ndarray,
        reference_accelerations: np.ndarray,
        q: np.ndarray,
        qd: np.ndarray,
        quantities: dict[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """One TS-CTC cycle for N lanes at once; returns ``(N, dof)`` torques.

        The lane-batched twin of :meth:`torque`: every input carries a
        leading lane axis, ``quantities`` (when supplied, e.g. by the
        accelerator's lane model) holds stacked operational-space terms, and
        the arithmetic mirrors the scalar method operation for operation so
        each lane's torques are bitwise those of the scalar call.
        """
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        if quantities is None:
            quantities = operational_space_quantities_lanes(self.model, q, qd)
        jac = quantities["jacobian"]
        jac_t = np.transpose(jac, (0, 2, 1))
        lambda_x = quantities["lambda_x"]
        h_x = quantities["h_x"]

        error = pose_error_lanes(self.model, q, reference_poses)
        velocity_error = np.asarray(reference_velocities, dtype=float) - _matvec(jac, qd)
        command = (
            np.asarray(reference_accelerations, dtype=float)
            + self.gains.kp * error
            + self.gains.kv * velocity_error
        )
        force = _matvec(lambda_x, command) + h_x
        tau = _matvec(jac_t, force)

        jbar_t = lambda_x @ jac @ np.linalg.inv(quantities["mass_matrix"])
        nullspace = np.eye(self.model.dof) - jac_t @ jbar_t
        tau = tau - _matvec(nullspace, self.gains.nullspace_damping * qd)
        return self.model.clamp_torque(tau)
