"""Robot-arm substrate: kinematics, dynamics, and task-space control.

Public surface of the subpackage; everything the rest of the library (and
downstream users) need from the robot model is re-exported here.
"""

from repro.robot.batched import (
    bias_forces_lanes,
    forward_kinematics_lanes,
    geometric_jacobian_lanes,
    ik_step_lanes,
    jacobian_dot_qd_lanes,
    link_transforms_lanes,
    mass_matrix_lanes,
    operational_space_quantities_lanes,
    pose_error_lanes,
    rnea_lanes,
    semi_implicit_euler_step_lanes,
    task_space_bias_force_lanes,
    task_space_mass_matrix_lanes,
)
from repro.robot.control import (
    ControlGains,
    TaskSpaceComputedTorqueController,
    TaskSpaceReference,
)
from repro.robot.dynamics import (
    bias_forces,
    forward_dynamics,
    gravity_forces,
    mass_matrix,
    mass_matrix_reference,
    operational_space_quantities,
    rnea,
    rnea_reference,
    task_space_bias_force,
    task_space_mass_matrix,
)
from repro.robot.ik import IkResult, ik_step, solve_ik, trajectory_to_joint_path
from repro.robot.integrators import JointState, semi_implicit_euler_step, simulate_torque_steps
from repro.robot.jacobian import (
    end_effector_velocity,
    geometric_jacobian,
    geometric_jacobian_reference,
    jacobian_dot_qd,
    jacobian_dot_qd_reference,
)
from repro.robot.kinematics import end_effector_pose, forward_kinematics, link_transforms
from repro.robot.model import LinkParameters, RobotModel, panda, two_link_planar

__all__ = [
    "ControlGains",
    "IkResult",
    "JointState",
    "LinkParameters",
    "RobotModel",
    "TaskSpaceComputedTorqueController",
    "TaskSpaceReference",
    "bias_forces",
    "bias_forces_lanes",
    "end_effector_pose",
    "end_effector_velocity",
    "forward_dynamics",
    "forward_kinematics",
    "forward_kinematics_lanes",
    "geometric_jacobian",
    "geometric_jacobian_lanes",
    "geometric_jacobian_reference",
    "gravity_forces",
    "ik_step",
    "ik_step_lanes",
    "jacobian_dot_qd",
    "jacobian_dot_qd_lanes",
    "jacobian_dot_qd_reference",
    "link_transforms",
    "link_transforms_lanes",
    "mass_matrix",
    "mass_matrix_lanes",
    "mass_matrix_reference",
    "operational_space_quantities",
    "operational_space_quantities_lanes",
    "panda",
    "pose_error_lanes",
    "rnea",
    "rnea_lanes",
    "rnea_reference",
    "semi_implicit_euler_step",
    "semi_implicit_euler_step_lanes",
    "simulate_torque_steps",
    "solve_ik",
    "task_space_bias_force",
    "task_space_bias_force_lanes",
    "task_space_mass_matrix",
    "task_space_mass_matrix_lanes",
    "trajectory_to_joint_path",
    "two_link_planar",
]
