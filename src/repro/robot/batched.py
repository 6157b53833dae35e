"""Lane-batched spatial algebra and rigid-body dynamics.

Every kernel here evaluates N independent robot states ("lanes") as stacked
``(N, ...)`` arithmetic: homogeneous transforms become ``(N, 4, 4)``,
spatial transforms ``(N, 6, 6)``, and the RNEA/CRBA recursions run their
per-joint loops once while BLAS sweeps all lanes per step.  This is the
architecture-half counterpart of the fleet physics in
:func:`repro.sim.scene.step_lanes`: the per-episode control/dynamics math
the Corki accelerator models, lifted onto the fleet path.

Equivalence contract: each batched kernel is **bitwise** equal, lane for
lane, to its frozen scalar reference (``rnea_reference``,
``mass_matrix_reference``, ``geometric_jacobian_reference``, ...) -- not
merely close.  The kernels only use operations verified to reduce in the
same order as their scalar counterparts: stacked ``matmul`` against a
``(N, k, 1)`` column equals the scalar matvec, stacked ``solve``/``inv``
equal their per-slice calls, and elementwise ops are order-free.  Scalar
entry points in :mod:`repro.robot.dynamics` and
:mod:`repro.robot.jacobian` are the N=1 case of these kernels;
``tests/test_batched_equivalence.py`` holds both facts down across fleet
sizes.

Branchy 3x3 trigonometry (``so3_log``, ``matrix_to_rpy``) stays scalar and
is applied per lane: the branches depend on the data, the matrices are
tiny, and reusing the scalar code is what keeps the contract bitwise.
"""

from __future__ import annotations

import numpy as np

from repro.robot.model import RobotModel
from repro.robot.spatial import rotation_error, rpy_to_matrix, spatial_inertia

__all__ = [
    "crf_lanes",
    "crm_lanes",
    "forward_kinematics_lanes",
    "geometric_jacobian_lanes",
    "ik_step_lanes",
    "jacobian_dot_qd_lanes",
    "joint_spatial_quantities_lanes",
    "link_transforms_lanes",
    "mass_matrix_lanes",
    "mdh_transform_lanes",
    "pose_error_lanes",
    "rnea_lanes",
    "bias_forces_lanes",
    "semi_implicit_euler_step_lanes",
    "skew_lanes",
    "spatial_transform_lanes",
    "task_space_bias_force_lanes",
    "task_space_mass_matrix_lanes",
    "operational_space_quantities_lanes",
]

# Revolute joint about the link-frame z axis (duplicated from
# repro.robot.dynamics, which imports this module).
_REVOLUTE_AXIS = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product, bitwise equal to per-lane ``A @ v``."""
    return (mats @ vecs[..., None])[..., 0]


def _lane_configs(model: RobotModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.dof:
        raise ValueError(
            f"expected configurations of shape (lanes, {model.dof}), got {q.shape}"
        )
    return q


# -- spatial primitives over lanes ---------------------------------------------


def skew_lanes(vectors: np.ndarray) -> np.ndarray:
    """Stacked :func:`repro.robot.spatial.skew`: ``(N, 3) -> (N, 3, 3)``."""
    v = np.asarray(vectors, dtype=float)
    m = np.zeros((len(v), 3, 3))
    m[:, 0, 1] = -v[:, 2]
    m[:, 0, 2] = v[:, 1]
    m[:, 1, 0] = v[:, 2]
    m[:, 1, 2] = -v[:, 0]
    m[:, 2, 0] = -v[:, 1]
    m[:, 2, 1] = v[:, 0]
    return m


def mdh_transform_lanes(a: float, alpha: float, d: float, theta: np.ndarray) -> np.ndarray:
    """Stacked modified-DH transforms for one joint across lanes.

    ``a``/``alpha``/``d`` are the joint's constants; ``theta`` carries one
    joint angle per lane.  Mirrors
    :func:`repro.robot.spatial.mdh_transform` element for element.
    """
    theta = np.asarray(theta, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    t = np.zeros((len(theta), 4, 4))
    t[:, 0, 0] = ct
    t[:, 0, 1] = -st
    t[:, 0, 3] = a
    t[:, 1, 0] = st * ca
    t[:, 1, 1] = ct * ca
    t[:, 1, 2] = -sa
    t[:, 1, 3] = -d * sa
    t[:, 2, 0] = st * sa
    t[:, 2, 1] = ct * sa
    t[:, 2, 2] = ca
    t[:, 2, 3] = d * ca
    t[:, 3, 3] = 1.0
    return t


def spatial_transform_lanes(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Stacked spatial motion transforms ``X = [R^T 0; -R^T p^ R^T]``."""
    rt = np.transpose(np.asarray(rotation, dtype=float), (0, 2, 1))
    x = np.zeros((len(rt), 6, 6))
    x[:, :3, :3] = rt
    x[:, 3:, 3:] = rt
    x[:, 3:, :3] = (-rt) @ skew_lanes(translation)
    return x


def crm_lanes(v: np.ndarray) -> np.ndarray:
    """Stacked motion cross-product operators ``v x``: ``(N, 6) -> (N, 6, 6)``."""
    v = np.asarray(v, dtype=float)
    m = np.zeros((len(v), 6, 6))
    m[:, :3, :3] = skew_lanes(v[:, :3])
    m[:, 3:, :3] = skew_lanes(v[:, 3:])
    m[:, 3:, 3:] = skew_lanes(v[:, :3])
    return m


def crf_lanes(v: np.ndarray) -> np.ndarray:
    """Stacked force cross-product operators ``v x*`` (``-crm(v).T``)."""
    return -np.transpose(crm_lanes(v), (0, 2, 1))


# -- kinematics over lanes -----------------------------------------------------


def link_transforms_lanes(model: RobotModel, q: np.ndarray) -> list[np.ndarray]:
    """World-frame link transforms for every lane: one ``(N, 4, 4)`` per joint."""
    q = _lane_configs(model, q)
    transforms = []
    current = np.tile(np.eye(4), (len(q), 1, 1))
    for i, link in enumerate(model.links):
        step = mdh_transform_lanes(link.a, link.alpha, link.d, q[:, i] + link.theta_offset)
        current = current @ step
        transforms.append(current)
    return transforms


def forward_kinematics_lanes(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Stacked end-effector poses ``(N, 4, 4)``."""
    return link_transforms_lanes(model, q)[-1] @ model.flange


def geometric_jacobian_lanes(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Stacked world-frame geometric Jacobians ``(N, 6, dof)``."""
    q = _lane_configs(model, q)
    transforms = link_transforms_lanes(model, q)
    p_ee = (transforms[-1] @ model.flange)[:, :3, 3]
    jac = np.zeros((len(q), 6, model.dof))
    for i, t in enumerate(transforms):
        z_axis = t[:, :3, 2]
        origin = t[:, :3, 3]
        jac[:, :3, i] = np.cross(z_axis, p_ee - origin)
        jac[:, 3:, i] = z_axis
    return jac


def jacobian_dot_qd_lanes(
    model: RobotModel, q: np.ndarray, qd: np.ndarray, step: float = 1e-6
) -> np.ndarray:
    """Stacked bias accelerations ``Jdot(q, qd) @ qd``: ``(N, 6)``.

    The per-lane speeds come from the same 1-D ``np.linalg.norm`` call the
    scalar reference makes (the axis-reduced norm sums in a different order
    and is not bitwise identical); lanes at rest short-circuit to zero
    exactly like the scalar early return.
    """
    q = _lane_configs(model, q)
    qd = np.asarray(qd, dtype=float)
    speeds = np.array([float(np.linalg.norm(row)) for row in qd])
    moving = speeds >= 1e-12
    if not moving.any():
        return np.zeros((len(q), 6))
    safe = np.where(moving, speeds, 1.0)
    direction = qd / safe[:, None]
    j_plus = geometric_jacobian_lanes(model, q + step * direction)
    j_minus = geometric_jacobian_lanes(model, q - step * direction)
    jdot = (j_plus - j_minus) / (2.0 * step) * safe[:, None, None]
    out = _matvec(jdot, qd)
    out[~moving] = 0.0
    return out


# -- dynamics over lanes -------------------------------------------------------


def joint_spatial_quantities_lanes(
    model: RobotModel, q: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-joint ``(N, 6, 6)`` parent-to-link transforms plus link inertias.

    The inertias are configuration independent, so one ``(6, 6)`` per joint
    is shared across lanes (matmul broadcasts it).
    """
    q = _lane_configs(model, q)
    xup, inertias = [], []
    for i, link in enumerate(model.links):
        t = mdh_transform_lanes(link.a, link.alpha, link.d, q[:, i] + link.theta_offset)
        xup.append(spatial_transform_lanes(t[:, :3, :3], t[:, :3, 3]))
        inertias.append(spatial_inertia(link.mass, link.com, link.inertia_com))
    return xup, inertias


def rnea_lanes(
    model: RobotModel,
    q: np.ndarray,
    qd: np.ndarray,
    qdd: np.ndarray,
    gravity: np.ndarray | None = None,
) -> np.ndarray:
    """Stacked recursive Newton-Euler: joint torques ``(N, dof)``."""
    q = _lane_configs(model, q)
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    if gravity is None:
        gravity = model.gravity
    xup, inertias = joint_spatial_quantities_lanes(model, q)
    lanes, n = q.shape
    a_base = np.broadcast_to(
        np.concatenate([np.zeros(3), -np.asarray(gravity, dtype=float)]), (lanes, 6)
    )
    velocities: list[np.ndarray] = [np.zeros((lanes, 6))] * n
    forces: list[np.ndarray] = [np.zeros((lanes, 6))] * n
    acceleration = np.zeros((lanes, 6))
    for i in range(n):
        vj = _REVOLUTE_AXIS[None, :] * qd[:, i, None]
        if i == 0:
            velocities[0] = vj
            acceleration = _matvec(xup[0], a_base) + _REVOLUTE_AXIS[None, :] * qdd[:, 0, None]
        else:
            velocities[i] = _matvec(xup[i], velocities[i - 1]) + vj
            acceleration = (
                _matvec(xup[i], acceleration)
                + _REVOLUTE_AXIS[None, :] * qdd[:, i, None]
                + _matvec(crm_lanes(velocities[i]), vj)
            )
        forces[i] = _matvec(inertias[i], acceleration) + _matvec(
            crf_lanes(velocities[i]), _matvec(inertias[i], velocities[i])
        )
    tau = np.zeros((lanes, n))
    for i in range(n - 1, -1, -1):
        tau[:, i] = forces[i] @ _REVOLUTE_AXIS
        if i > 0:
            forces[i - 1] = forces[i - 1] + _matvec(
                np.transpose(xup[i], (0, 2, 1)), forces[i]
            )
    return tau


def bias_forces_lanes(model: RobotModel, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
    """Stacked Coriolis/centrifugal/gravity torques ``h(q, qd)``."""
    q = _lane_configs(model, q)
    return rnea_lanes(model, q, qd, np.zeros_like(q))


def mass_matrix_lanes(model: RobotModel, q: np.ndarray) -> np.ndarray:
    """Stacked joint-space mass matrices ``(N, dof, dof)`` via CRBA."""
    q = _lane_configs(model, q)
    xup, inertias = joint_spatial_quantities_lanes(model, q)
    lanes, n = q.shape
    composite = [np.repeat(inertia[None], lanes, axis=0) for inertia in inertias]
    for i in range(n - 1, 0, -1):
        composite[i - 1] = composite[i - 1] + np.transpose(xup[i], (0, 2, 1)) @ composite[i] @ xup[i]

    m = np.zeros((lanes, n, n))
    for i in range(n):
        force = _matvec(composite[i], np.broadcast_to(_REVOLUTE_AXIS, (lanes, 6)))
        m[:, i, i] = force @ _REVOLUTE_AXIS
        j = i
        while j > 0:
            force = _matvec(np.transpose(xup[j], (0, 2, 1)), force)
            j -= 1
            m[:, i, j] = m[:, j, i] = force @ _REVOLUTE_AXIS
    return m


def task_space_mass_matrix_lanes(
    m: np.ndarray, jac: np.ndarray, damping: float = 1e-6
) -> np.ndarray:
    """Stacked task-space mass matrices ``M_x = (J M^-1 J^T)^-1``: ``(N, 6, 6)``."""
    m_inv_jt = np.linalg.solve(m, np.transpose(jac, (0, 2, 1)))
    core = jac @ m_inv_jt
    return np.linalg.inv(core + damping * np.eye(core.shape[-1]))


def task_space_bias_force_lanes(
    m: np.ndarray,
    jac: np.ndarray,
    h: np.ndarray,
    jdot_qd: np.ndarray,
    lambda_x: np.ndarray,
) -> np.ndarray:
    """Stacked task-space bias forces ``h_x = M_x (J M^-1 h - Jdot qd)``: ``(N, 6)``."""
    return _matvec(lambda_x, _matvec(jac, np.linalg.solve(m, h[:, :, None])[:, :, 0]) - jdot_qd)


def operational_space_quantities_lanes(
    model: RobotModel, q: np.ndarray, qd: np.ndarray
) -> dict[str, np.ndarray]:
    """Stacked operational-space quantities for TS-CTC, one per lane.

    Mirrors :func:`repro.robot.dynamics.operational_space_quantities` key
    for key, with every value carrying a leading lane axis.
    """
    jac = geometric_jacobian_lanes(model, q)
    m = mass_matrix_lanes(model, q)
    h = bias_forces_lanes(model, q, qd)
    jdot_qd = jacobian_dot_qd_lanes(model, q, qd)
    lambda_x = task_space_mass_matrix_lanes(m, jac)
    h_x = task_space_bias_force_lanes(m, jac, h, jdot_qd, lambda_x)
    return {
        "jacobian": jac,
        "mass_matrix": m,
        "bias": h,
        "lambda_x": lambda_x,
        "h_x": h_x,
        "jdot_qd": jdot_qd,
    }


def semi_implicit_euler_step_lanes(
    model: RobotModel, q: np.ndarray, qd: np.ndarray, tau: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every lane one symplectic-Euler step; returns ``(q, qd)``.

    Mirrors :func:`repro.robot.integrators.semi_implicit_euler_step`: the
    joint-limit clamp is the identity on lanes inside their limits, so the
    stacked clamp equals the scalar per-lane conditional bit for bit.
    """
    q = _lane_configs(model, q)
    qd = np.asarray(qd, dtype=float)
    m = mass_matrix_lanes(model, q)
    h = bias_forces_lanes(model, q, qd)
    rhs = np.asarray(tau, dtype=float) - h
    qdd = np.linalg.solve(m, rhs[:, :, None])[:, :, 0]
    qd_next = np.clip(qd + dt * qdd, -model.qd_limit, model.qd_limit)
    q_next = q + dt * qd_next
    below = q_next < model.q_lower
    above = q_next > model.q_upper
    if below.any() or above.any():
        q_next = model.clamp_configuration(q_next)
        qd_next = np.where(below | above, 0.0, qd_next)
    return q_next, qd_next


# -- inverse kinematics over lanes ---------------------------------------------


def pose_error_lanes(model: RobotModel, q: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Stacked 6-D pose errors against ``[xyz, rpy]`` targets: ``(N, 6)``.

    Positions vectorise; the rotation logarithm is branchy 3x3 work and
    runs per lane through the scalar :func:`repro.robot.spatial.rotation_error`.
    """
    q = _lane_configs(model, q)
    targets = np.asarray(targets, dtype=float)
    current = forward_kinematics_lanes(model, q)
    errors = np.zeros((len(q), 6))
    errors[:, :3] = targets[:, :3] - current[:, :3, 3]
    for k in range(len(q)):
        errors[k, 3:] = rotation_error(rpy_to_matrix(targets[k, 3:]), current[k, :3, :3])
    return errors


def ik_step_lanes(
    model: RobotModel,
    q: np.ndarray,
    targets: np.ndarray,
    damping: float = 1e-3,
    step_scale: float = 0.8,
    posture_weight: float = 0.05,
) -> np.ndarray:
    """One damped-least-squares IK update for every lane: ``(N, dof)``.

    The batched counterpart of :func:`repro.robot.ik.ik_step`, mirroring
    its operation order exactly (gram solve, nullspace posture pull,
    joint-limit clamp).
    """
    q = _lane_configs(model, q)
    error = pose_error_lanes(model, q, targets)
    jac = geometric_jacobian_lanes(model, q)
    jac_t = np.transpose(jac, (0, 2, 1))
    gram = jac @ jac_t + damping**2 * np.eye(6)
    dq_task = _matvec(jac_t, np.linalg.solve(gram, error[:, :, None])[:, :, 0])
    pseudo_inverse = jac_t @ np.linalg.inv(gram)
    nullspace = np.eye(model.dof) - pseudo_inverse @ jac
    dq_posture = posture_weight * (model.q_home - q)
    return model.clamp_configuration(q + step_scale * dq_task + _matvec(nullspace, dq_posture))
