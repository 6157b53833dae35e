"""Dynamics-tier calibration: tracking quality and ACE behaviour.

The frame-level environment models actuation with a gain + noise pair
(:class:`repro.sim.env.ActuationModel`).  These routines ground those
constants in the full rigid-body tier: TS-CTC on the Panda tracking cubic
trajectories at a given control rate.  They also drive the paper's Fig. 15
(approximation threshold vs speedup and trajectory error) and the >51%
skip-rate claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.accelerator import CorkiAccelerator
from repro.accelerator.lanes import AcceleratorLanes
from repro.core.trajectory import CubicTrajectory, fit_cubic
from repro.robot.batched import pose_error_lanes, semi_implicit_euler_step_lanes
from repro.robot.control import TaskSpaceComputedTorqueController, TaskSpaceReference
from repro.robot.integrators import JointState, semi_implicit_euler_step
from repro.robot.kinematics import end_effector_pose
from repro.robot.model import RobotModel, panda

__all__ = [
    "TrackingReport",
    "sample_trajectory",
    "track_trajectory",
    "track_trajectories_lanes",
    "ThresholdPoint",
    "threshold_sweep",
]


def sample_trajectory(
    model: RobotModel, rng: np.random.Generator, steps: int = 9, step_dt: float = 1.0 / 30.0
) -> CubicTrajectory:
    """A CALVIN-speed cubic trajectory from the arm's current home pose.

    Waypoint spacing mirrors what the Corki policy emits: centimetre-scale
    translation per 33 ms step with small yaw adjustments.
    """
    origin = end_effector_pose(model, model.q_home)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    speeds = rng.uniform(0.005, 0.012)  # metres per step
    offsets = np.zeros((steps, 6))
    for j in range(steps):
        offsets[j, :3] = direction * speeds * (j + 1)
        offsets[j, 5] = rng.uniform(-0.02, 0.02) * (j + 1)
    coefficients = fit_cubic(offsets)
    return CubicTrajectory(
        origin=origin,
        coefficients=coefficients,
        duration=steps * step_dt,
        gripper_open=np.ones(steps, dtype=bool),
    )


@dataclass(frozen=True)
class TrackingReport:
    """Closed-loop tracking quality at one control rate."""

    control_hz: float
    rmse_m: float
    max_error_m: float
    per_frame_gain: float
    skip_rate: float | None = None


MEASUREMENT_NOISE_Q = 2e-4  # encoder noise, radians
MEASUREMENT_NOISE_QD = 2e-3  # velocity estimate noise, radians/second
TORQUE_DISTURBANCE_NM = 2.0  # unmodelled friction / load disturbance


def track_trajectory(
    model: RobotModel,
    trajectory: CubicTrajectory,
    control_hz: float = 100.0,
    physics_hz: float = 500.0,
    accelerator: CorkiAccelerator | None = None,
    noise_seed: int = 0,
) -> TrackingReport:
    """Track one cubic trajectory with TS-CTC and report the error.

    With ``accelerator`` supplied, control ticks run through the accelerator
    model (including its ACE approximation); otherwise the plain software
    controller runs.  Physics integrates at ``physics_hz`` with semi-implicit
    Euler.  Sensor noise and torque disturbances are injected so control
    rate actually matters -- in a noise-free rigid-body world a 30 Hz
    zero-order-hold controller tracks slow references as well as a 100 Hz
    one, which is not true of real arms.
    """
    controller = TaskSpaceComputedTorqueController(model)
    # repro: allow[RNG-KEYED] reason=scalar reference semantics are frozen; the lane kernel replays this exact stream
    noise = np.random.default_rng(noise_seed)
    state = JointState(model.q_home.copy(), np.zeros(model.dof))
    dt = 1.0 / physics_hz
    control_interval = max(1, int(round(physics_hz / control_hz)))
    steps = int(trajectory.duration * physics_hz)

    tau = np.zeros(model.dof)
    errors = []
    for k in range(steps):
        t = k * dt
        reference = TaskSpaceReference(
            trajectory.pose(t), trajectory.velocity(t), trajectory.acceleration(t)
        )
        if k % control_interval == 0:
            q_measured = state.q + noise.normal(0.0, MEASUREMENT_NOISE_Q, model.dof)
            qd_measured = state.qd + noise.normal(0.0, MEASUREMENT_NOISE_QD, model.dof)
            if accelerator is None:
                tau = controller.torque(reference, q_measured, qd_measured)
            else:
                tau = accelerator.control_tick(reference, q_measured, qd_measured).torque
        disturbance = noise.normal(0.0, TORQUE_DISTURBANCE_NM, model.dof)
        state = semi_implicit_euler_step(model, state, tau + disturbance, dt)
        error = controller.pose_error(reference.pose, state.q)
        errors.append(float(np.linalg.norm(error[:3])))
    errors = np.asarray(errors)

    # Per-frame tracking gain: fraction of the commanded end-to-end motion
    # realised, the quantity ActuationModel.tracking_gain abstracts.
    final_pose = end_effector_pose(model, state.q)
    commanded = trajectory.pose(trajectory.duration)[:3] - trajectory.origin[:3]
    realised = final_pose[:3] - trajectory.origin[:3]
    denominator = float(np.linalg.norm(commanded))
    gain = float(np.dot(realised, commanded) / denominator**2) if denominator > 1e-9 else 1.0

    return TrackingReport(
        control_hz=control_hz,
        rmse_m=float(np.sqrt(np.mean(errors**2))),
        max_error_m=float(errors.max()),
        per_frame_gain=gain,
        skip_rate=None if accelerator is None else accelerator.skip_rate,
    )


def track_trajectories_lanes(
    model: RobotModel,
    trajectories: list[CubicTrajectory],
    control_hz: float = 100.0,
    physics_hz: float = 500.0,
    accelerators: list[CorkiAccelerator] | None = None,
    noise_seed: int = 0,
) -> list[TrackingReport]:
    """:func:`track_trajectory` for a whole fleet of lanes in lockstep.

    Lane ``i`` tracks ``trajectories[i]`` (through ``accelerators[i]`` when
    accelerators are supplied, otherwise through the software controller),
    and every report -- plus every accelerator's ACE state and cycle log --
    is bitwise what the scalar function would have produced for that lane.
    Each lane draws its noise from its own ``default_rng(noise_seed)`` in
    the scalar draw order, so lane streams are independent of fleet size.
    All lanes must share the physics step count (equal-duration
    trajectories); physics, control, and error evaluation then run as
    stacked ``(lanes, ...)`` kernels.
    """
    lanes = len(trajectories)
    if lanes == 0:
        return []
    if accelerators is not None and len(accelerators) != lanes:
        raise ValueError("need exactly one accelerator per trajectory lane")
    dt = 1.0 / physics_hz
    control_interval = max(1, int(round(physics_hz / control_hz)))
    step_counts = {int(trajectory.duration * physics_hz) for trajectory in trajectories}
    if len(step_counts) != 1:
        raise ValueError("lockstep lanes need trajectories of equal duration")
    steps = step_counts.pop()

    controller = TaskSpaceComputedTorqueController(model)
    bank = None if accelerators is None else AcceleratorLanes(accelerators)
    # repro: allow[RNG-KEYED] reason=each lane intentionally replays the scalar noise stream (documented bitwise equivalence)
    noises = [np.random.default_rng(noise_seed) for _ in range(lanes)]
    q = np.tile(model.q_home.copy(), (lanes, 1))
    qd = np.zeros((lanes, model.dof))

    tau = np.zeros((lanes, model.dof))
    reference_poses = np.zeros((lanes, 6))
    reference_velocities = np.zeros((lanes, 6))
    reference_accelerations = np.zeros((lanes, 6))
    errors: list[list[float]] = [[] for _ in range(lanes)]
    for k in range(steps):
        t = k * dt
        for lane, trajectory in enumerate(trajectories):
            reference_poses[lane] = trajectory.pose(t)
            reference_velocities[lane] = trajectory.velocity(t)
            reference_accelerations[lane] = trajectory.acceleration(t)
        if k % control_interval == 0:
            q_measured = np.stack(
                [
                    q[lane] + noises[lane].normal(0.0, MEASUREMENT_NOISE_Q, model.dof)
                    for lane in range(lanes)
                ]
            )
            qd_measured = np.stack(
                [
                    qd[lane] + noises[lane].normal(0.0, MEASUREMENT_NOISE_QD, model.dof)
                    for lane in range(lanes)
                ]
            )
            if bank is None:
                tau = controller.torque_lanes(
                    reference_poses,
                    reference_velocities,
                    reference_accelerations,
                    q_measured,
                    qd_measured,
                )
            else:
                tau = bank.control_tick_lanes(
                    reference_poses,
                    reference_velocities,
                    reference_accelerations,
                    q_measured,
                    qd_measured,
                ).torques
        disturbance = np.stack(
            [
                noises[lane].normal(0.0, TORQUE_DISTURBANCE_NM, model.dof)
                for lane in range(lanes)
            ]
        )
        q, qd = semi_implicit_euler_step_lanes(model, q, qd, tau + disturbance, dt)
        error = pose_error_lanes(model, q, reference_poses)
        for lane in range(lanes):
            errors[lane].append(float(np.linalg.norm(error[lane, :3])))

    reports = []
    for lane, trajectory in enumerate(trajectories):
        lane_errors = np.asarray(errors[lane])
        final_pose = end_effector_pose(model, q[lane])
        commanded = trajectory.pose(trajectory.duration)[:3] - trajectory.origin[:3]
        realised = final_pose[:3] - trajectory.origin[:3]
        denominator = float(np.linalg.norm(commanded))
        gain = (
            float(np.dot(realised, commanded) / denominator**2)
            if denominator > 1e-9
            else 1.0
        )
        reports.append(
            TrackingReport(
                control_hz=control_hz,
                rmse_m=float(np.sqrt(np.mean(lane_errors**2))),
                max_error_m=float(lane_errors.max()),
                per_frame_gain=gain,
                skip_rate=None if accelerators is None else accelerators[lane].skip_rate,
            )
        )
    return reports


@dataclass(frozen=True)
class ThresholdPoint:
    """One point of the Fig. 15 sweep."""

    threshold: float
    speedup: float
    trajectory_error_cm: float
    skip_rate: float


def threshold_sweep(
    thresholds: list[float] | None = None,
    trajectories: int = 3,
    seed: int = 3,
    control_hz: float = 100.0,
    physics_hz: float = 500.0,
) -> list[ThresholdPoint]:
    """Sweep the ACE threshold: speedup and trajectory error (paper Fig. 15).

    Speedup is the mean control-tick cycle count at threshold zero divided
    by the mean at the swept threshold; trajectory error is the RMSE of
    TS-CTC tracking with the approximating accelerator in the loop.

    Each threshold tracks all sampled trajectories as one lockstep fleet
    through the lane kernels; the differential test harness pins the
    points bitwise to a scalar :func:`track_trajectory` loop.
    """
    thresholds = thresholds if thresholds is not None else [0.0, 0.2, 0.4, 0.6, 0.8]
    model = panda()
    # repro: allow[RNG-KEYED] reason=single sweep-wide sampling stream; Fig. 15 goldens pin its draws bitwise
    rng = np.random.default_rng(seed)
    samples = [sample_trajectory(model, rng) for _ in range(trajectories)]

    points = []
    reference_cycles: float | None = None
    for threshold in thresholds:
        cycle_counts: list[int] = []
        errors = []
        skip_rates = []
        accelerators = [CorkiAccelerator(model, threshold=threshold) for _ in samples]
        reports = track_trajectories_lanes(
            model, samples, control_hz=control_hz, physics_hz=physics_hz,
            accelerators=accelerators,
        )
        for accelerator, report in zip(accelerators, reports):
            cycle_counts.extend(accelerator.cycle_log)
            errors.append(report.rmse_m)
            skip_rates.append(accelerator.skip_rate)
        mean_cycles = float(np.mean(cycle_counts))
        if reference_cycles is None:
            reference_cycles = mean_cycles
        points.append(
            ThresholdPoint(
                threshold=threshold,
                speedup=reference_cycles / mean_cycles,
                trajectory_error_cm=float(np.mean(errors)) * 100.0,
                skip_rate=float(np.mean(skip_rates)),
            )
        )
    return points
