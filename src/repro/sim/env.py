"""The manipulation environment: closed-loop episodes at the frame level.

The environment advances in 33 ms camera frames.  Each frame the policy (or
expert) commands a target end-effector pose and a gripper state; an
*actuation model* determines how faithfully the arm realises the command
within the frame.  Actuation models are calibrated against the dynamics tier
(TS-CTC on the full Panda rigid-body model) -- see
``repro.analysis.calibration`` -- so that the 100 Hz accelerator-backed
controller tracks tighter than the 30 Hz CPU baseline, which is the physical
effect the paper's accuracy results rest on.

Scene state lives in a structure-of-arrays store
(:class:`repro.sim.objects.SceneArrays`); :func:`step_lanes` is the one
physics kernel, advancing any set of lanes with vectorised displacement /
tracking / clamp / drag arithmetic.  A standalone :class:`ManipulationEnv`
owns a capacity-1 store, so ``env.step`` *is* the batched kernel with one
lane -- scalar/vector divergence is impossible by construction.  Per-lane
randomness stays in each lane's own generator and is drawn in lane order,
which keeps every observation bitwise identical to the pre-vectorised
scalar loop (``tests/test_fleet.py`` locks this in against a frozen scalar
reference implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.camera import CameraModel, render_rows
from repro.sim.objects import (
    ATTACHED_DRAWER,
    ATTACHED_SWITCH,
    BASIN_FLOOR_Z,
    BASIN_MIN_OPENING,
    BASIN_RADIUS,
    BLOCK_NAMES,
    STACK_SNAP_RADIUS,
    SceneArrays,
    SceneState,
    SceneView,
)
from repro.sim.tasks import Task
from repro.sim.world import WORKSPACE, SceneLayout, sample_scene

__all__ = [
    "ActuationModel",
    "TRACKING_100HZ",
    "TRACKING_30HZ",
    "PERFECT_ACTUATION",
    "ManipulationEnv",
    "BatchedManipulationEnv",
    "step_lanes",
]

_BLOCK_GRASP_RADIUS = 0.05
_BLOCK_GRASP_HEIGHT = 0.05
_TABLE_BLOCK_Z = 0.02
_HELD_BLOCK_OFFSET = np.array([0.0, 0.0, -0.01])
_NUM_BLOCKS = len(BLOCK_NAMES)
_BLOCK_SLOTS = np.arange(_NUM_BLOCKS)

# Push (shove) mechanics: a low-sweeping arm slides table-level blocks aside.
# The deadzone keeps grasp descents (planar distance ~ 0 above the target)
# from expelling the block about to be grasped; the radius stays below the
# per-frame sweep speed margin so a sweeping end-effector cannot tunnel past
# the deadzone between frames.
_PUSH_RADIUS = 0.048
_PUSH_DEADZONE = 0.02
_PUSH_EE_HEIGHT = 0.06  # the arm only shoves while sweeping at/below this z
# Only table-level blocks slide: stacked blocks (z ~ 0.07) sit above the
# band, basin-resting blocks (z = 0.005) below it -- a shove must not drag a
# block sideways through the drawer wall.
_PUSH_BLOCK_MIN_Z = 0.015
_PUSH_BLOCK_MAX_Z = 0.03

# Release settling: a dropped block lands in the open drawer's basin, on top
# of a block within the snap radius, or on the table -- in that order (the
# radii live in repro.sim.objects, shared with the task predicates).


@dataclass(frozen=True)
class ActuationModel:
    """How well the arm realises a commanded frame-level motion.

    ``tracking_gain`` is the fraction of the commanded displacement realised
    within one frame (a first-order tracking lag); ``noise_std`` is the
    residual per-frame pose noise (metres / radians).  The two presets below
    were calibrated by running TS-CTC on the Panda dynamics at the
    corresponding control rates (see EXPERIMENTS.md, calibration section).
    """

    name: str
    tracking_gain: float
    noise_std: float


# 100 Hz task-space computed torque control (the Corki accelerator path).
TRACKING_100HZ = ActuationModel("tsctc-100hz", tracking_gain=0.985, noise_std=0.0008)
# 30 Hz control matched to the camera rate (the baseline CPU path).
TRACKING_30HZ = ActuationModel("tsctc-30hz", tracking_gain=0.93, noise_std=0.0020)
# Idealised actuation, used by unit tests and the scripted-expert data collector.
PERFECT_ACTUATION = ActuationModel("perfect", tracking_gain=1.0, noise_std=0.0)


class ManipulationEnv:
    """Frame-level simulation of the tabletop scene.

    One instance runs one episode at a time; :meth:`reset` starts an episode
    for a task and returns the first observation.
    """

    frame_dt = 1.0 / 30.0

    def __init__(
        self,
        layout: SceneLayout,
        rng: np.random.Generator,
        actuation: ActuationModel = TRACKING_100HZ,
        camera_noise_std: float = 0.01,
    ):
        self.layout = layout
        self.rng = rng
        self.actuation = actuation
        self.camera = CameraModel(noise_std=camera_noise_std, domain_shift=layout.camera_shift)
        self.scene: SceneView | None = None
        self.initial_scene: SceneState | None = None
        self.task: Task | None = None
        self.frame_count = 0
        # A standalone environment is a fleet of one: it owns a singleton
        # structure-of-arrays store until a BatchedManipulationEnv re-homes
        # it into a shared store (see _rehome).
        self._arrays = SceneArrays(1)
        self._lane = 0

    def _rehome(self, arrays: SceneArrays, lane: int) -> None:
        """Move this environment's state into lane ``lane`` of a shared store."""
        snapshot = self.scene.copy() if self.scene is not None else None
        self._arrays = arrays
        self._lane = lane
        if snapshot is not None:
            self.scene = arrays.adopt(lane, snapshot)

    # -- episode lifecycle ---------------------------------------------------

    def reset(self, task: Task, scene: SceneState | None = None) -> np.ndarray:
        """Start an episode of ``task``; returns the first observation."""
        if scene is None:
            scene = sample_scene(self.layout, self.rng)
        task.prepare(scene, self.rng)
        self.scene = self._arrays.adopt(self._lane, scene)
        self.initial_scene = self.scene.copy()
        self.task = task
        self.frame_count = 0
        return self.observe()

    def continue_with(self, task: Task) -> np.ndarray:
        """Chain the next task of a long-horizon job onto the current scene.

        The gripper opens at the instruction boundary (releasing anything
        still held), mirroring how CALVIN rollouts hand over between
        subtasks; the arm stays wherever the previous task left it.
        """
        if self.scene is None:
            raise RuntimeError("reset() must run before continue_with()")
        self._release()
        self.scene.gripper_open = True
        task.prepare(self.scene, self.rng)
        self.initial_scene = self.scene.copy()
        self.task = task
        self.frame_count = 0
        return self.observe()

    def observe(self) -> np.ndarray:
        """Render the current camera frame."""
        if self.scene is None:
            raise RuntimeError("reset() must run before observe()")
        return self.camera.render(self.scene, self.rng)

    @property
    def succeeded(self) -> bool:
        """Whether the current task's success predicate holds."""
        if self.scene is None or self.task is None or self.initial_scene is None:
            return False
        return bool(self.task.success(self.initial_scene, self.scene))

    # -- frame dynamics --------------------------------------------------------

    def step(
        self,
        target_pose: np.ndarray,
        gripper_open: bool,
        actuation: ActuationModel | None = None,
    ) -> np.ndarray:
        """Advance one camera frame toward ``target_pose``.

        The arm moves by ``tracking_gain`` of the commanded displacement plus
        actuation noise; the gripper command is applied instantaneously (the
        Panda gripper is position-controlled and fast relative to a frame).
        Returns the new observation.  This is the batched physics kernel
        (:func:`step_lanes`) applied to this environment's single lane.
        """
        if self.scene is None:
            raise RuntimeError("reset() must run before step()")
        target = np.asarray(target_pose, dtype=float)
        observations = step_lanes(
            self._arrays,
            np.array([self._lane]),
            [self],
            target.reshape(1, 6),
            np.array([bool(gripper_open)]),
            [actuation or self.actuation],
        )
        return observations[0]

    # -- attachment mechanics -----------------------------------------------------

    def _update_gripper(self, gripper_open: bool) -> None:
        scene = self.scene
        assert scene is not None
        if gripper_open and not scene.gripper_open:
            self._release()
            scene.gripper_open = True
        elif not gripper_open and scene.gripper_open:
            scene.gripper_open = False
            self._try_grasp()

    def _try_grasp(self) -> None:
        """On close: attach the nearest graspable object within tolerance."""
        scene = self.scene
        assert scene is not None
        ee = scene.ee_pose[:3]
        best_name, best_distance = None, np.inf
        for name, block in scene.blocks.items():
            planar = float(np.linalg.norm(block.position[:2] - ee[:2]))
            vertical = abs(block.position[2] - ee[2] + 0.01)
            if planar <= _BLOCK_GRASP_RADIUS and vertical <= _BLOCK_GRASP_HEIGHT:
                if planar < best_distance:
                    best_name, best_distance = name, planar
        drawer_distance = float(np.linalg.norm(scene.drawer.handle_position - ee))
        if drawer_distance <= scene.drawer.grasp_radius and drawer_distance < best_distance:
            best_name, best_distance = "drawer", drawer_distance
        switch_distance = float(np.linalg.norm(scene.switch.handle_position - ee))
        if switch_distance <= scene.switch.grasp_radius and switch_distance < best_distance:
            best_name, best_distance = "switch", switch_distance
        scene.attached = best_name

    def _release(self) -> None:
        """On open: drop whatever is held; blocks settle where they land.

        Landing spots, in priority order: the open drawer's basin
        (place-in-drawer tasks), the top of a block within the snap radius
        (stacking), else the table.
        """
        scene = self.scene
        assert scene is not None
        if scene.attached in scene.blocks:
            block = scene.blocks[scene.attached]
            block.position[2] = _settle_height(scene, scene.attached)
        scene.attached = None

    def _drag_attached(self, delta_yaw: float) -> None:
        """While closed, the held object follows the end-effector."""
        scene = self.scene
        assert scene is not None
        if scene.attached is None:
            return
        ee = scene.ee_pose[:3]
        if scene.attached in scene.blocks:
            block = scene.blocks[scene.attached]
            block.position = ee + np.array([0.0, 0.0, -0.01])
            block.yaw += delta_yaw
        elif scene.attached == "drawer":
            drawer = scene.drawer
            along = float(np.dot(ee - drawer.handle_base, drawer.axis))
            drawer.opening = float(np.clip(along, 0.0, drawer.max_opening))
        elif scene.attached == "switch":
            switch = scene.switch
            along = float(np.dot(ee - switch.handle_base, switch.axis)) / switch.travel
            switch.level = float(np.clip(along, 0.0, 1.0))


def _settle_height(scene: "SceneState | SceneView", name: str) -> float:
    """Resting height for block ``name`` when the gripper releases it.

    Release is a rare per-lane event, so this stays an object-view helper
    (shared by the scalar and batched paths through ``_release``).  A block
    only stacks onto a support whose top face is at or below the held
    block's centre -- a low drop next to a neighbour lands on the table, not
    teleported on top of it.
    """
    block = scene.blocks[name]
    drawer = scene.drawer
    if drawer.opening >= BASIN_MIN_OPENING:
        basin = drawer.basin_position
        if float(np.linalg.norm(block.position[:2] - basin[:2])) <= BASIN_RADIUS:
            return BASIN_FLOOR_Z
    best_height, best_distance = None, np.inf
    for other_name, other in scene.blocks.items():
        if other_name == name:
            continue
        planar = float(np.linalg.norm(other.position[:2] - block.position[:2]))
        top = other.position[2] + other.half_extent
        if (
            planar <= STACK_SNAP_RADIUS
            and planar < best_distance
            and top <= block.position[2] + 1e-9
        ):
            best_height = top + block.half_extent
            best_distance = planar
    return _TABLE_BLOCK_Z if best_height is None else float(best_height)


def step_lanes(
    arrays: SceneArrays,
    lanes: np.ndarray,
    envs: Sequence[ManipulationEnv],
    targets: np.ndarray,
    grippers_open: np.ndarray,
    models: Sequence[ActuationModel],
) -> np.ndarray:
    """Advance the selected lanes one camera frame; the fleet physics kernel.

    ``lanes`` selects rows of ``arrays``; ``envs[k]`` is the environment that
    owns lane ``lanes[k]`` (supplying its generator, camera and frame
    counter).  Displacement, tracking gain, workspace clamp and the yaw-drag
    of attached blocks are vectorised across lanes; actuation noise and
    sensor noise are drawn per lane *in lane order* from each lane's own
    generator, so results are bitwise identical to stepping each lane alone.
    Rare per-lane events (gripper transitions, drawer/switch drag) fall back
    to the object-view code path.  Returns stacked observations.
    """
    # Kernel order (shared verbatim by the scalar and batched paths):
    # displacement/gain/noise/clamp -> gripper events -> held-object drag ->
    # block shove -> button edge -> render.
    ee = arrays.ee_pose[lanes]
    displacement = targets - ee
    gains = np.array([model.tracking_gain for model in models])
    realised = gains[:, None] * displacement

    noisy = [k for k, model in enumerate(models) if model.noise_std > 0.0]
    if noisy:
        noise = np.array([envs[k].rng.normal(0.0, models[k].noise_std, size=6) for k in noisy])
        noise[:, 3:] *= 2.0  # orientation noise in radians is relatively larger
        realised[noisy] += noise

    new_pose = ee + realised
    new_pose[:, :3] = WORKSPACE.clamp(new_pose[:, :3])
    delta_yaw = new_pose[:, 5] - ee[:, 5]
    arrays.ee_pose[lanes] = new_pose

    # Gripper transitions are events, not per-frame work: only lanes whose
    # command differs from their state run the (object-view) grasp/release
    # mechanics.
    commands = np.asarray(grippers_open, dtype=bool)
    for k in np.nonzero(arrays.gripper_open[lanes] != commands)[0]:
        envs[k]._update_gripper(bool(commands[k]))

    # While closed, held objects follow the end-effector.  Blocks (the common
    # case during block tasks) update via one fancy-indexed assignment;
    # drawer/switch lanes take the per-lane path.
    attached = arrays.attached[lanes]
    held = np.nonzero((attached >= 0) & (attached < _NUM_BLOCKS))[0]
    if held.size:
        held_lanes = lanes[held]
        slots = attached[held]
        arrays.block_position[held_lanes, slots] = new_pose[held, :3] + _HELD_BLOCK_OFFSET
        # Yaw accumulates unwrapped by design: the camera consumes block yaw
        # only through sin/cos, and the rotate predicate wraps its *delta*
        # (repro.sim.tasks.wrap_angle), so canonicalising here would change
        # commanded grasp yaws without fixing anything.
        arrays.block_yaw[held_lanes, slots] += delta_yaw[held]
    for k in np.nonzero((attached == ATTACHED_DRAWER) | (attached == ATTACHED_SWITCH))[0]:
        envs[k]._drag_attached(float(delta_yaw[k]))

    # Open-path shove (the push task family): any table-level, unheld block
    # inside the sweep annulus slides to the push radius along the line from
    # the end-effector through the block.  Pure elementwise arithmetic per
    # (lane, block) pair, so one lane and N lanes are bitwise identical.
    # Most ticks no arm is sweeping low, so the lane set is pre-filtered on
    # the scalar height gate before any per-block arithmetic runs.
    low = np.nonzero(new_pose[:, 2] <= _PUSH_EE_HEIGHT)[0]
    if low.size:
        low_lanes = lanes[low]
        positions = arrays.block_position[low_lanes]  # fresh: drag may have moved blocks
        offsets = positions[:, :, :2] - new_pose[low, None, :2]
        planar = np.sqrt(np.sum(offsets * offsets, axis=2))
        pushable = (
            (planar > _PUSH_DEADZONE)
            & (planar < _PUSH_RADIUS)
            & (positions[:, :, 2] >= _PUSH_BLOCK_MIN_Z)
            & (positions[:, :, 2] <= _PUSH_BLOCK_MAX_Z)
            & (attached[low, None] != _BLOCK_SLOTS[None, :])
        )
        push_rows, push_slots = np.nonzero(pushable)
        if push_rows.size:
            shoved = (
                new_pose[low[push_rows], :2]
                + offsets[push_rows, push_slots]
                / planar[push_rows, push_slots][:, None]
                * _PUSH_RADIUS
            )
            arrays.block_position[low_lanes[push_rows], push_slots, 0] = shoved[:, 0]
            arrays.block_position[low_lanes[push_rows], push_slots, 1] = shoved[:, 1]

    # Latching button: the LED toggles on the frame the end-effector first
    # enters the press region; holding contact does not re-toggle.
    button_offset = arrays.button_position[lanes, :2] - new_pose[:, :2]
    button_planar = np.sqrt(np.sum(button_offset * button_offset, axis=1))
    contact = (button_planar <= arrays.button_press_radius[lanes]) & (
        new_pose[:, 2] <= arrays.button_press_height[lanes]
    )
    arrays.led_on[lanes] ^= contact & ~arrays.button_contact[lanes]
    arrays.button_contact[lanes] = contact

    for env in envs:
        env.frame_count += 1
    return render_rows(
        arrays, lanes, [env.camera for env in envs], [env.rng for env in envs]
    )


class BatchedManipulationEnv:
    """Vectorised facade over N independent :class:`ManipulationEnv` lanes.

    The fleet runner (:mod:`repro.core.fleet`) advances many closed-loop
    episodes in lock-step; this class gives it a step-many API while keeping
    every lane's randomness in its own generator, so a lane's episode is
    bit-for-bit the episode a standalone ``ManipulationEnv`` with the same
    seed would produce regardless of how many other lanes run beside it.

    All ``*_many`` methods take an optional ``indices`` sequence selecting
    the lanes to touch (episodes in a fleet start, re-plan and finish on
    different frames); omitted, they address every lane.  Observations come
    back stacked as a ``(len(indices), OBSERVATION_DIM)`` array.
    """

    def __init__(self, envs: Sequence[ManipulationEnv]):
        if not envs:
            raise ValueError("a batched environment needs at least one lane")
        self.envs = list(envs)
        dts = {env.frame_dt for env in self.envs}
        if len(dts) != 1:
            raise ValueError("all lanes must share one camera frame_dt")
        # One shared structure-of-arrays store for the whole fleet: each
        # environment's state (current scene included) moves into its lane,
        # after which scalar and batched stepping read and write the same
        # stacked arrays.
        self._arrays = SceneArrays(len(self.envs))
        for lane, env in enumerate(self.envs):
            env._rehome(self._arrays, lane)

    @classmethod
    def from_seeds(
        cls,
        layout: SceneLayout,
        seeds: Sequence[int],
        actuation: ActuationModel = TRACKING_100HZ,
        camera_noise_std: float = 0.01,
    ) -> "BatchedManipulationEnv":
        """One lane per seed, each with an independent generator."""
        return cls(
            [
                ManipulationEnv(
                    layout,
                    # repro: allow[RNG-KEYED] reason=the caller's seed IS the lane identity; keying by position would break fleet-size invariance
                    np.random.default_rng(seed),
                    actuation=actuation,
                    camera_noise_std=camera_noise_std,
                )
                for seed in seeds
            ]
        )

    def __len__(self) -> int:
        return len(self.envs)

    @property
    def frame_dt(self) -> float:
        return self.envs[0].frame_dt

    def _select(self, indices: Sequence[int] | None) -> list[int]:
        return list(range(len(self.envs))) if indices is None else list(indices)

    def reset_many(
        self, tasks: Sequence[Task], indices: Sequence[int] | None = None
    ) -> np.ndarray:
        """Start an episode per selected lane; returns stacked observations."""
        chosen = self._select(indices)
        if len(tasks) != len(chosen):
            raise ValueError("one task per selected lane is required")
        return np.stack(
            [self.envs[i].reset(task) for i, task in zip(chosen, tasks)]
        )

    def step_many(
        self,
        target_poses: np.ndarray,
        grippers_open: Sequence[bool],
        actuation: ActuationModel | Sequence[ActuationModel] | None = None,
        indices: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Advance one camera frame on each selected lane.

        ``target_poses`` is ``(K, 6)`` and ``grippers_open`` length-K for the
        K selected lanes.  ``actuation`` may be one model for all lanes or a
        per-lane sequence (a mixed fleet runs the baseline's 30 Hz lanes next
        to Corki's 100 Hz lanes).  Returns the stacked new observations.
        """
        chosen = self._select(indices)
        targets = np.asarray(target_poses, dtype=float)
        if targets.shape != (len(chosen), 6):
            raise ValueError(f"target_poses must be ({len(chosen)}, 6), got {targets.shape}")
        if len(grippers_open) != len(chosen):
            raise ValueError("one gripper flag per selected lane is required")
        if isinstance(actuation, ActuationModel) or actuation is None:
            models: Sequence[ActuationModel | None] = [actuation] * len(chosen)
        else:
            models = list(actuation)
            if len(models) != len(chosen):
                raise ValueError("one actuation model per selected lane is required")
        envs = [self.envs[i] for i in chosen]
        for env in envs:
            if env.scene is None:
                raise RuntimeError("reset() must run before step()")
        resolved = [model or env.actuation for model, env in zip(models, envs)]
        return step_lanes(
            self._arrays,
            np.asarray(chosen, dtype=int),
            envs,
            targets,
            np.array([bool(gripper) for gripper in grippers_open]),
            resolved,
        )

    def adopt_lane(self, lane: int, env: ManipulationEnv) -> None:
        """Retire the environment in slot ``lane`` and re-home ``env`` there.

        This is the slot-refill primitive behind continuous batching
        (:meth:`repro.core.fleet.FleetRunner.run_continuous`): when a lane's
        job finishes, its slot is handed to a fresh environment instead of
        idling until the whole fleet drains.  The outgoing environment is
        re-homed onto a private singleton store first, so its final scene
        stays readable after the slot's stacked arrays are overwritten; it
        must not be stepped inside this fleet again.
        """
        if not 0 <= lane < len(self.envs):
            raise IndexError(f"lane {lane} out of range for a {len(self.envs)}-lane fleet")
        if env.frame_dt != self.frame_dt:
            raise ValueError("an adopted lane must share the fleet's camera frame_dt")
        self.envs[lane]._rehome(SceneArrays(1), 0)
        self.envs[lane] = env
        env._rehome(self._arrays, lane)

    def arm_states(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The selected lanes' end-effector poses ``(K, 6)`` and gripper
        flags ``(K,)``, gathered from the shared store (copies)."""
        return self._arrays.ee_pose[indices], self._arrays.gripper_open[indices]

    def succeeded_mask(self, indices: Sequence[int] | None = None) -> np.ndarray:
        """Boolean success flags for the selected lanes' current tasks."""
        return np.array([self.envs[i].succeeded for i in self._select(indices)], dtype=bool)
