"""Demonstration collection and supervision targets.

The CALVIN dataset provides teleoperated demonstrations recorded at 30 Hz.
Our stand-in collects scripted-expert episodes in the simulator with
per-frame jitter (teleoperation/discretisation noise).  The two supervision
styles the paper contrasts both read from the same recordings:

* the **baseline** (RoboFlamingo) is supervised on per-frame deltas, which
  inherit the jitter;
* **Corki** is supervised on the future waypoint sequence (Eq. 5), and the
  cubic trajectory fit smooths the jitter -- four polynomial coefficients
  cannot chase nine noisy waypoints.

This asymmetry is the honest mechanism behind the paper's accuracy gains;
no denoised signal is ever handed to either model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.camera import OBSERVATION_DIM
from repro.sim.env import PERFECT_ACTUATION, BatchedManipulationEnv, ManipulationEnv
from repro.sim.expert import render_keyframes
from repro.sim.tasks import TASKS, Task
from repro.sim.world import SceneLayout

__all__ = [
    "Demonstration",
    "ActionNormalizer",
    "collect_demonstrations",
    "roll_expert_episodes",
    "baseline_target",
    "corki_targets",
    "DEMO_JITTER_STD",
]

DEMO_JITTER_STD = 0.0035  # metres of per-frame teleoperation jitter


@dataclass
class Demonstration:
    """One recorded episode.

    ``poses`` are the jittery recorded end-effector poses (shape (T, 6));
    ``clean_poses`` the underlying expert trajectory, kept only for
    evaluation metrics (never used for supervision); ``observations`` the
    camera frames (T, obs_dim); ``gripper_open`` the per-frame gripper state.
    """

    instruction_id: int
    observations: np.ndarray
    poses: np.ndarray
    clean_poses: np.ndarray
    gripper_open: np.ndarray
    succeeded: bool

    def __len__(self) -> int:
        return len(self.poses)


class ActionNormalizer:
    """Standardise per-frame pose deltas so network outputs are O(1).

    Fitted once on the training demonstrations and shared by both policy
    heads; ``scale`` is the per-dimension standard deviation of the deltas
    (floored to avoid division blow-ups on nearly constant dimensions).
    """

    def __init__(self, scale: np.ndarray):
        self.scale = np.asarray(scale, dtype=float)

    @classmethod
    def fit(cls, demonstrations: list[Demonstration]) -> "ActionNormalizer":
        deltas = np.concatenate([np.diff(demo.poses, axis=0) for demo in demonstrations])
        scale = np.maximum(deltas.std(axis=0), 1e-4)
        return cls(scale)

    def normalize(self, delta: np.ndarray) -> np.ndarray:
        return np.asarray(delta) / self.scale

    def denormalize(self, value: np.ndarray) -> np.ndarray:
        return np.asarray(value) * self.scale


def collect_demonstrations(
    layout: SceneLayout,
    rng: np.random.Generator,
    tasks: list[Task] | None = None,
    per_task: int = 8,
    jitter_std: float = DEMO_JITTER_STD,
    keep_failures: bool = False,
) -> list[Demonstration]:
    """Collect scripted-expert demonstrations with recording jitter.

    Every episode is one lane of :func:`roll_expert_episodes`, and all of
    them share ``rng``: the demonstrations, and ``rng``'s state afterwards,
    are those of collecting the episodes one after another, task by task.
    Episodes where the jittery expert fails the task are dropped by default,
    matching how human demonstration datasets are curated.
    """
    tasks = tasks if tasks is not None else TASKS
    episodes = [task for task in tasks for _ in range(per_task)]
    demonstrations = roll_expert_episodes(
        layout, episodes, [rng] * len(episodes), jitter_std
    )
    return [demo for demo in demonstrations if demo.succeeded or keep_failures]


def roll_expert_episodes(
    layout: SceneLayout,
    tasks: Sequence[Task],
    rngs: Sequence[np.random.Generator],
    jitter_std: float | None,
    camera_noise_std: float = 0.01,
) -> list[Demonstration]:
    """Roll one scripted-expert episode per task, all as lanes of one fleet.

    Lane ``k`` runs ``tasks[k]`` with perfect actuation on a scene drawn
    from ``rngs[k]``; lanes may share a generator.  ``jitter_std`` is the
    recording jitter added to each commanded pose (``None`` commands the
    clean expert and draws nothing), ``camera_noise_std`` the sensor noise.

    Every draw an episode makes is taken from its generator right after the
    lane's reset, in the order and call shapes of the one-episode loop:
    frame 0's sensor noise, then per frame the position jitter, the yaw
    jitter and the frame's sensor noise.  Lane ``k + 1`` resets after lane
    ``k``'s draws, so a shared generator sees the stream of running the
    episodes one after another, and ends in that loop's state.  The roll
    itself draws nothing: the lanes render noiseless, and the sensor noise
    is added to the recorded frames afterwards (``pixels + noise``, the sum
    the camera itself forms), so every frame is the one-episode loop's byte
    for byte.
    """
    if len(rngs) != len(tasks):
        raise ValueError("one generator per task is required")
    if not tasks:
        return []
    envs = [
        ManipulationEnv(layout, rng, actuation=PERFECT_ACTUATION, camera_noise_std=0.0)
        for rng in rngs
    ]
    fleet = BatchedManipulationEnv(envs)
    noisy = camera_noise_std > 0.0
    experts, commands, first_frames, noise = [], [], [], []
    for env, task in zip(envs, tasks):
        # Demonstrations start from the home pose, as CALVIN teleoperation
        # episodes do.  Randomising the start pose was evaluated to close
        # the chained-task distribution gap but regressed single-task
        # accuracy at this model scale (see EXPERIMENTS.md); the handover
        # behaviour in ManipulationEnv.continue_with addresses the gap.
        first_frames.append(env.reset(task))
        rng = env.rng
        if noisy:
            noise.append(rng.normal(0.0, camera_noise_std, size=OBSERVATION_DIM))
        scene = env.scene
        assert scene is not None
        expert = render_keyframes(scene.ee_pose, task.expert(scene), env.frame_dt)
        command = expert.poses.copy()
        for t in range(1, len(expert)):
            if jitter_std is not None:
                command[t, :3] += rng.normal(0.0, jitter_std, size=3)
                command[t, 5] += rng.normal(0.0, 2.0 * jitter_std)
            if noisy:
                noise.append(rng.normal(0.0, camera_noise_std, size=OBSERVATION_DIM))
        experts.append(expert)
        commands.append(command)

    # Frames are recorded into flat arrays: lane k's frame t is row
    # starts[k] + t, so each tick records every stepped lane at once.
    lengths = np.array([len(expert) for expert in experts])
    starts = np.cumsum(lengths) - lengths
    targets = np.concatenate(commands)
    grippers = np.concatenate([expert.gripper_open for expert in experts])
    observations = np.empty((len(targets), OBSERVATION_DIM))
    poses = np.empty((len(targets), 6))
    gripper_open = np.empty(len(targets), dtype=bool)
    lanes = np.arange(len(envs))
    observations[starts] = first_frames
    poses[starts], gripper_open[starts] = fleet.arm_states(lanes)
    for t in range(1, int(lengths.max())):
        active = lanes[lengths > t]
        rows = starts[active] + t
        observations[rows] = fleet.step_many(targets[rows], grippers[rows], indices=active)
        poses[rows], gripper_open[rows] = fleet.arm_states(active)
    if noisy:
        observations += np.array(noise)
    succeeded = fleet.succeeded_mask()
    return [
        Demonstration(
            instruction_id=task.instruction_id,
            observations=observations[start : start + length],
            poses=poses[start : start + length],
            clean_poses=expert.poses,
            gripper_open=gripper_open[start : start + length],
            succeeded=bool(done),
        )
        for task, expert, start, length, done in zip(
            tasks, experts, starts, lengths, succeeded
        )
    ]


def baseline_target(demo: Demonstration, t: int) -> tuple[np.ndarray, float]:
    """Per-frame supervision: the next-step delta and gripper bit at frame t."""
    t_next = min(t + 1, len(demo) - 1)
    delta = demo.poses[t_next] - demo.poses[t]
    return delta, float(demo.gripper_open[t_next])


def corki_targets(demo: Demonstration, t: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory supervision (Eq. 5): future waypoint offsets from frame t.

    Returns ``(offsets, gripper)`` with shapes ``(horizon, 6)`` and
    ``(horizon,)``; beyond the episode end the trajectory holds its final
    pose, matching how the robot would idle after finishing.
    """
    offsets = np.zeros((horizon, 6))
    gripper = np.zeros(horizon)
    for j in range(1, horizon + 1):
        index = min(t + j, len(demo) - 1)
        offsets[j - 1] = demo.poses[index] - demo.poses[t]
        gripper[j - 1] = float(demo.gripper_open[index])
    return offsets, gripper
