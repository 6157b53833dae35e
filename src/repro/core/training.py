"""Training loops for the baseline and Corki policy heads.

Both heads train on the same demonstrations with the losses of paper Eq. 3
(per-frame MSE + lambda BCE) and Eq. 5 (trajectory-waypoint MSE + lambda
BCE on the gripper schedule).  Corki's windows are additionally masked with
deployment-realistic patterns (paper Fig. 4): only the frames an executing
system would encode are visible; the rest see the learned mask embedding or
a ViT closed-loop feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.policy import WINDOW_LENGTH, BaselinePolicy, CorkiPolicy
from repro.nn.functional import bce_with_logits, mse_loss
from repro.nn.optim import Adam, clip_gradients
from repro.sim.dataset import ActionNormalizer, Demonstration

__all__ = [
    "TrainingConfig",
    "deployment_slot_pattern",
    "build_baseline_dataset",
    "build_corki_dataset",
    "train_baseline",
    "train_corki",
]


@dataclass
class TrainingConfig:
    """Hyper-parameters shared by both trainers."""

    epochs: int = 4
    batch_size: int = 32
    learning_rate: float = 3e-3
    gripper_weight: float = 0.5  # the paper's lambda in Eq. 3
    grad_clip: float = 5.0
    seed: int = 7


def deployment_slot_pattern(
    window: int,
    period: int,
    rng: np.random.Generator,
    closed_loop: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Which window slots a deployed Corki system would actually encode.

    With inference every ``period`` frames and the newest slot being an
    inference frame, real slots lie at ``window-1, window-1-period, ...``.
    With closed-loop feedback enabled, one random slot inside each executed
    segment carries a ViT feature instead of the mask embedding
    (paper Sec. 3.4).  Returns boolean arrays ``(real, feedback)``.
    """
    real = np.zeros(window, dtype=bool)
    feedback = np.zeros(window, dtype=bool)
    slot = window - 1
    while slot >= 0:
        real[slot] = True
        if closed_loop and period > 1:
            low = max(slot - period + 1, 0)
            if low < slot:
                feedback[int(rng.integers(low, slot))] = True
        slot -= period
    feedback &= ~real
    return real, feedback


def _window_index_matrix(length: int) -> np.ndarray:
    """Window indices for every supervisable frame of one demonstration.

    Row ``t`` holds the ``WINDOW_LENGTH`` frame indices ending at ``t``,
    clipped at the episode start (frames before it repeat the first
    observation, matching RoboFlamingo's warm-up behaviour with a partially
    filled queue) -- one fancy-indexing gather materialises what the
    historical code assembled window by window.
    """
    frames = np.arange(length - 1)
    offsets = np.arange(-WINDOW_LENGTH + 1, 1)
    return np.clip(frames[:, None] + offsets[None, :], 0, length - 1)


def build_baseline_dataset(
    demonstrations: list[Demonstration], normalizer: ActionNormalizer
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialise all per-frame supervision windows for the baseline.

    Returns ``(windows, instructions, pose_targets, gripper_targets)``.
    Pose targets are normalised next-frame deltas.  Each demonstration's
    windows and targets come from array indexing (sample order stays
    demo-major, frame-minor).
    """
    windows, instructions, poses, grippers = [], [], [], []
    for demo in demonstrations:
        length = len(demo)
        windows.append(demo.observations[_window_index_matrix(length)])
        instructions.append(np.full(length - 1, demo.instruction_id, dtype=int))
        poses.append(normalizer.normalize(demo.poses[1:] - demo.poses[:-1]))
        grippers.append(demo.gripper_open[1:].astype(float))
    return (
        np.concatenate(windows),
        np.concatenate(instructions),
        np.concatenate(poses),
        np.concatenate(grippers)[:, None],
    )


def build_corki_dataset(
    demonstrations: list[Demonstration],
    normalizer: ActionNormalizer,
    horizon: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Materialise all trajectory-supervision tensors for Corki (Eq. 5).

    Returns ``(windows, instructions, offset_targets, gripper_targets)``
    with shapes ``(P, window, obs)``, ``(P,)``, ``(P, horizon + 1, 6)`` and
    ``(P, horizon)``; offset row 0 is the zero start offset and rows 1..
    are normalised future waypoint offsets.  Everything is gathered with
    array indexing -- element for element what per-row
    :func:`repro.sim.dataset.corki_targets` calls produced -- so one build
    per training run replaces the historical per-batch Python assembly.
    Sample order is demo-major, frame-minor.
    """
    windows, instructions, offsets, grippers = [], [], [], []
    future_offsets = np.arange(1, horizon + 1)
    for demo in demonstrations:
        length = len(demo)
        frames = np.arange(length - 1)
        windows.append(demo.observations[_window_index_matrix(length)])
        instructions.append(np.full(length - 1, demo.instruction_id, dtype=int))
        # Beyond the episode end the trajectory holds its final pose.
        future = np.minimum(frames[:, None] + future_offsets[None, :], length - 1)
        offsets.append(demo.poses[future] - demo.poses[frames][:, None, :])
        grippers.append(demo.gripper_open[future].astype(float))
    count = sum(len(demo) - 1 for demo in demonstrations)
    offset_targets = np.zeros((count, horizon + 1, 6))
    offset_targets[:, 1:] = np.concatenate(offsets) / normalizer.scale
    return (
        np.concatenate(windows),
        np.concatenate(instructions),
        offset_targets,
        np.concatenate(grippers),
    )


def train_baseline(
    policy: BaselinePolicy,
    demonstrations: list[Demonstration],
    config: TrainingConfig | None = None,
) -> list[float]:
    """Train the RoboFlamingo-style head; returns per-epoch mean losses."""
    config = config or TrainingConfig()
    # repro: allow[RNG-KEYED] reason=frozen training stream; rekeying would orphan every cached policy tag
    rng = np.random.default_rng(config.seed)
    normalizer = ActionNormalizer.fit(demonstrations)
    policy.set_normalizer(normalizer)
    windows, instructions, poses, grippers = build_baseline_dataset(demonstrations, normalizer)

    # One walk of the module tree per run: Adam and the per-batch gradient
    # clip share this list instead of re-collecting parameters every batch.
    parameters = policy.parameters()
    optimizer = Adam(parameters, lr=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(windows))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            pose_pred, gripper_pred = policy(windows[batch], instructions[batch])
            loss = mse_loss(pose_pred, poses[batch]) + config.gripper_weight * bce_with_logits(
                gripper_pred, grippers[batch]
            )
            optimizer.zero_grad()
            loss.backward()
            clip_gradients(parameters, config.grad_clip)
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return history


def train_corki(
    policy: CorkiPolicy,
    demonstrations: list[Demonstration],
    config: TrainingConfig | None = None,
) -> list[float]:
    """Train the Corki trajectory head; returns per-epoch mean losses.

    Every sample draws a random execution period in [1, horizon] and masks
    the window with the corresponding deployment pattern, so one model
    serves every Corki-T variation (paper Sec. 5.2).
    """
    config = config or TrainingConfig()
    # repro: allow[RNG-KEYED] reason=frozen training stream; rekeying would orphan every cached policy tag
    rng = np.random.default_rng(config.seed)
    normalizer = ActionNormalizer.fit(demonstrations)
    policy.set_normalizer(normalizer)

    horizon = policy.horizon
    # Windows and targets are deterministic: one array-indexed build per run
    # (the historical code re-assembled them row by row in every batch).
    windows, instructions, offset_targets, gripper_targets = build_corki_dataset(
        demonstrations, normalizer, horizon
    )
    total = len(windows)
    parameters = policy.parameters()
    optimizer = Adam(parameters, lr=config.learning_rate)
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(total)
        # Deployment-pattern masks are the epoch's only random supervision
        # input.  Drawing them per sample in epoch order consumes the
        # generator in exactly the sequence the per-batch assembly did, so
        # training is seed-for-seed unchanged; row ``p`` masks sample
        # ``order[p]``.
        real = np.zeros((total, WINDOW_LENGTH), dtype=bool)
        feedback = np.zeros((total, WINDOW_LENGTH), dtype=bool)
        for position in range(total):
            period = int(rng.integers(1, horizon + 1))
            real[position], feedback[position] = deployment_slot_pattern(
                WINDOW_LENGTH, period, rng
            )
        losses = []
        for start in range(0, total, config.batch_size):
            batch = order[start : start + config.batch_size]
            rows = slice(start, start + len(batch))
            coefficients, gripper_logits = policy(
                windows[batch], instructions[batch], real[rows], feedback[rows]
            )
            waypoints = policy.waypoint_offsets(coefficients)  # (batch, 6, horizon + 1)
            target = np.transpose(offset_targets[batch], (0, 2, 1))
            loss = mse_loss(waypoints, target) + config.gripper_weight * bce_with_logits(
                gripper_logits, gripper_targets[batch]
            )
            optimizer.zero_grad()
            loss.backward()
            clip_gradients(parameters, config.grad_clip)
            optimizer.step()
            losses.append(loss.item())
        history.append(float(np.mean(losses)))
    return history
