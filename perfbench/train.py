"""train: ``train_baseline`` + ``train_corki`` at the quick profile's size.

Set-up collects one scripted demonstration per task, seeded from the
workload seed.  Each round trains freshly initialised policies (hidden 96,
token 48, batch 32) for :data:`EPOCHS` epochs each; rounds repeat until
``--seconds`` have passed.  Throughput is training windows x epochs over
the wall time of both trainers.  This is the only workload through the
autodiff backward pass and ``Adam``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from common import QUICK_PROFILE, Checks

DEMOS_PER_TASK = 1
EPOCHS = 1
BATCH_SIZE = 32
CHECK_ROWS = 8
GRAD_EPS = 1e-6
GRAD_TOLERANCE = 1e-6


def collect_demos(seed: int):
    import numpy as np

    import repro.sim.dataset as dataset
    from repro.sim.world import SEEN_LAYOUT

    return dataset.collect_demonstrations(
        SEEN_LAYOUT, np.random.default_rng([seed, 79]), per_task=DEMOS_PER_TASK,
    )


def fresh_policies(seed: int, round_index: int):
    import numpy as np

    from repro.core.policy import BaselinePolicy, CorkiPolicy
    from repro.sim.camera import OBSERVATION_DIM
    from repro.sim.tasks import TASKS

    rng = np.random.default_rng([seed, 80, round_index])
    dims = {"token_dim": QUICK_PROFILE["token_dim"], "hidden_dim": QUICK_PROFILE["hidden_dim"]}
    return (
        BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, **dims),
        CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, **dims),
    )


@dataclass
class Round:
    """One timed baseline + Corki training round; the trained policies are
    kept only when the output checks will look at them."""

    seconds: float
    samples: int
    losses: list[float]
    baseline: object | None = None
    corki: object | None = None


def train_round(demos, seed: int, round_index: int, keep: bool = True) -> Round:
    """Train fresh policies; only the two trainer calls are timed."""
    import repro.core.training as training

    baseline, corki = fresh_policies(seed, round_index)
    config = training.TrainingConfig(
        epochs=EPOCHS, batch_size=BATCH_SIZE, seed=seed * 1000 + round_index,
    )
    windows = sum(len(demo) - 1 for demo in demos)
    seconds = 0.0
    losses: list[float] = []
    for train, policy in ((training.train_baseline, baseline), (training.train_corki, corki)):
        started = time.perf_counter()
        losses += train(policy, demos, config)
        seconds += time.perf_counter() - started
    if not keep:
        baseline = corki = None
    return Round(seconds, 2 * windows * EPOCHS, losses, baseline, corki)


def train_for(demos, seed: int, seconds: float, between) -> list[Round]:
    """Whole rounds until ``seconds`` of them have passed, calling
    ``between()`` after each (its time is not counted); round 0 keeps its
    policies."""
    rounds: list[Round] = []
    measured = 0.0
    while measured < seconds:
        started = time.perf_counter()
        rounds.append(train_round(demos, seed, len(rounds), keep=not rounds))
        measured += time.perf_counter() - started
        between()
    return rounds


def samples_per_s(rounds: list[Round]) -> float:
    return sum(r.samples for r in rounds) / sum(r.seconds for r in rounds)


def non_finite_losses(rounds: list[Round]) -> int:
    import math

    return sum(not math.isfinite(loss) for r in rounds for loss in r.losses)


# -- correctness ---------------------------------------------------------------


def _sample(demos, policy, seed: int, round_index: int):
    """Seeded rows of the baseline dataset: (windows, instructions, poses, grippers)."""
    import numpy as np

    from repro.core.training import build_baseline_dataset

    windows, instructions, poses, grippers = build_baseline_dataset(demos, policy.normalizer)
    rows = np.random.default_rng([seed, 81, round_index]).choice(len(windows), CHECK_ROWS, replace=False)
    return windows[rows], instructions[rows], poses[rows], grippers[rows]


def check_round(demos, trained: Round, seed: int, round_index: int, checks: Checks) -> None:
    """Deployment ``infer`` equals training ``forward`` bitwise on the
    trained weights (both heads), and one seeded gradient direction of the
    baseline loss passes a central-difference check."""
    import numpy as np

    from repro.core.policy import WINDOW_LENGTH
    from repro.core.training import deployment_slot_pattern

    baseline, corki = trained.baseline, trained.corki
    windows, instructions, poses, grippers = _sample(demos, baseline, seed, round_index)

    pose, gripper = baseline(windows, instructions)
    hidden = baseline.lstm.infer(baseline.vlm.infer(windows, instructions))
    checks.compare(
        f"round {round_index} baseline infer",
        baseline.pose_head.infer(hidden).tobytes() + baseline.gripper_head.infer(hidden).tobytes(),
        pose.numpy().tobytes() + gripper.numpy().tobytes(),
    )

    rng = np.random.default_rng([seed, 82, round_index])
    real = np.zeros((CHECK_ROWS, WINDOW_LENGTH), dtype=bool)
    feedback = np.zeros((CHECK_ROWS, WINDOW_LENGTH), dtype=bool)
    for row in range(CHECK_ROWS):
        period = int(rng.integers(1, corki.horizon + 1))
        real[row], feedback[row] = deployment_slot_pattern(WINDOW_LENGTH, period, rng)
    coefficients, logits = corki(windows, instructions, real, feedback)
    keep, feed = real.astype(float), feedback.astype(float)
    drop = 1.0 - np.clip(keep + feed, 0.0, 1.0)
    tokens = corki.vlm.infer(windows, instructions)
    features = corki.feedback_encoder.infer(windows)
    mask = corki.mask_embedding.data
    mixed = np.stack([
        tokens[:, t, :] * keep[:, t:t + 1] + features[:, t, :] * feed[:, t:t + 1] + mask * drop[:, t:t + 1]
        for t in range(WINDOW_LENGTH)
    ], axis=1)
    hidden = corki.lstm.infer(mixed)
    checks.compare(
        f"round {round_index} corki infer",
        corki.coefficient_head.infer(hidden).reshape(CHECK_ROWS, 6, 4).tobytes()
        + corki.gripper_head.infer(hidden).tobytes(),
        coefficients.numpy().tobytes() + logits.numpy().tobytes(),
    )

    checks.check(
        f"round {round_index} baseline gradient",
        gradient_direction_ok(baseline, windows, instructions, poses, grippers, rng),
    )


def gradient_direction_ok(policy, windows, instructions, poses, grippers, rng) -> bool:
    """Backward's directional derivative along one seeded direction of one
    seeded parameter matches a central difference of the training loss."""
    import numpy as np

    from repro.nn.functional import bce_with_logits, mse_loss
    from repro.nn.tensor import no_grad

    def loss():
        pose, gripper = policy(windows, instructions)
        return mse_loss(pose, poses) + 0.5 * bce_with_logits(gripper, grippers)

    parameters = policy.parameters()
    parameter = parameters[int(rng.integers(len(parameters)))]
    direction = rng.normal(size=parameter.data.shape)
    direction /= np.linalg.norm(direction)
    policy.zero_grad()
    loss().backward()
    analytic = float(np.sum(parameter.grad * direction))
    original = parameter.data.copy()
    with no_grad():
        parameter.data[...] = original + GRAD_EPS * direction
        plus = loss().item()
        parameter.data[...] = original - GRAD_EPS * direction
        minus = loss().item()
    parameter.data[...] = original
    numeric = (plus - minus) / (2 * GRAD_EPS)
    return abs(numeric - analytic) <= GRAD_TOLERANCE * max(1.0, abs(numeric), abs(analytic))
