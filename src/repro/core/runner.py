"""Closed-loop episode runners for the baseline and every Corki variation.

The runner is where the paper's execution models live:

* The **baseline** encodes every frame, predicts one action, and executes it
  with 30 Hz control (paper Fig. 1a).
* **Corki** runs inference only at trajectory boundaries, executes
  ``T`` waypoints of the predicted cubic with 100 Hz TS-CTC control, captures
  a random mid-trajectory feedback frame, and re-plans (paper Fig. 1b).
  The adaptive variation terminates early via Algorithm 1.

Each episode returns an :class:`EpisodeTrace` carrying everything the
pipeline latency/energy model and the trajectory metrics need; in
particular ``EpisodeTrace.executed_steps`` is the per-inference
executed-trajectory-length sequence that
:func:`repro.pipeline.executor.simulate_corki` consumes to place inference
latency on trajectory-boundary frames.

The loop bodies live in :mod:`repro.core.fleet`, which advances N episodes
in lock-step with batched inference: a single episode is a one-lane
:class:`~repro.core.fleet.FleetLane` passed to
:meth:`~repro.core.fleet.FleetRunner.run`, element-wise identical to the
same episode inside a larger fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.env import ManipulationEnv
from repro.sim.expert import render_keyframes
from repro.sim.tasks import Task

__all__ = ["EpisodeTrace"]

MAX_EPISODE_FRAMES = 150
"""Frame budget per task; generous versus expert episodes of 45-80 frames."""


@dataclass
class EpisodeTrace:
    """Record of one closed-loop episode.

    ``executed_steps`` lists, per inference, how many trajectory steps were
    executed before re-planning (always ``[1, 1, ...]`` for the baseline);
    the pipeline model derives inference frequency from it.  ``ee_path`` is
    the realised end-effector pose per frame; ``reference_path`` the clean
    expert trajectory for the same scene (the metrics' ground truth).
    """

    success: bool
    frames: int
    executed_steps: list[int]
    ee_path: np.ndarray
    reference_path: np.ndarray
    gripper_path: np.ndarray

    @property
    def inference_count(self) -> int:
        return len(self.executed_steps)


def _reference_path(env: ManipulationEnv, task: Task) -> np.ndarray:
    """The clean expert trajectory for the episode's initial scene."""
    assert env.scene is not None
    keyframes = task.expert(env.scene)
    return render_keyframes(env.scene.ee_pose, keyframes, env.frame_dt).poses
