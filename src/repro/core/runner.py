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
in lock-step with batched inference; :func:`run_baseline_episode` and
:func:`run_corki_episode` are kept as thin N=1 wrappers so existing callers
(and the paper-figure experiments) keep their single-episode API, with
results element-wise identical to the same episode inside a larger fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import CorkiVariation
from repro.core.policy import BaselinePolicy, CorkiPolicy
from repro.sim.env import TRACKING_100HZ, TRACKING_30HZ, ActuationModel, ManipulationEnv
from repro.sim.expert import render_keyframes
from repro.sim.tasks import Task

__all__ = ["EpisodeTrace", "run_baseline_episode", "run_corki_episode", "run_job"]

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


def run_baseline_episode(
    env: ManipulationEnv,
    policy: BaselinePolicy,
    task: Task,
    actuation: ActuationModel = TRACKING_30HZ,
    max_frames: int = MAX_EPISODE_FRAMES,
    chained: bool = False,
) -> EpisodeTrace:
    """Frame-by-frame execution (paper Fig. 1a); a fleet of one."""
    from repro.core.fleet import FleetLane, FleetRunner

    lane = FleetLane(
        tasks=[task], actuation=actuation, max_frames=max_frames, chained_start=chained
    )
    return FleetRunner(baseline=policy).run([env], [lane])[0][0]


def run_corki_episode(
    env: ManipulationEnv,
    policy: CorkiPolicy,
    task: Task,
    variation: CorkiVariation,
    rng: np.random.Generator,
    actuation: ActuationModel = TRACKING_100HZ,
    max_frames: int = MAX_EPISODE_FRAMES,
    chained: bool = False,
) -> EpisodeTrace:
    """Trajectory-level execution (paper Fig. 1b); a fleet of one.

    ``rng`` drives the closed-loop feedback schedule only (one draw per
    executed trajectory, as in the single-loop formulation of Sec. 3.4).
    """
    from repro.core.fleet import FleetLane, FleetRunner

    lane = FleetLane(
        tasks=[task],
        variation=variation,
        rng=rng,
        actuation=actuation,
        max_frames=max_frames,
        chained_start=chained,
    )
    return FleetRunner(corki=policy).run([env], [lane])[0][0]


def run_job(
    env: ManipulationEnv,
    tasks: list[Task],
    run_episode,
) -> list[EpisodeTrace]:
    """Run a long-horizon job: consecutive tasks until the first failure.

    ``run_episode(task, chained)`` is a closure over the policy/variation;
    the environment's scene persists across tasks, as in CALVIN's rollouts.
    Returns the traces of the attempted tasks (the job's score is the number
    of successes, i.e. the index of the first failed trace).
    """
    traces = []
    for index, task in enumerate(tasks):
        trace = run_episode(task, index > 0)
        traces.append(trace)
        if not trace.success:
            break
    return traces
