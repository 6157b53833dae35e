"""Experiment scale profiles.

``quick`` keeps every experiment comfortably inside a laptop-minute budget;
``full`` approaches the paper's evaluation scale (1000 test sequences is
still out of reach of a pure-Python policy stack, but 200 jobs gives stable
statistics).  Select with the ``REPRO_PROFILE`` environment variable or an
explicit argument to each experiment's ``run()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.fleet import DEFAULT_FLEET_SIZE

__all__ = ["Profile", "QUICK", "FULL", "get_profile"]


@dataclass(frozen=True)
class Profile:
    """Sample counts for the evaluation-scale experiments."""

    name: str
    jobs: int  # five-task jobs per system per layout
    demos_per_task: int
    epochs: int
    pipeline_frames: int  # frames for the Fig. 2 breakdown trace
    threshold_points: tuple[float, ...]  # Fig. 15 sweep
    sweep_trajectories: int
    eval_seed: int = 1234
    fleet_size: int = DEFAULT_FLEET_SIZE  # jobs rolled out in lock-step per evaluation fleet
    family_episodes: int = 2  # episodes per task in the per-family matrix
    workers: int = 1  # OS processes sharding each evaluation (1 = in-process)
    # Directory of the content-addressed result cache (repro.serving.cache);
    # None evaluates without one.  With a cache, re-running an experiment
    # against unchanged policy weights re-rolls nothing -- cached lanes are
    # byte-identical to fresh ones, so reports cannot drift.
    result_cache_dir: str | None = None


QUICK = Profile(
    name="quick",
    jobs=25,
    demos_per_task=24,
    epochs=12,
    pipeline_frames=300,
    threshold_points=(0.0, 0.2, 0.4, 0.6, 0.8),
    sweep_trajectories=2,
)

FULL = Profile(
    name="full",
    jobs=200,
    demos_per_task=24,
    epochs=12,
    pipeline_frames=300,
    threshold_points=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
    sweep_trajectories=4,
    family_episodes=6,
)


def get_profile(name: str | None = None) -> Profile:
    """Resolve a profile by explicit name or the ``REPRO_PROFILE`` variable."""
    chosen = (name or os.environ.get("REPRO_PROFILE", "quick")).lower()
    if chosen == "quick":
        return QUICK
    if chosen == "full":
        return FULL
    raise ValueError(f"unknown profile {chosen!r} (expected 'quick' or 'full')")
