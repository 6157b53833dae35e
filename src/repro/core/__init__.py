"""Corki algorithm framework: the paper's primary contribution."""

from repro.core.closed_loop import (
    MIDPOINT_FEEDBACK,
    NO_FEEDBACK,
    RANDOM_FEEDBACK,
    FeedbackSchedule,
    schedule_by_name,
)
from repro.core.config import (
    ADAPTIVE_DISTANCE_THRESHOLD,
    PREDICTION_HORIZON,
    VARIATIONS,
    CorkiVariation,
    variation_by_name,
)
from repro.core.fleet import FleetLane, FleetRunner
from repro.core.policy import WINDOW_LENGTH, BaselinePolicy, CorkiPolicy
from repro.core.runner import MAX_EPISODE_FRAMES, EpisodeTrace
from repro.core.training import (
    TrainingConfig,
    build_baseline_dataset,
    build_corki_dataset,
    deployment_slot_pattern,
    train_baseline,
    train_corki,
)
from repro.core.trajectory import (
    CubicTrajectory,
    TrajectoryBatch,
    fit_cubic,
    polynomial_design_matrix,
    pose_batch,
)
from repro.core.waypoints import (
    adaptive_termination_step,
    adaptive_termination_step_lanes,
    gripper_change_flags,
    point_line_distance,
    segment_angles,
)

__all__ = [
    "ADAPTIVE_DISTANCE_THRESHOLD",
    "BaselinePolicy",
    "CorkiPolicy",
    "CorkiVariation",
    "CubicTrajectory",
    "EpisodeTrace",
    "FeedbackSchedule",
    "FleetLane",
    "FleetRunner",
    "MAX_EPISODE_FRAMES",
    "MIDPOINT_FEEDBACK",
    "NO_FEEDBACK",
    "PREDICTION_HORIZON",
    "RANDOM_FEEDBACK",
    "TrainingConfig",
    "TrajectoryBatch",
    "VARIATIONS",
    "WINDOW_LENGTH",
    "adaptive_termination_step",
    "adaptive_termination_step_lanes",
    "build_baseline_dataset",
    "build_corki_dataset",
    "deployment_slot_pattern",
    "fit_cubic",
    "gripper_change_flags",
    "point_line_distance",
    "polynomial_design_matrix",
    "pose_batch",
    "schedule_by_name",
    "segment_angles",
    "train_baseline",
    "train_corki",
    "variation_by_name",
]
