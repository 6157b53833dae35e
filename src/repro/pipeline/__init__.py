"""System-level execution pipeline: latency and energy composition."""

from repro.pipeline.estimate import (
    DEFAULT_ESTIMATE_SEED,
    PipelineEstimate,
    estimate_from_steps,
    estimate_lanes,
    stages_for_system,
)
from repro.pipeline.executor import (
    PipelineLane,
    lane_jitter_rng,
    simulate_baseline,
    simulate_corki,
    simulate_lanes,
    system_jitter_rng,
)
from repro.pipeline.power import RobotPowerModel, system_energy_per_frame
from repro.pipeline.stages import (
    CommunicationStage,
    ControlStage,
    InferenceStage,
    SystemStages,
)
from repro.pipeline.trace import FrameRecord, PipelineTrace, TraceArrays, TraceView

__all__ = [
    "CommunicationStage",
    "ControlStage",
    "DEFAULT_ESTIMATE_SEED",
    "FrameRecord",
    "InferenceStage",
    "PipelineEstimate",
    "PipelineLane",
    "PipelineTrace",
    "RobotPowerModel",
    "SystemStages",
    "TraceArrays",
    "TraceView",
    "estimate_from_steps",
    "estimate_lanes",
    "lane_jitter_rng",
    "simulate_baseline",
    "simulate_corki",
    "simulate_lanes",
    "stages_for_system",
    "system_energy_per_frame",
    "system_jitter_rng",
]
