"""Discrete-event composition of the two execution pipelines (paper Fig. 1).

**Baseline** (Fig. 1a): every frame serialises communication, inference and
control, so per-frame latency is the sum of all three stages.

**Corki** (Fig. 1b): inference runs once per executed trajectory; while the
robot executes, newly captured frames stream back to the server *under* the
execution time, so communication contributes energy but no latency.  The
frame that ends a trajectory carries the next inference's latency; every
frame carries one control computation on the configured substrate.

Two execution granularities produce the same frame records:

* :func:`simulate_baseline` / :func:`simulate_corki` -- the scalar
  references, one Python-level loop iteration per frame; and
* :func:`simulate_lanes` -- the lane-batched kernel, which evaluates a
  whole batch of :class:`PipelineLane` specifications as ``(lane, frame)``
  array arithmetic into a stacked :class:`~repro.pipeline.trace.TraceArrays`.

The batched kernel is **bitwise equal** to the scalar references per lane:
each lane's jitter values come from one vectorised draw on that lane's own
generator (the same PCG64 stream produces identical values chunked or one
at a time, and draws happen in the scalar functions' stage order), and the
stage arithmetic applies the identical float64 operations element-wise.
Jitter generators are keyed per lane (:func:`lane_jitter_rng`) or per
system name (:func:`system_jitter_rng`), never threaded sequentially
through a batch, so a lane's bytes are invariant to which other lanes are
simulated beside it -- the same fleet-size-invariance contract
``step_lanes`` established for physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.pipeline.stages import SystemStages
from repro.pipeline.trace import FrameRecord, PipelineTrace, TraceArrays

__all__ = [
    "PipelineLane",
    "lane_jitter_rng",
    "system_jitter_rng",
    "simulate_baseline",
    "simulate_corki",
    "simulate_lanes",
]


def _jitter(rng: np.random.Generator | None, value: float) -> float:
    if rng is None:
        return value
    return value * float(1.0 + constants.STAGE_JITTER * rng.standard_normal())


def simulate_baseline(
    frames: int,
    stages: SystemStages | None = None,
    rng: np.random.Generator | None = None,
    name: str = "roboflamingo",
) -> PipelineTrace:
    """Frame-by-frame sequential pipeline: every stage on every frame."""
    stages = stages or SystemStages.baseline()
    records = []
    for _ in range(frames):
        inference_ms = _jitter(rng, stages.inference.latency_ms)
        control_ms = _jitter(rng, stages.control.latency_ms)
        communication_ms = _jitter(rng, stages.communication.latency_ms)
        records.append(
            FrameRecord(
                inference_ms=inference_ms,
                control_ms=control_ms,
                communication_ms=communication_ms,
                inference_j=inference_ms / 1000.0 * stages.inference.power_w,
                control_j=control_ms / 1000.0 * stages.control.power_w,
                communication_j=communication_ms / 1000.0 * stages.communication.power_w,
            )
        )
    return PipelineTrace(name, records)


def simulate_corki(
    executed_steps: list[int],
    stages: SystemStages | None = None,
    rng: np.random.Generator | None = None,
    name: str = "corki",
) -> PipelineTrace:
    """Trajectory-level pipeline with communication hidden under execution.

    ``executed_steps`` lists, per inference, how many trajectory steps were
    executed before re-planning -- exactly the semantics of
    :attr:`repro.core.runner.EpisodeTrace.executed_steps` (one entry per
    inference, always ``[1, 1, ...]`` for the baseline), whether the trace
    came from a single-episode runner or a
    :class:`repro.core.fleet.FleetRunner` lane.  The first frame of each
    trajectory pays the inference latency; communication of the frames
    captured during execution hides under the robot's physical execution
    time (``steps`` x 33.3 ms) and only the remainder, if any, stays exposed
    on the boundary frame.  Hidden communication still costs energy on the
    frame that captured it.
    """
    stages = stages or SystemStages.corki()
    records = []
    for steps in executed_steps:
        if steps < 1:
            raise ValueError("every trajectory must execute at least one step")
        execution_window_ms = steps * constants.FRAME_DT_MS
        exposed_comm_ms = max(0.0, stages.communication.latency_ms - execution_window_ms)
        for step in range(steps):
            inference_ms = _jitter(rng, stages.inference.latency_ms) if step == 0 else 0.0
            control_ms = _jitter(rng, stages.control.latency_ms)
            hidden_comm_ms = _jitter(rng, stages.communication.latency_ms)
            records.append(
                FrameRecord(
                    inference_ms=inference_ms,
                    control_ms=control_ms,
                    communication_ms=exposed_comm_ms if step == 0 else 0.0,
                    inference_j=inference_ms / 1000.0 * stages.inference.power_w,
                    control_j=control_ms / 1000.0 * stages.control.power_w,
                    communication_j=hidden_comm_ms / 1000.0 * stages.communication.power_w,
                )
            )
    return PipelineTrace(name, records)


def lane_jitter_rng(seed: int, lane_index: int) -> np.random.Generator:
    """The stage-jitter generator of one pipeline lane.

    Keyed ``[seed, 3, lane]`` -- stream id 3 keeps lane jitter disjoint from
    the env (``[seed, 1, lane]``) and feedback (``[seed, 2, lane]``) streams
    of :func:`repro.analysis.evaluation.lane_generators`, and the per-lane
    keying makes a lane's jitter a pure function of ``(seed, lane)``: never
    of fleet size, simulation order or which systems share the batch.
    """
    return np.random.default_rng([seed, 3, lane_index])


def system_jitter_rng(seed: int, name: str) -> np.random.Generator:
    """The stage-jitter generator of one named system trace.

    Keyed ``[seed, 4, *name-bytes]`` (stream id 4 keeps name-keyed streams
    disjoint from the integer-keyed lane streams), so every system of a
    figure draws from its own stream and adding or removing a system leaves
    every other system's numbers untouched.
    """
    return np.random.default_rng([seed, 4, *name.encode()])


@dataclass(frozen=True)
class PipelineLane:
    """Specification of one lane of :func:`simulate_lanes`.

    Exactly one of ``frames`` (a baseline lane: every stage on every frame)
    and ``executed_steps`` (a Corki lane: the per-inference execution
    lengths) must be given.  ``rng`` is the lane's private jitter generator
    (``None`` disables jitter); ``stages`` defaults to the execution model's
    standard configuration.
    """

    name: str
    frames: int | None = None
    executed_steps: tuple[int, ...] | None = None
    stages: SystemStages | None = None
    rng: np.random.Generator | None = None

    def __post_init__(self) -> None:
        if (self.frames is None) == (self.executed_steps is None):
            raise ValueError("a lane needs exactly one of frames / executed_steps")
        if self.frames is not None and self.frames < 1:
            raise ValueError("a baseline lane needs at least one frame")
        if self.executed_steps is not None:
            if not self.executed_steps:
                raise ValueError("a Corki lane needs at least one trajectory")
            if min(self.executed_steps) < 1:
                raise ValueError("every trajectory must execute at least one step")

    @property
    def frame_count(self) -> int:
        if self.frames is not None:
            return self.frames
        assert self.executed_steps is not None
        return int(sum(self.executed_steps))

    def resolved_stages(self) -> SystemStages:
        if self.stages is not None:
            return self.stages
        return SystemStages.baseline() if self.frames is not None else SystemStages.corki()


def _jitter_factors(
    rng: np.random.Generator | None, draws: int
) -> np.ndarray:
    """Per-draw multiplicative jitter factors, in the scalar draw order.

    One chunked ``standard_normal`` call consumes the generator's stream
    exactly as ``draws`` sequential scalar draws would, so factor ``k`` here
    is bitwise equal to the ``k``-th ``_jitter`` factor of the scalar
    executors.  ``rng=None`` yields unit factors (no jitter), matching the
    scalar no-rng path bit for bit (``value * 1.0 == value``).
    """
    if rng is None:
        return np.ones(draws)
    return 1.0 + constants.STAGE_JITTER * rng.standard_normal(draws)


def _fill_baseline_lane(out: TraceArrays, lane_index: int, lane: PipelineLane) -> None:
    stages = lane.resolved_stages()
    n = lane.frame_count
    # Scalar draw order per frame: inference, control, communication --
    # row-major (frame, stage) factors reproduce it exactly.
    factors = _jitter_factors(lane.rng, 3 * n).reshape(n, 3)
    inference = stages.inference.latency_ms * factors[:, 0]
    control = stages.control.latency_ms * factors[:, 1]
    communication = stages.communication.latency_ms * factors[:, 2]
    out.inference_ms[lane_index, :n] = inference
    out.control_ms[lane_index, :n] = control
    out.communication_ms[lane_index, :n] = communication
    out.inference_j[lane_index, :n] = inference / 1000.0 * stages.inference.power_w
    out.control_j[lane_index, :n] = control / 1000.0 * stages.control.power_w
    out.communication_j[lane_index, :n] = (
        communication / 1000.0 * stages.communication.power_w
    )


def _fill_corki_lane(out: TraceArrays, lane_index: int, lane: PipelineLane) -> None:
    stages = lane.resolved_stages()
    steps = np.asarray(lane.executed_steps, dtype=int)
    n = int(steps.sum())
    starts = np.concatenate([[0], np.cumsum(steps)[:-1]])
    boundary = np.zeros(n, dtype=bool)
    boundary[starts] = True

    # Scalar draw order: boundary frames consume (inference, control,
    # hidden-communication), interior frames (control, hidden-communication).
    # One flat draw scattered by per-frame offsets reproduces that order.
    per_frame = np.where(boundary, 3, 2)
    offsets = np.concatenate([[0], np.cumsum(per_frame)[:-1]])
    factors = _jitter_factors(lane.rng, int(per_frame.sum()))
    shift = boundary.astype(int)
    control = stages.control.latency_ms * factors[offsets + shift]
    hidden_comm = stages.communication.latency_ms * factors[offsets + 1 + shift]
    inference = np.zeros(n)
    inference[starts] = stages.inference.latency_ms * factors[offsets[starts]]

    # Only the communication that does not fit under the execution window
    # stays exposed as latency, on the boundary frame; hidden communication
    # still costs energy on the frame that captured it.
    execution_window_ms = steps * constants.FRAME_DT_MS
    exposed_comm = np.maximum(0.0, stages.communication.latency_ms - execution_window_ms)
    communication = np.zeros(n)
    communication[starts] = exposed_comm

    out.inference_ms[lane_index, :n] = inference
    out.control_ms[lane_index, :n] = control
    out.communication_ms[lane_index, :n] = communication
    out.inference_j[lane_index, :n] = inference / 1000.0 * stages.inference.power_w
    out.control_j[lane_index, :n] = control / 1000.0 * stages.control.power_w
    out.communication_j[lane_index, :n] = (
        hidden_comm / 1000.0 * stages.communication.power_w
    )


# repro: allow[BATCH-REF] reason=scalar twins are simulate_baseline/simulate_corki (per-lane-kind names); the differential harness pins both
def simulate_lanes(lanes: list[PipelineLane]) -> TraceArrays:
    """Evaluate a batch of pipeline lanes as stacked ``(lane, frame)`` arrays.

    Lane ``i`` of the returned :class:`~repro.pipeline.trace.TraceArrays` is
    bitwise equal to the scalar reference for the same specification --
    ``simulate_baseline(frames, stages, rng, name)`` for a ``frames`` lane,
    ``simulate_corki(executed_steps, stages, rng, name)`` for an
    ``executed_steps`` lane -- provided the lane's ``rng`` starts from the
    same state.  Jitter is drawn per lane in lane order, each lane from its
    own generator, so results are invariant to batch composition.
    """
    arrays = TraceArrays(
        [lane.name for lane in lanes],
        np.array([lane.frame_count for lane in lanes], dtype=int),
    )
    for index, lane in enumerate(lanes):
        if lane.frames is not None:
            _fill_baseline_lane(arrays, index, lane)
        else:
            _fill_corki_lane(arrays, index, lane)
    return arrays
