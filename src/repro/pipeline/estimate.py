"""Per-lane latency/energy estimates on the fleet path.

The figure scripts evaluate the paper's latency/energy model
(:func:`repro.pipeline.executor.simulate_baseline` /
:func:`~repro.pipeline.executor.simulate_corki`) for a handful of hand-built
frame schedules.  This module attaches the same model to *measured*
executions: given the per-frame structure an episode actually produced
(frame count for the baseline, executed-trajectory lengths for Corki), it
evaluates the batched :func:`~repro.pipeline.executor.simulate_lanes`
kernel and condenses each lane into a :class:`PipelineEstimate` -- the
``estimate`` block that fleet evaluations and serving responses report.

Determinism contract: jitter for lane ``i`` always comes from
:func:`~repro.pipeline.executor.lane_jitter_rng` keyed by ``(seed, i)``,
so an estimate is a pure function of ``(system, structure, seed, lane)``
-- never of fleet size or of which other lanes were evaluated.  That is
what makes a cache hit's estimate bitwise identical to the fresh roll it
replaces (``tests/test_serving.py``) and the batched figure paths byte
identical to their scalar references (``tests/test_batched_equivalence.py``).

:class:`FleetEstimator` is the :class:`repro.core.fleet.FleetRunner` hook:
each fleet tick feeds it the lanes that advanced one camera frame, it
accumulates every lane's frame structure (trajectory boundaries included),
and :meth:`FleetEstimator.estimates` costs all lanes in one
``simulate_lanes`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.executor import PipelineLane, lane_jitter_rng, simulate_lanes
from repro.pipeline.stages import SystemStages
from repro.pipeline.trace import TraceView

__all__ = [
    "DEFAULT_ESTIMATE_SEED",
    "FleetEstimator",
    "PipelineEstimate",
    "estimate_from_steps",
    "estimate_lanes",
    "stages_for_system",
]

DEFAULT_ESTIMATE_SEED = 17
"""Jitter seed shared by every estimate producer (evaluation and serving)."""


def stages_for_system(system: str) -> SystemStages:
    """The stage model a system name implies.

    ``corki-sw`` is the paper's software ablation -- trajectory-level
    execution with the controller left on the CPU (``control="cpu"``,
    matching ``VARIATIONS["corki-sw"]``); every other ``corki-*`` uses the
    FPGA controller; ``roboflamingo`` is the frame-by-frame baseline.
    """
    if system == "roboflamingo":
        return SystemStages.baseline()
    if system == "corki-sw":
        return SystemStages.corki(control="cpu")
    if system.startswith("corki"):
        return SystemStages.corki()
    raise ValueError(f"unknown system {system!r}")


@dataclass(frozen=True)
class PipelineEstimate:
    """Latency/energy summary of one lane's execution under a system model."""

    system: str
    frames: int
    mean_latency_ms: float
    mean_energy_j: float

    @property
    def frequency_hz(self) -> float:
        return 1000.0 / self.mean_latency_ms

    @property
    def total_energy_j(self) -> float:
        return self.frames * self.mean_energy_j

    def to_json(self) -> dict:
        """JSON-ready mapping (the serving response's ``estimate`` block)."""
        return {
            "system": self.system,
            "frames": self.frames,
            "mean_latency_ms": self.mean_latency_ms,
            "mean_energy_j": self.mean_energy_j,
        }

    @classmethod
    def from_view(cls, view: TraceView) -> "PipelineEstimate":
        return cls(
            system=view.name,
            frames=view.frame_count,
            mean_latency_ms=view.mean_latency_ms,
            mean_energy_j=view.mean_energy_j,
        )


def _lane_for(
    system: str,
    executed_steps: list[int],
    seed: int,
    lane: int,
) -> PipelineLane:
    """One lane specification from a measured execution structure."""
    stages = stages_for_system(system)
    rng = lane_jitter_rng(seed, lane)
    if system == "roboflamingo":
        # The baseline executes one step per frame; its structure is just
        # the frame count.
        return PipelineLane(system, frames=sum(executed_steps), rng=rng, stages=stages)
    return PipelineLane(
        system, executed_steps=tuple(executed_steps), rng=rng, stages=stages
    )


def estimate_lanes(
    system: str,
    lane_steps: list[list[int]],
    seed: int = DEFAULT_ESTIMATE_SEED,
    lane_indices: list[int] | None = None,
) -> list[PipelineEstimate]:
    """Cost many lanes' executions in one batched kernel call.

    ``lane_steps[k]`` is lane ``k``'s executed-steps record
    (``EpisodeTrace.executed_steps``, concatenated across an episode chain);
    ``lane_indices`` pins each lane's jitter-stream key when the lanes are
    a slice of a larger fleet (defaults to ``0..N-1``).
    """
    if lane_indices is None:
        lane_indices = list(range(len(lane_steps)))
    if len(lane_indices) != len(lane_steps):
        raise ValueError("one lane index per steps record is required")
    lanes = [
        _lane_for(system, steps, seed, index)
        for steps, index in zip(lane_steps, lane_indices)
    ]
    arrays = simulate_lanes(lanes)
    return [PipelineEstimate.from_view(view) for view in arrays]


def estimate_from_steps(
    system: str,
    executed_steps: list[int],
    seed: int = DEFAULT_ESTIMATE_SEED,
    lane: int = 0,
) -> PipelineEstimate:
    """Estimate one lane -- the N=1 case of :func:`estimate_lanes`."""
    return estimate_lanes(system, [list(executed_steps)], seed, [lane])[0]


class _LaneLog:
    """Frame structure one fleet lane accumulated so far."""

    __slots__ = ("system", "steps", "open_steps")

    def __init__(self, system: str):
        self.system = system
        self.steps: list[int] = []
        self.open_steps = 0

    def advance(self, closed: bool) -> None:
        self.open_steps += 1
        if closed:
            self.steps.append(self.open_steps)
            self.open_steps = 0


class FleetEstimator:
    """Accumulate per-lane latency/energy structure as a fleet ticks.

    Pass one to :class:`repro.core.fleet.FleetRunner`; after every tick the
    runner hands over the lanes that advanced a camera frame.  Baseline
    lanes close a "trajectory" every frame; Corki lanes close when their
    executed trajectory ends (including mid-trajectory success and episode
    chaining).  :meth:`estimates` then prices all lanes through one
    :func:`~repro.pipeline.executor.simulate_lanes` call, keyed per lane
    index so the numbers are fleet-size invariant.
    """

    def __init__(self, seed: int = DEFAULT_ESTIMATE_SEED):
        self.seed = seed
        self._logs: dict[int, _LaneLog] = {}

    def observe(self, store, slots) -> None:
        """Record one executed camera frame for every slot in ``slots``.

        ``store`` is the runner's :class:`repro.core.fleet.LaneArrays`: a
        slot's system is read the first time it ticks, and its
        ``closed(slots)`` mask marks the slots whose executed trajectory
        ended on this frame.
        """
        for slot, closed in zip(slots.tolist(), store.closed(slots).tolist()):
            log = self._logs.get(slot)
            if log is None:
                log = self._logs[slot] = _LaneLog(store.system(slot))
            log.advance(closed=closed)

    def estimates(self) -> dict[int, PipelineEstimate]:
        """Per-lane-index estimates, all lanes costed in one batched call.

        Lanes that never closed a trajectory (or never ticked) are absent.
        """
        items = [
            (index, log)
            for index, log in sorted(self._logs.items())
            if log.steps
        ]
        if not items:
            return {}
        estimates: dict[int, PipelineEstimate] = {}
        by_system: dict[str, list[tuple[int, _LaneLog]]] = {}
        for index, log in items:
            by_system.setdefault(log.system, []).append((index, log))
        for system, group in by_system.items():
            indices = [index for index, _ in group]
            results = estimate_lanes(
                system, [log.steps for _, log in group], self.seed, indices
            )
            estimates.update(zip(indices, results))
        return dict(sorted(estimates.items()))
