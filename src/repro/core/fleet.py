"""Batched fleet evaluation: advance many closed-loop episodes in lock-step.

The single-episode runners in :mod:`repro.core.runner` reproduce the paper's
execution models one rollout at a time, which leaves the policy's matmuls
operating on one token window per Python-level forward pass.  This module is
the throughput path: a :class:`FleetRunner` drives N lanes (one environment
plus one job of chained tasks each) through shared *ticks*, where every tick

1. gathers the Corki lanes sitting at a trajectory boundary and runs **one**
   batched VLM encode plus **one** batched trajectory prediction for all of
   them, and decides every adaptive lane's execution length with one
   Algorithm 1 call (lanes de-synchronise because executed-trajectory
   lengths differ -- the same per-inference bookkeeping
   ``EpisodeTrace.executed_steps`` records);
2. gathers every baseline lane (which needs inference on *every* frame,
   paper Fig. 1a), encodes its newest frame in one batched VLM call and
   runs one ``predict_token_batch`` call on the lanes' token rings;
3. advances each active lane one camera frame through
   :class:`repro.sim.env.BatchedManipulationEnv`; and
4. settles the tick's bookkeeping as array updates and batch-encodes the
   closed-loop feedback frames captured this tick (paper Sec. 3.4).

Lane state lives in one slot-indexed store, :class:`LaneArrays` (the lane
counterpart of :class:`repro.sim.objects.SceneArrays`), so a tick touches
per-lane Python only where lanes really diverge: episode start and end, the
lane-private feedback-step draws and the task success predicates.

Each lane owns its random generators, and the batched policy entry points
pad singleton batches (see ``repro.core.policy._pad_singleton``), so a
lane's episode is element-wise identical to the one the single-episode
runner would produce from the same seeds -- ``tests/test_fleet.py`` asserts
this for every policy kind, including job chaining, and pins the whole
runner to a frozen copy of its earlier per-lane-object form.  Episodes in a
batch progress independently: a lane that finishes a task chains into the
next task of its job (or retires) without stalling its neighbours.

Determinism contract: the runner owns no randomness and keeps no state
across lanes, so a lane's traces are a pure function of its environment
generator, its :class:`FleetLane` specification and the policy weights --
never of fleet size, admission order or which other lanes run beside it.
That invariance is what makes both batch mode (:meth:`FleetRunner.run`) and
continuous batching (:meth:`FleetRunner.run_continuous`, where a finished
lane's slot is refilled from an open-ended stream at the next inference
boundary) interchangeable with single-episode rollouts, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.closed_loop import NO_FEEDBACK, FeedbackSchedule, schedule_by_name
from repro.core.config import ADAPTIVE_DISTANCE_THRESHOLD, CorkiVariation
from repro.core.policy import WINDOW_LENGTH, BaselinePolicy, CorkiPolicy
from repro.core.runner import MAX_EPISODE_FRAMES, EpisodeTrace, _reference_path
from repro.core.trajectory import TrajectoryBatch, polynomial_design_matrix, pose_batch
from repro.core.waypoints import adaptive_termination_step_lanes, gripper_change_flags
from repro.sim.camera import OBSERVATION_DIM
from repro.sim.env import (
    TRACKING_100HZ,
    TRACKING_30HZ,
    ActuationModel,
    BatchedManipulationEnv,
    ManipulationEnv,
)
from repro.sim.tasks import Task

__all__ = ["FleetLane", "FleetRunner", "LaneArrays", "run_baseline_fleet", "run_corki_fleet"]

_WINDOW_OFFSETS = np.arange(1 - WINDOW_LENGTH, 1)
"""A Corki window's frames relative to the current one, oldest first."""
_FIRST_ROW = WINDOW_LENGTH
"""Token-table row of the episode's frame-0 VLM token (warm-up padding)."""
_MASK_ROW = WINDOW_LENGTH + 1
"""Token-table row of the learned mask embedding."""
_NO_FRAME = np.iinfo(np.int64).min
"""Frame tag of an empty token-table row; no window frame equals it."""


@dataclass
class FleetLane:
    """Specification of one lane: a job of tasks on one environment.

    ``tasks`` is the lane's job, executed until the first failure exactly
    like :func:`repro.core.runner.run_job`; a single episode is a one-task
    job.  ``variation`` selects the Corki variation, or ``None`` for the
    baseline (RoboFlamingo-style) policy.  ``rng`` drives the Corki
    closed-loop feedback schedule and must be lane-private so that episode
    randomness never depends on which other lanes share the fleet.
    ``chained_start`` makes the first task enter via ``continue_with``
    instead of ``reset`` (the single-episode wrappers' ``chained`` flag).
    """

    tasks: list[Task]
    variation: CorkiVariation | None = None
    rng: np.random.Generator | None = None
    actuation: ActuationModel | None = None
    max_frames: int = MAX_EPISODE_FRAMES
    chained_start: bool = False

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a lane needs at least one task")
        if self.variation is not None and self.variation.closed_loop and self.rng is None:
            raise ValueError("closed-loop Corki lanes need a lane-private rng")


class LaneArrays:
    """Episode state of every fleet slot, one row per slot.

    Row ``s`` describes the lane in slot ``s`` of the fleet's
    :class:`~repro.sim.env.BatchedManipulationEnv`: its frame counter and
    task index, the Corki plan (origin, physical coefficients, duration,
    gripper schedule, executed-step cursor, planned length, feedback step),
    the paths recorded so far and both policies' token state.  ``active``
    masks the slots whose lane is still rolling.  Per-lane Python objects
    are kept only for what differs in kind between lanes: the
    :class:`FleetLane`, its feedback schedule and actuation model, the
    episode's reference path and the finished traces.

    Token state.  A baseline slot keeps the last 12 VLM tokens in a ring
    (``ring``, newest at ``head``; a fresh episode fills every position
    with its first token).  A Corki slot keeps a token table: rows ``0..11``
    hold the inference (VLM) and feedback (ViT) tokens of the last 12
    frames, at ``frame % 12`` and tagged with their frame; row 12 the
    episode's first VLM token (every Corki episode plans on its frame 0),
    row 13 the mask embedding.  A window is one gather over that table: a
    frame's own token where one was recorded, the first token for frames
    before the episode started, the mask elsewhere -- the training-time
    pattern of :func:`repro.core.training.deployment_slot_pattern`.
    """

    def __init__(
        self,
        fleet: BatchedManipulationEnv,
        baseline: BaselinePolicy | None,
        corki: CorkiPolicy | None,
    ):
        slots = len(fleet)
        self.fleet = fleet
        self.lanes: list[FleetLane | None] = [None] * slots
        self.schedules: list[FeedbackSchedule] = [NO_FEEDBACK] * slots
        self.actuations: list[ActuationModel] = [TRACKING_30HZ] * slots
        self.references: list[np.ndarray | None] = [None] * slots
        self.traces: list[list[EpisodeTrace]] = [[] for _ in range(slots)]
        self.active = np.zeros(slots, dtype=bool)
        self.corki = np.zeros(slots, dtype=bool)
        self.adaptive = np.zeros(slots, dtype=bool)
        self.fixed_steps = np.zeros(slots, dtype=int)
        self.max_frames = np.zeros(slots, dtype=int)
        self.task_index = np.zeros(slots, dtype=int)
        self.instruction = np.zeros(slots, dtype=int)
        self.frame = np.zeros(slots, dtype=int)
        self.observation = np.zeros((slots, OBSERVATION_DIM))
        self.command = np.zeros((slots, 6))
        self.command_open = np.zeros(slots, dtype=bool)
        # Paths and the executed-steps record, sized by reserve().
        self.path = np.zeros((slots, 1, 6))
        self.gripper_path = np.zeros((slots, 1), dtype=bool)
        self.executed = np.zeros((slots, 1), dtype=int)
        self.executed_count = np.zeros(slots, dtype=int)
        # Corki plans: steps executed so far, planned length (0 = re-plan
        # this tick) and the feedback step (0 = none).
        self.cursor = np.zeros(slots, dtype=int)
        self.planned = np.zeros(slots, dtype=int)
        self.feedback_step = np.zeros(slots, dtype=int)
        horizon = corki.horizon if corki is not None else 0
        self.origin = np.zeros((slots, 6))
        self.coefficients = np.zeros((slots, 6, 4))
        self.duration = np.ones(slots)
        self.gripper_plan = np.zeros((slots, horizon), dtype=bool)
        baseline_dim = baseline.token_dim if baseline is not None else 0
        self.ring = np.zeros((slots, WINDOW_LENGTH, baseline_dim))
        self.head = np.full(slots, -1)
        corki_dim = corki.token_dim if corki is not None else 0
        self.tokens = np.zeros((slots, WINDOW_LENGTH + 2, corki_dim))
        if corki is not None:
            self.tokens[:, _MASK_ROW] = corki.mask_token()
        self.token_frame = np.full((slots, WINDOW_LENGTH), _NO_FRAME)

    # -- lane lifecycle (per-lane Python: lanes diverge here) ----------------

    def reserve(self, max_frames: int) -> None:
        """Grow the path buffers to hold ``max_frames + 1`` entries per slot."""
        old = self.path.shape[1]
        if max_frames + 1 <= old:
            return
        slots = len(self.lanes)
        path = np.zeros((slots, max_frames + 1, 6))
        gripper_path = np.zeros((slots, max_frames + 1), dtype=bool)
        executed = np.zeros((slots, max_frames + 1), dtype=int)
        path[:, :old] = self.path
        gripper_path[:, :old] = self.gripper_path
        executed[:, :old] = self.executed
        self.path, self.gripper_path, self.executed = path, gripper_path, executed

    def admit(self, slot: int, lane: FleetLane) -> None:
        """Reset row ``slot`` for ``lane`` and start its first episode."""
        variation = lane.variation
        self.reserve(lane.max_frames)
        self.lanes[slot] = lane
        self.traces[slot] = []
        self.corki[slot] = variation is not None
        self.adaptive[slot] = variation is not None and variation.adaptive
        self.fixed_steps[slot] = (
            0 if variation is None or variation.adaptive else int(variation.execute_steps)
        )
        self.schedules[slot] = (
            schedule_by_name(variation.feedback)
            if variation is not None and variation.closed_loop
            else NO_FEEDBACK
        )
        self.actuations[slot] = lane.actuation or (
            TRACKING_30HZ if variation is None else TRACKING_100HZ
        )
        self.max_frames[slot] = lane.max_frames
        self.task_index[slot] = 0
        self.active[slot] = True
        self._start_episode(slot, chained=lane.chained_start)

    def _start_episode(self, slot: int, chained: bool) -> None:
        lane = self.lanes[slot]
        assert lane is not None
        env = self.fleet.envs[slot]
        task = lane.tasks[self.task_index[slot]]
        self.observation[slot] = env.continue_with(task) if chained else env.reset(task)
        assert env.scene is not None
        self.references[slot] = _reference_path(env, task)
        self.instruction[slot] = task.instruction_id
        self.frame[slot] = 0
        self.path[slot, 0] = env.scene.ee_pose
        self.gripper_path[slot, 0] = env.scene.gripper_open
        self.executed_count[slot] = 0
        self.cursor[slot] = 0
        self.planned[slot] = 0
        self.feedback_step[slot] = 0
        self.head[slot] = -1
        self.token_frame[slot] = _NO_FRAME
        self.tokens[slot, _FIRST_ROW] = self.tokens[slot, _MASK_ROW]

    def finish_episode(self, slot: int, success: bool) -> None:
        """Record the slot's trace; chain its next task or retire it."""
        lane = self.lanes[slot]
        assert lane is not None
        frames = int(self.frame[slot])
        self.traces[slot].append(
            EpisodeTrace(
                success=success,
                frames=frames,
                executed_steps=self.executed[slot, : self.executed_count[slot]].tolist(),
                ee_path=self.path[slot, : frames + 1].copy(),
                reference_path=self.references[slot],
                gripper_path=self.gripper_path[slot, : frames + 1].copy(),
            )
        )
        if success and self.task_index[slot] + 1 < len(lane.tasks):
            self.task_index[slot] += 1
            self._start_episode(slot, chained=True)
        else:
            self.active[slot] = False

    # -- token state ------------------------------------------------------------

    def push_ring_tokens(self, slots: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Shift each baseline slot's newest-frame token into its ring and
        return the ``(B, 12, token)`` windows, oldest token first."""
        head = self.head[slots]
        fresh = head < 0
        if fresh.any():
            self.ring[slots[fresh]] = tokens[fresh, None, :]
        head = np.where(fresh, WINDOW_LENGTH - 1, (head + 1) % WINDOW_LENGTH)
        self.ring[slots, head] = tokens
        self.head[slots] = head
        order = (head[:, None] + 1 + np.arange(WINDOW_LENGTH)) % WINDOW_LENGTH
        return self.ring[slots[:, None], order]

    def insert_tokens(
        self, slots: np.ndarray, frames: np.ndarray, tokens: np.ndarray, inference: bool
    ) -> None:
        """Record Corki tokens encoded at ``frames``: VLM tokens of inference
        frames (frame 0's also pads the episode's warm-up) or ViT tokens of
        feedback frames."""
        position = frames % WINDOW_LENGTH
        self.tokens[slots, position] = tokens
        self.token_frame[slots, position] = frames
        if inference:
            first = frames == 0
            self.tokens[slots[first], _FIRST_ROW] = tokens[first]

    def corki_windows(self, slots: np.ndarray) -> np.ndarray:
        """The ``(B, 12, token)`` windows ending at each slot's current frame."""
        frames = self.frame[slots, None] + _WINDOW_OFFSETS
        position = frames % WINDOW_LENGTH
        recorded = self.token_frame[slots[:, None], position] == frames
        row = np.where(recorded, position, np.where(frames < 0, _FIRST_ROW, _MASK_ROW))
        return self.tokens[slots[:, None], row]


class FleetRunner:
    """Advance a fleet of independent episodes with batched inference.

    Construct with the policies the lanes reference (a homogeneous fleet
    needs only one of them; mixed fleets are supported) and call
    :meth:`run`.  The runner owns no randomness -- environments and lanes
    carry their own generators -- so results are a pure function of the
    lane specifications.
    """

    def __init__(
        self,
        baseline: BaselinePolicy | None = None,
        corki: CorkiPolicy | None = None,
    ):
        self.baseline = baseline
        self.corki = corki

    def _admit(self, store: LaneArrays, slot: int, lane: FleetLane) -> None:
        """Admit one lane into slot ``slot``: reset its env and its row."""
        if lane.variation is None:
            if self.baseline is None:
                raise ValueError("fleet has baseline lanes but no baseline policy")
        elif self.corki is None:
            raise ValueError("fleet has Corki lanes but no Corki policy")
        store.admit(slot, lane)

    def run(
        self,
        envs: BatchedManipulationEnv | list[ManipulationEnv],
        lanes: list[FleetLane],
    ) -> list[list[EpisodeTrace]]:
        """Run every lane's job to completion; returns traces per lane.

        ``envs`` supplies one environment per lane (a raw list is wrapped in
        a :class:`BatchedManipulationEnv`).  The result's lane ``i`` holds
        the attempted-task traces of ``lanes[i]`` in job order, exactly what
        :func:`repro.core.runner.run_job` returns for the same job.
        """
        fleet = (
            envs
            if isinstance(envs, BatchedManipulationEnv)
            else BatchedManipulationEnv(envs)
        )
        if len(lanes) != len(fleet):
            raise ValueError(
                f"{len(lanes)} lanes need {len(lanes)} environments, got {len(fleet)}"
            )
        store = LaneArrays(fleet, self.baseline, self.corki)
        for slot, lane in enumerate(lanes):
            self._admit(store, slot, lane)
        while store.active.any():
            self._tick(store)
        return store.traces

    def run_continuous(
        self,
        source: Iterable[tuple[ManipulationEnv, FleetLane]],
        slots: int,
        on_complete: Callable[[FleetLane, list[EpisodeTrace]], None],
        should_cancel: Callable[[FleetLane], bool] | None = None,
        on_cancel: Callable[[FleetLane, list[EpisodeTrace]], None] | None = None,
    ) -> int:
        """Serve an open-ended stream of lanes with **continuous batching**.

        ``source`` yields ``(environment, lane)`` admissions; up to ``slots``
        of them fly at once.  Unlike :meth:`run` -- which admits a fixed
        fleet and waits for the whole fleet to drain -- a lane that finishes
        its job here *retires immediately*: its traces are handed to
        ``on_complete(lane, traces)`` and its slot is refilled from
        ``source`` at the next inference boundary, so the batched forward
        passes stay saturated while requests keep arriving.  Admission is a
        row reset of the slot's :class:`LaneArrays` entries.  This is the
        admission discipline a request-serving layer needs
        (:mod:`repro.serving`), and the reason it is safe is the module's
        determinism contract: lane randomness is lane-private and numerics
        are fleet-size invariant, so a lane admitted into a half-drained
        fleet produces byte-identical traces to one rolled in a fresh batch.

        ``should_cancel(lane)`` is polled at each inference boundary (the
        same tick granularity at which lanes are admitted); a lane it votes
        off is evicted *before* the tick's forward passes, its slot refilled
        from ``source``, and its partial traces handed to
        ``on_cancel(lane, traces)`` instead of ``on_complete``.  This is how
        the serving tier enforces request deadlines: one expired lane costs
        the batch a slot-refill, never a stall -- and because lane
        randomness is lane-private, evicting a lane leaves every surviving
        lane's bytes untouched.

        Returns the number of lanes served (cancelled lanes are not
        counted).  Completion callbacks fire in retirement order, which
        depends on episode lengths -- callers that need request order must
        key results off the ``lane`` object.
        """
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        stream: Iterator[tuple[ManipulationEnv, FleetLane]] = iter(source)
        admitted = list(islice(stream, slots))
        if not admitted:
            return 0
        fleet = BatchedManipulationEnv([env for env, _ in admitted])
        store = LaneArrays(fleet, self.baseline, self.corki)
        for slot, (_, lane) in enumerate(admitted):
            self._admit(store, slot, lane)
        served = 0

        def refill_slot(slot: int) -> None:
            store.lanes[slot] = None
            refill = next(stream, None)
            if refill is not None:
                env, lane = refill
                fleet.adopt_lane(slot, env)
                self._admit(store, slot, lane)

        while store.active.any():
            if should_cancel is not None:
                for slot in np.flatnonzero(store.active).tolist():
                    lane = store.lanes[slot]
                    assert lane is not None
                    if not should_cancel(lane):
                        continue
                    if on_cancel is not None:
                        on_cancel(lane, store.traces[slot])
                    store.active[slot] = False
                    refill_slot(slot)
                if not store.active.any():
                    break
            self._tick(store)
            for slot, lane in enumerate(store.lanes):
                if lane is None or store.active[slot]:
                    continue
                on_complete(lane, store.traces[slot])
                served += 1
                refill_slot(slot)
        return served

    def _tick(self, store: LaneArrays) -> None:
        self._plan_corki_lanes(store)
        self._infer_baseline_lanes(store)
        self._step_lanes(store)

    def _plan_corki_lanes(self, store: LaneArrays) -> None:
        """One batched encode + trajectory prediction for every lane at a
        planning boundary (episode start or executed-trajectory end), and
        one Algorithm 1 call for the adaptive ones among them."""
        planners = np.flatnonzero(store.active & store.corki & (store.planned == 0))
        if not planners.size:
            return
        assert self.corki is not None
        tokens = self.corki.encode_frame_token_batch(
            store.observation[planners], store.instruction[planners]
        )
        store.insert_tokens(planners, store.frame[planners], tokens, inference=True)
        origins, gripper_now = store.fleet.arm_states(planners)
        plans = self.corki.predict_trajectory_batch(
            store.corki_windows(planners), origins, store.fleet.frame_dt
        )
        store.origin[planners] = plans.origins
        store.coefficients[planners] = plans.coefficients
        store.duration[planners] = plans.duration
        store.gripper_plan[planners] = plans.gripper_open
        steps = store.fixed_steps[planners]
        adaptive = np.flatnonzero(store.adaptive[planners])
        if adaptive.size:
            steps[adaptive] = _adaptive_steps(plans, adaptive, gripper_now[adaptive])
        planned = np.minimum(steps, store.max_frames[planners] - store.frame[planners])
        store.planned[planners] = planned
        store.cursor[planners] = 0
        for slot, count in zip(planners.tolist(), planned.tolist()):
            lane = store.lanes[slot]
            assert lane is not None
            step = store.schedules[slot].feedback_step(count, lane.rng)
            store.feedback_step[slot] = 0 if step is None else step

    def _infer_baseline_lanes(self, store: LaneArrays) -> None:
        """One batched per-frame action prediction for every baseline lane.

        Each lane's newest frame (the only window slot that changed since
        the last tick) is VLM-encoded in one batch and shifted into the
        lane's token ring; the LSTM and heads then run on the rings, read
        back in window order.  Re-encoding a frame would reproduce its
        token bit for bit, so this is a pure 12x cut of the per-tick VLM
        work.
        """
        slots = np.flatnonzero(store.active & ~store.corki)
        if not slots.size:
            return
        assert self.baseline is not None
        tokens = self.baseline.encode_frame_token_batch(
            store.observation[slots], store.instruction[slots]
        )
        deltas, grippers = self.baseline.predict_token_batch(
            store.push_ring_tokens(slots, tokens)
        )
        poses, _ = store.fleet.arm_states(slots)
        store.command[slots] = poses + deltas
        store.command_open[slots] = grippers

    def _step_lanes(self, store: LaneArrays) -> None:
        """Advance every active lane one camera frame, settle the tick's
        bookkeeping, then batch-encode the closed-loop feedback frames
        captured this tick.

        Corki lanes' targets are one batched cubic evaluation
        (:func:`repro.core.trajectory.pose_batch`) at each lane's own
        execution time; baseline lanes reuse the command computed by this
        tick's batched inference.  Success is evaluated as one per-tick mask
        before any lane advances its episode bookkeeping.
        """
        fleet = store.fleet
        slots = np.flatnonzero(store.active)
        moving = np.flatnonzero(store.active & store.corki)
        if moving.size:
            step = store.cursor[moving] + 1
            durations = store.duration[moving]
            horizon = store.gripper_plan.shape[1]
            store.command[moving] = pose_batch(
                store.origin[moving],
                store.coefficients[moving],
                durations,
                step * (durations / horizon),
            )
            store.command_open[moving] = store.gripper_plan[
                moving, np.minimum(step, horizon) - 1
            ]
        observations = fleet.step_many(
            store.command[slots],
            store.command_open[slots],
            [store.actuations[slot] for slot in slots.tolist()],
            slots,
        )
        succeeded = fleet.succeeded_mask(slots)

        frame = store.frame[slots] + 1
        store.frame[slots] = frame
        store.observation[slots] = observations
        store.path[slots, frame], store.gripper_path[slots, frame] = fleet.arm_states(slots)
        corki = store.corki[slots]
        step = store.cursor[slots] + corki
        store.cursor[slots] = step
        # A Corki trajectory ends when its planned steps ran out or a
        # mid-trajectory success cut it short; either way the executed
        # length is logged, as every baseline frame logs 1.
        ended = corki & (succeeded | (step == store.planned[slots]))
        log = ~corki | ended
        logged = slots[log]
        store.executed[logged, store.executed_count[logged]] = np.where(corki, step, 1)[log]
        store.executed_count[logged] += 1
        store.planned[slots[ended]] = 0
        # A feedback frame captured on a success tick dies with the episode.
        captured = corki & ~succeeded & (step == store.feedback_step[slots])
        finished = succeeded | ((frame >= store.max_frames[slots]) & (~corki | ended))
        for slot, success in zip(slots[finished].tolist(), succeeded[finished].tolist()):
            store.finish_episode(slot, success)
        if not captured.any():
            return
        assert self.corki is not None
        tokens = self.corki.encode_feedback_token_batch(observations[captured])
        store.insert_tokens(slots[captured], frame[captured], tokens, inference=False)


def _adaptive_steps(
    plans: TrajectoryBatch, lanes: np.ndarray, gripper_now: np.ndarray
) -> np.ndarray:
    """Algorithm 1's execution lengths for rows ``lanes`` of ``plans``.

    The waypoints are one stacked product, each lane's the
    ``CubicTrajectory.waypoints`` product (same operand layout, so the same
    BLAS call per lane); the gripper-change flags are one comparison.
    """
    horizon = plans.gripper_open.shape[1]
    basis = polynomial_design_matrix(np.arange(1, horizon + 1) / horizon)
    origins = plans.origins[lanes]
    waypoints = origins[:, None, :] + basis @ plans.coefficients[lanes].transpose(0, 2, 1)
    return adaptive_termination_step_lanes(
        origins[:, :3],
        waypoints[:, :, :3],
        gripper_change_flags(plans.gripper_open[lanes], gripper_now),
        ADAPTIVE_DISTANCE_THRESHOLD,
    )


def run_baseline_fleet(
    envs: BatchedManipulationEnv | list[ManipulationEnv],
    policy: BaselinePolicy,
    tasks: list[Task],
    actuation: ActuationModel = TRACKING_30HZ,
    max_frames: int = MAX_EPISODE_FRAMES,
) -> list[EpisodeTrace]:
    """Run one baseline episode per lane (task ``i`` on environment ``i``).

    Convenience wrapper for homogeneous single-task fleets (benchmarks, the
    quickstart); evaluation drivers build :class:`FleetLane` lists directly.
    Each lane's episode equals ``run_baseline_episode`` on the same
    environment and task, element for element.
    """
    lanes = [
        FleetLane(tasks=[task], actuation=actuation, max_frames=max_frames)
        for task in tasks
    ]
    return [traces[0] for traces in FleetRunner(baseline=policy).run(envs, lanes)]


def run_corki_fleet(
    envs: BatchedManipulationEnv | list[ManipulationEnv],
    policy: CorkiPolicy,
    tasks: list[Task],
    variation: CorkiVariation,
    rngs: list[np.random.Generator],
    actuation: ActuationModel = TRACKING_100HZ,
    max_frames: int = MAX_EPISODE_FRAMES,
) -> list[EpisodeTrace]:
    """Run one Corki episode per lane with lane-private feedback rngs.

    ``rngs[i]`` drives only lane ``i``'s closed-loop feedback schedule
    (``FleetLane.rng``); scene randomness lives in each environment's own
    generator.  Each lane's episode equals ``run_corki_episode`` with the
    same seeds, element for element, for every variation including ADAP.
    """
    lanes = [
        FleetLane(
            tasks=[task],
            variation=variation,
            rng=rng,
            actuation=actuation,
            max_frames=max_frames,
        )
        for task, rng in zip(tasks, rngs)
    ]
    return [traces[0] for traces in FleetRunner(corki=policy).run(envs, lanes)]
