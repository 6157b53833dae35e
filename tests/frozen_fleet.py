"""The fleet runner in its per-lane-object form, frozen as a test oracle.

This is :mod:`repro.core.fleet` as it stood before lane state moved into
arrays (:class:`repro.core.fleet.LaneArrays`): one Python object per lane,
a dict-backed Corki token window, a per-lane baseline token ring shifted by
copying, per-lane ``CubicTrajectory`` plans stacked for every tick's pose
evaluation, and the scalar Algorithm 1 loop deciding each adaptive plan.
Only three seams touch today's program: ``predict_trajectory_batch`` now
returns arrays, which are wrapped back into ``CubicTrajectory`` objects;
the stacked pose evaluation is the earlier object-list form of
``pose_batch`` (:func:`_pose_batch`); and the estimator hook calls the
earlier per-state ``observe`` (:class:`FrozenEstimator`).

The array runner must reproduce this one byte for byte
(``tests/test_fleet.py``); unlike the single-episode wrappers, which are
fleets of one of the same runner, a bookkeeping change in the array form
cannot change this side too.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.closed_loop import NO_FEEDBACK, schedule_by_name
from repro.core.config import ADAPTIVE_DISTANCE_THRESHOLD, CorkiVariation
from repro.core.fleet import FleetLane
from repro.core.policy import WINDOW_LENGTH, BaselinePolicy, CorkiPolicy
from repro.core.runner import EpisodeTrace, _reference_path
from repro.core.trajectory import polynomial_design_matrix
from repro.core.waypoints import adaptive_termination_step, gripper_change_flags
from repro.pipeline import FleetEstimator
from repro.pipeline.estimate import _LaneLog
from repro.sim.env import (
    TRACKING_100HZ,
    TRACKING_30HZ,
    BatchedManipulationEnv,
    ManipulationEnv,
)
from repro.sim.tasks import Task


def _pose_batch(trajectories, times: np.ndarray) -> np.ndarray:
    """``trajectories[k].pose(times[k])`` for all k in one stacked matmul."""
    times = np.asarray(times, dtype=float)
    durations = np.array([trajectory.duration for trajectory in trajectories])
    tau = np.clip(times / durations, 0.0, 1.0)
    basis = polynomial_design_matrix(tau)  # (N, 4)
    coefficients = np.stack([trajectory.coefficients for trajectory in trajectories])
    origins = np.stack([trajectory.origin for trajectory in trajectories])
    return origins + (coefficients @ basis[:, :, None])[:, :, 0]


class _TokenWindow:
    """Deployment-side token bookkeeping for Corki.

    Tracks which frames were VLM-encoded (inference frames) or ViT-encoded
    (feedback frames); every other slot yields the learned mask embedding,
    mirroring the training-time pattern of
    :func:`repro.core.training.deployment_slot_pattern`.
    """

    def __init__(self, policy: CorkiPolicy):
        self._policy = policy
        self._tokens: dict[int, np.ndarray] = {}
        self._first_real: np.ndarray | None = None

    def insert_inference_token(self, frame: int, token: np.ndarray) -> None:
        if self._first_real is None:
            self._first_real = token
        self._tokens[frame] = token

    def insert_feedback_token(self, frame: int, token: np.ndarray) -> None:
        self._tokens[frame] = token

    def assemble(self, current_frame: int) -> np.ndarray:
        mask = self._policy.mask_token()
        rows = []
        for frame in range(current_frame - WINDOW_LENGTH + 1, current_frame + 1):
            if frame in self._tokens:
                rows.append(self._tokens[frame])
            elif frame < 0 and self._first_real is not None:
                rows.append(self._first_real)  # warm-up padding, as in training
            else:
                rows.append(mask)
        return np.array(rows)


def _decide_steps(trajectory, variation: CorkiVariation, gripper_open_now: bool) -> int:
    """Execution length: fixed for Corki-T, Algorithm 1 for Corki-ADAP."""
    if not variation.adaptive:
        return int(variation.execute_steps)
    waypoints = trajectory.waypoints()
    flags = gripper_change_flags(trajectory.gripper_open, gripper_open_now)
    return adaptive_termination_step(
        trajectory.origin[:3],
        waypoints[:, :3],
        flags,
        ADAPTIVE_DISTANCE_THRESHOLD,
    )


class _LaneState:
    """Per-lane episode bookkeeping shared by both policy kinds."""

    def __init__(self, index: int, env: ManipulationEnv, lane: FleetLane):
        self.index = index
        self.env = env
        self.lane = lane
        self.task_index = 0
        self.traces: list[EpisodeTrace] = []
        self.done = False
        self._start_episode(chained=lane.chained_start)

    @property
    def task(self) -> Task:
        return self.lane.tasks[self.task_index]

    def _start_episode(self, chained: bool) -> None:
        task = self.task
        self.observation = (
            self.env.continue_with(task) if chained else self.env.reset(task)
        )
        assert self.env.scene is not None
        self.reference = _reference_path(self.env, task)
        self.frame = 0
        self.path = [self.env.scene.ee_pose.copy()]
        self.gripper_path = [self.env.scene.gripper_open]
        self.executed: list[int] = []
        self._reset_episode_state()

    def _reset_episode_state(self) -> None:
        """Hook for per-episode policy state (token windows, trajectories)."""

    def _record_frame(self, observation: np.ndarray) -> None:
        assert self.env.scene is not None
        self.observation = observation
        self.frame += 1
        self.path.append(self.env.scene.ee_pose.copy())
        self.gripper_path.append(self.env.scene.gripper_open)

    def _finish_episode(self, success: bool) -> None:
        self.traces.append(
            EpisodeTrace(
                success=success,
                frames=self.frame,
                executed_steps=self.executed,
                ee_path=np.array(self.path),
                reference_path=self.reference,
                gripper_path=np.array(self.gripper_path, dtype=bool),
            )
        )
        if success and self.task_index + 1 < len(self.lane.tasks):
            self.task_index += 1
            self._start_episode(chained=True)
        else:
            self.done = True

    def tick_command(self) -> tuple[np.ndarray, bool]:  # pragma: no cover - abstract
        raise NotImplementedError

    def after_step(self, observation: np.ndarray, succeeded: bool) -> bool:
        raise NotImplementedError  # pragma: no cover - abstract


class _BaselineLaneState(_LaneState):
    """Frame-by-frame execution (paper Fig. 1a): inference on every tick."""

    def __init__(self, index, env, lane, policy: BaselinePolicy):
        self.policy = policy
        self.actuation = lane.actuation or TRACKING_30HZ
        super().__init__(index, env, lane)

    def _reset_episode_state(self) -> None:
        self._tokens: np.ndarray | None = None
        self._command: tuple[np.ndarray, bool] | None = None

    def push_token(self, token: np.ndarray) -> None:
        if self._tokens is None:
            self._tokens = np.repeat(token[None], WINDOW_LENGTH, axis=0)
        else:
            self._tokens[:-1] = self._tokens[1:]
            self._tokens[-1] = token

    def token_window(self) -> np.ndarray:
        assert self._tokens is not None
        return self._tokens

    def set_command(self, delta: np.ndarray, gripper_open: bool) -> None:
        assert self.env.scene is not None
        self._command = (self.env.scene.ee_pose + delta, gripper_open)

    def tick_command(self) -> tuple[np.ndarray, bool]:
        assert self._command is not None
        return self._command

    def after_step(self, observation: np.ndarray, succeeded: bool) -> bool:
        self._record_frame(observation)
        self.executed.append(1)
        self._command = None
        if succeeded or self.frame >= self.lane.max_frames:
            self._finish_episode(succeeded)
        return False


class _CorkiLaneState(_LaneState):
    """Trajectory-level execution (paper Fig. 1b) with per-lane re-planning."""

    def __init__(self, index, env, lane, policy: CorkiPolicy):
        self.policy = policy
        self.actuation = lane.actuation or TRACKING_100HZ
        variation = lane.variation
        assert variation is not None
        self.schedule = (
            schedule_by_name(variation.feedback) if variation.closed_loop else NO_FEEDBACK
        )
        super().__init__(index, env, lane)

    def _reset_episode_state(self) -> None:
        self.window = _TokenWindow(self.policy)
        self.trajectory = None
        self.steps_planned = 0
        self.step_in_traj = 0
        self.feedback_step: int | None = None
        self.pending_feedback: tuple[int, np.ndarray] | None = None

    @property
    def needs_plan(self) -> bool:
        return not self.done and self.trajectory is None

    def adopt_token(self, token: np.ndarray) -> None:
        self.window.insert_inference_token(self.frame, token)

    def assembled_window(self) -> np.ndarray:
        return self.window.assemble(self.frame)

    def adopt_plan(self, trajectory) -> None:
        variation = self.lane.variation
        assert variation is not None and self.env.scene is not None
        steps = _decide_steps(trajectory, variation, self.env.scene.gripper_open)
        self.steps_planned = min(steps, self.lane.max_frames - self.frame)
        self.trajectory = trajectory
        self.step_in_traj = 0
        self.feedback_step = self.schedule.feedback_step(self.steps_planned, self.lane.rng)

    def after_step(self, observation: np.ndarray, succeeded: bool) -> bool:
        self.step_in_traj += 1
        step = self.step_in_traj
        self._record_frame(observation)
        captured = step == self.feedback_step
        if succeeded:
            self.executed.append(step)
            self._finish_episode(True)
            return False
        if captured:
            self.pending_feedback = (self.frame, observation)
        if step == self.steps_planned:
            self.executed.append(self.steps_planned)
            self.trajectory = None
            if self.frame >= self.lane.max_frames:
                self._finish_episode(succeeded)
                return False
        return captured


class FrozenEstimator(FleetEstimator):
    """:class:`repro.pipeline.FleetEstimator` with its per-state ``observe``."""

    def observe(self, states: list) -> None:  # type: ignore[override]
        for state in states:
            log = self._logs.get(state.index)
            if log is None:
                variation = state.lane.variation
                system = "roboflamingo" if variation is None else variation.name
                log = self._logs[state.index] = _LaneLog(system)
            if state.lane.variation is None:
                log.advance(closed=True)
            else:
                log.advance(closed=state.trajectory is None or state.done)


class FrozenFleetRunner:
    """The per-lane-object fleet runner; same API as ``FleetRunner``."""

    def __init__(
        self,
        baseline: BaselinePolicy | None = None,
        corki: CorkiPolicy | None = None,
        estimator=None,
    ):
        self.baseline = baseline
        self.corki = corki
        self.estimator = estimator

    def _make_state(self, index: int, env: ManipulationEnv, lane: FleetLane) -> _LaneState:
        if lane.variation is None:
            if self.baseline is None:
                raise ValueError("fleet has baseline lanes but no baseline policy")
            return _BaselineLaneState(index, env, lane, self.baseline)
        if self.corki is None:
            raise ValueError("fleet has Corki lanes but no Corki policy")
        return _CorkiLaneState(index, env, lane, self.corki)

    def run(
        self,
        envs: BatchedManipulationEnv | list[ManipulationEnv],
        lanes: list[FleetLane],
    ) -> list[list[EpisodeTrace]]:
        fleet = (
            envs
            if isinstance(envs, BatchedManipulationEnv)
            else BatchedManipulationEnv(envs)
        )
        if len(lanes) != len(fleet):
            raise ValueError(
                f"{len(lanes)} lanes need {len(lanes)} environments, got {len(fleet)}"
            )
        states = [
            self._make_state(index, fleet.envs[index], lane)
            for index, lane in enumerate(lanes)
        ]
        active = [state for state in states if not state.done]
        while active:
            self._plan_corki_lanes(active, fleet.frame_dt)
            self._infer_baseline_lanes(active)
            self._step_lanes(active, fleet)
            active = [state for state in states if not state.done]
        return [state.traces for state in states]

    def run_continuous(
        self,
        source: Iterable[tuple[ManipulationEnv, FleetLane]],
        slots: int,
        on_complete: Callable[[FleetLane, list[EpisodeTrace]], None],
        should_cancel: Callable[[FleetLane], bool] | None = None,
        on_cancel: Callable[[FleetLane, list[EpisodeTrace]], None] | None = None,
    ) -> int:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        stream: Iterator[tuple[ManipulationEnv, FleetLane]] = iter(source)
        admitted = []
        for env, lane in stream:
            admitted.append((env, lane))
            if len(admitted) == slots:
                break
        if not admitted:
            return 0
        fleet = BatchedManipulationEnv([env for env, _ in admitted])
        states: list[_LaneState | None] = [
            self._make_state(index, fleet.envs[index], lane)
            for index, (_, lane) in enumerate(admitted)
        ]
        served = 0

        def refill_slot(slot: int) -> None:
            states[slot] = None
            refill = next(stream, None)
            if refill is not None:
                env, lane = refill
                fleet.adopt_lane(slot, env)
                states[slot] = self._make_state(slot, env, lane)

        live = [state for state in states if state is not None and not state.done]
        while live:
            if should_cancel is not None:
                for slot, state in enumerate(states):
                    if state is None or state.done or not should_cancel(state.lane):
                        continue
                    if on_cancel is not None:
                        on_cancel(state.lane, state.traces)
                    refill_slot(slot)
                live = [state for state in states if state is not None and not state.done]
                if not live:
                    break
            self._plan_corki_lanes(live, fleet.frame_dt)
            self._infer_baseline_lanes(live)
            self._step_lanes(live, fleet)
            for slot, state in enumerate(states):
                if state is None or not state.done:
                    continue
                on_complete(state.lane, state.traces)
                served += 1
                refill_slot(slot)
            live = [state for state in states if state is not None and not state.done]
        return served

    def _plan_corki_lanes(self, active: list[_LaneState], frame_dt: float) -> None:
        planners = [
            state
            for state in active
            if isinstance(state, _CorkiLaneState) and state.needs_plan
        ]
        if not planners:
            return
        assert self.corki is not None
        observations = np.stack([state.observation for state in planners])
        instructions = np.array([state.task.instruction_id for state in planners])
        tokens = self.corki.encode_frame_token_batch(observations, instructions)
        for state, token in zip(planners, tokens):
            state.adopt_token(token)
        windows = np.stack([state.assembled_window() for state in planners])
        origins = np.stack([state.env.scene.ee_pose for state in planners])
        plans = self.corki.predict_trajectory_batch(windows, origins, frame_dt)
        for index, state in enumerate(planners):
            state.adopt_plan(plans.trajectory(index))

    def _infer_baseline_lanes(self, active: list[_LaneState]) -> None:
        lanes = [state for state in active if isinstance(state, _BaselineLaneState)]
        if not lanes:
            return
        assert self.baseline is not None
        observations = np.stack([state.observation for state in lanes])
        instructions = np.array([state.task.instruction_id for state in lanes])
        tokens = self.baseline.encode_frame_token_batch(observations, instructions)
        for state, token in zip(lanes, tokens):
            state.push_token(token)
        windows = np.stack([state.token_window() for state in lanes])
        deltas, grippers = self.baseline.predict_token_batch(windows)
        for state, delta, gripper in zip(lanes, deltas, grippers):
            state.set_command(delta, bool(gripper))

    def _step_lanes(self, active: list[_LaneState], fleet: BatchedManipulationEnv) -> None:
        count = len(active)
        targets = np.empty((count, 6))
        grippers = np.zeros(count, dtype=bool)
        corki_rows: list[int] = []
        for k, state in enumerate(active):
            if isinstance(state, _CorkiLaneState):
                corki_rows.append(k)
            else:
                target, gripper = state.tick_command()
                targets[k] = target
                grippers[k] = gripper
        if corki_rows:
            rows = np.array(corki_rows)
            corki_states = [active[k] for k in corki_rows]
            trajectories = [state.trajectory for state in corki_states]
            steps = [state.step_in_traj + 1 for state in corki_states]
            times = np.array(
                [step * trajectory.step_dt for step, trajectory in zip(steps, trajectories)]
            )
            targets[rows] = _pose_batch(trajectories, times)
            grippers[rows] = [
                trajectory.gripper_at_step(step)
                for trajectory, step in zip(trajectories, steps)
            ]
        indices = [state.index for state in active]
        observations = fleet.step_many(
            targets,
            grippers,
            [state.actuation for state in active],
            indices,
        )
        succeeded = fleet.succeeded_mask(indices)
        feedback = [
            state
            for state, observation, success in zip(active, observations, succeeded)
            if state.after_step(observation, bool(success))
        ]
        if self.estimator is not None:
            self.estimator.observe(active)
        if not feedback:
            return
        assert self.corki is not None
        captured = [state.pending_feedback for state in feedback]
        tokens = self.corki.encode_feedback_token_batch(
            np.stack([observation for _, observation in captured])
        )
        for state, (frame, _), token in zip(feedback, captured, tokens):
            state.window.insert_feedback_token(frame, token)
            state.pending_feedback = None
