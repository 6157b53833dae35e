"""Tests for closed-loop episodes (one-lane fleets) and job chaining."""

import numpy as np
import pytest

from repro.core import VARIATIONS, EpisodeTrace, FleetLane, FleetRunner
from repro.sim import SEEN_LAYOUT, TASKS, ManipulationEnv


@pytest.fixture()
def env():
    return ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(11))


class TestBaselineRunner:
    def test_trace_structure(self, env, tiny_policies):
        baseline, _, _ = tiny_policies
        lane = FleetLane(tasks=[TASKS[0]], max_frames=20)
        trace = FleetRunner(baseline=baseline).run([env], [lane])[0][0]
        assert isinstance(trace, EpisodeTrace)
        assert trace.frames <= 20
        assert all(step == 1 for step in trace.executed_steps)
        assert trace.inference_count == trace.frames
        assert trace.ee_path.shape == (trace.frames + 1, 6)

    def test_reference_path_is_expert(self, env, tiny_policies):
        baseline, _, _ = tiny_policies
        lane = FleetLane(tasks=[TASKS[0]], max_frames=5)
        trace = FleetRunner(baseline=baseline).run([env], [lane])[0][0]
        assert trace.reference_path.ndim == 2
        assert trace.reference_path.shape[1] == 6


class TestCorkiRunner:
    def test_fixed_steps_execution(self, env, tiny_policies):
        _, corki, _ = tiny_policies
        lane = FleetLane(
            tasks=[TASKS[0]], variation=VARIATIONS["corki-5"],
            rng=np.random.default_rng(0), max_frames=23,
        )
        trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
        # Every trajectory except possibly the last executes exactly 5 steps.
        assert all(steps == 5 for steps in trace.executed_steps[:-1])
        assert trace.executed_steps[-1] <= 5
        assert trace.frames == sum(trace.executed_steps)

    def test_inference_count_reduced(self, env, tiny_policies):
        _, corki, _ = tiny_policies
        lane = FleetLane(
            tasks=[TASKS[1]], variation=VARIATIONS["corki-9"],
            rng=np.random.default_rng(0), max_frames=36,
        )
        trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
        assert trace.inference_count <= -(-trace.frames // 9) + 1

    def test_adaptive_steps_within_horizon(self, env, tiny_policies):
        _, corki, _ = tiny_policies
        lane = FleetLane(
            tasks=[TASKS[2]], variation=VARIATIONS["corki-adap"],
            rng=np.random.default_rng(0), max_frames=30,
        )
        trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
        assert all(1 <= steps <= 9 for steps in trace.executed_steps)

    def test_max_frames_respected(self, env, tiny_policies):
        _, corki, _ = tiny_policies
        for name in ("corki-1", "corki-5", "corki-9", "corki-adap"):
            lane = FleetLane(
                tasks=[TASKS[0]], variation=VARIATIONS[name],
                rng=np.random.default_rng(0), max_frames=10,
            )
            trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
            assert trace.frames <= 10


class TestJobRunner:
    def test_stops_at_first_failure(self, env, tiny_policies):
        baseline, _, _ = tiny_policies
        lane = FleetLane(tasks=[TASKS[0], TASKS[5], TASKS[9]], max_frames=3)
        traces = FleetRunner(baseline=baseline).run([env], [lane])[0]
        # Undertrained policy with a 3-frame budget fails the first task.
        assert len(traces) == 1
        assert not traces[0].success

    def test_scene_persists_across_chained_tasks(self, env, tiny_policies):
        """continue_with must not resample the scene."""
        baseline, _, _ = tiny_policies
        env.reset(TASKS[0])
        red_position = env.scene.blocks["red"].position.copy()
        env.continue_with(TASKS[1])
        # Block poses carry over (positions unchanged by re-tasking).
        assert np.allclose(env.scene.blocks["red"].position, red_position)
