"""Tests for the micro-controller sequencer and feedback schedules."""

import numpy as np
import pytest

from repro.accelerator import CorkiAccelerator, MicroController, Opcode
from repro.core import (
    MIDPOINT_FEEDBACK,
    NO_FEEDBACK,
    RANDOM_FEEDBACK,
    CubicTrajectory,
    fit_cubic,
    schedule_by_name,
)
from repro.robot import end_effector_pose, panda


@pytest.fixture(scope="module")
def setup():
    model = panda()
    accelerator = CorkiAccelerator(model, threshold=0.4)
    origin = end_effector_pose(model, model.q_home)
    tau = np.arange(1, 10)[:, None] / 9
    offsets = np.concatenate([tau * [0.03, 0.0, 0.0], np.zeros((9, 3))], axis=1)
    trajectory = CubicTrajectory(
        origin=origin,
        coefficients=fit_cubic(offsets),
        duration=0.3,
        gripper_open=np.ones(9, dtype=bool),
    )
    return model, accelerator, trajectory


class TestMicroController:
    def _sensors(self, model):
        def read(t):
            return model.q_home, np.zeros(model.dof)

        return read

    def test_tick_count_matches_rate(self, setup):
        model, accelerator, trajectory = setup
        controller = MicroController(accelerator, control_hz=100.0)
        run = controller.execute(trajectory, self._sensors(model))
        # 0.3 s window at 100 Hz -> 30 ticks.
        assert len(run.torques) == 30
        assert len(run.tick_results) == 30

    def test_truncated_window(self, setup):
        model, accelerator, trajectory = setup
        controller = MicroController(accelerator, control_hz=100.0)
        run = controller.execute(trajectory, self._sensors(model), steps=3)
        assert len(run.torques) == 10  # 3 steps x 33.3 ms at 100 Hz

    def test_rejects_bad_steps(self, setup):
        model, accelerator, trajectory = setup
        controller = MicroController(accelerator)
        with pytest.raises(ValueError):
            controller.execute(trajectory, self._sensors(model), steps=0)
        with pytest.raises(ValueError):
            controller.execute(trajectory, self._sensors(model), steps=10)

    def test_sequencer_overhead_is_small(self, setup):
        """The datapath, not sequencing, must dominate (paper's design goal)."""
        model, accelerator, trajectory = setup
        controller = MicroController(accelerator)
        run = controller.execute(trajectory, self._sensors(model))
        assert run.sequencer_overhead < 0.35
        assert run.datapath_cycles > 0

    def test_instruction_stream_structure(self, setup):
        model, accelerator, trajectory = setup
        controller = MicroController(accelerator, control_hz=100.0)
        run = controller.execute(trajectory, self._sensors(model), steps=1)
        opcodes = [instruction.opcode for instruction in run.instructions]
        assert opcodes[0] == Opcode.LOAD_TRAJECTORY
        assert opcodes.count(Opcode.LAUNCH_DATAPATH) == len(run.torques)
        assert opcodes[-1] == Opcode.BRANCH_NOT_DONE


class TestFeedbackSchedules:
    def test_random_within_window(self, rng):
        for steps in (2, 5, 9):
            step = RANDOM_FEEDBACK.feedback_step(steps, rng)
            assert 1 <= step < steps

    def test_single_step_has_no_feedback(self, rng):
        assert RANDOM_FEEDBACK.feedback_step(1, rng) is None
        assert MIDPOINT_FEEDBACK.feedback_step(1, rng) is None

    def test_none_schedule(self, rng):
        assert NO_FEEDBACK.feedback_step(9, rng) is None

    def test_midpoint_deterministic(self, rng):
        assert MIDPOINT_FEEDBACK.feedback_step(9, rng) == 4
        assert MIDPOINT_FEEDBACK.feedback_step(5, rng) == 2

    def test_lookup(self):
        assert schedule_by_name("random") is RANDOM_FEEDBACK
        with pytest.raises(KeyError):
            schedule_by_name("sometimes")

    def test_open_loop_variation_runs(self, tiny_policies):
        from repro.core.config import CorkiVariation
        from repro.core.fleet import FleetLane, FleetRunner
        from repro.sim import ManipulationEnv, SEEN_LAYOUT, TASKS

        _, corki, _ = tiny_policies
        variation = CorkiVariation("corki-nofb", execute_steps=5, feedback="none")
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(0))
        lane = FleetLane(
            tasks=[TASKS[0]], variation=variation,
            rng=np.random.default_rng(1), max_frames=15,
        )
        trace = FleetRunner(corki=corki).run([env], [lane])[0][0]
        assert trace.frames <= 15
