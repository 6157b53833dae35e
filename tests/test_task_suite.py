"""The 34-instruction task suite: registry, predicates, mechanics, sampling.

Covers the task-suite PR's guarantees:

* registry shape (34 instructions, 11 families, unique instructions, O(1)
  lookup);
* the two predicate bugfixes (``sample_job`` resource keying, rotate-delta
  wrapping across the +-pi seam) as regression tests;
* the new scene mechanics (push/shove, stack/settle, drawer basin, button
  LED) at the environment level; and
* the expert-oracle property: every registry task's expert keyframes achieve
  its own ``success`` predicate from sampled scenes on both layouts.
"""

import numpy as np
import pytest

from repro.analysis.evaluation import (
    evaluate_system_families,
    expert_oracle_families,
)
from repro.sim import (
    BLOCK_NAMES,
    PERFECT_ACTUATION,
    SEEN_LAYOUT,
    TASK_FAMILIES,
    TASKS,
    UNSEEN_LAYOUT,
    ManipulationEnv,
    sample_job,
    sample_scene,
    task_by_instruction,
    tasks_by_family,
    wrap_angle,
)
from repro.sim.expert import render_keyframes
from repro.sim.tasks import _ensure_unique_instructions, _task_resources


def make_env(layout=SEEN_LAYOUT, seed=0):
    return ManipulationEnv(
        layout, np.random.default_rng(seed), actuation=PERFECT_ACTUATION,
        camera_noise_std=0.0,
    )


def goto(env, position, gripper_open=True, steps=30, yaw=0.0):
    target = np.array([position[0], position[1], position[2], 0.0, 0.0, yaw])
    for _ in range(steps):
        env.step(target, gripper_open)


def run_expert(env, task):
    """Roll the jitter-free expert for ``task`` on ``env``'s current scene."""
    assert env.scene is not None
    trajectory = render_keyframes(env.scene.ee_pose, task.expert(env.scene), env.frame_dt)
    for t in range(1, len(trajectory)):
        env.step(trajectory.poses[t], bool(trajectory.gripper_open[t]))
    return env.succeeded


class TestRegistryShape:
    def test_calvin_scale(self):
        assert len(TASKS) == 34
        assert len(TASK_FAMILIES) >= 8

    def test_instructions_unique(self):
        assert len({task.instruction for task in TASKS}) == len(TASKS)

    def test_duplicate_instruction_rejected(self):
        with pytest.raises(ValueError, match="duplicate instruction"):
            _ensure_unique_instructions([TASKS[0], TASKS[1], TASKS[0]])

    def test_lookup_matches_linear_scan(self):
        for task in TASKS:
            assert task_by_instruction(task.instruction) is task

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            task_by_instruction("juggle the blocks")

    def test_tasks_by_family(self):
        assert len(tasks_by_family("push")) == 6
        assert len(tasks_by_family("stack")) == 1
        with pytest.raises(KeyError):
            tasks_by_family("juggling")

    def test_block_tasks_declare_objects_and_fixture_tasks_a_fixture(self):
        for task in TASKS:
            assert task.objects or task.fixture is not None
            for name in task.objects:
                assert name in BLOCK_NAMES
            if task.fixture is not None:
                assert task.fixture in ("drawer", "switch", "button")


class TestSampleJobRegression:
    """Bugfix: jobs were keyed by family+object, so two families could touch
    the same block (e.g. 'push the blue block' plus 'lift the blue block')."""

    @staticmethod
    def _old_sample(rng, length=5):
        """The pre-fix sampler, reproduced verbatim for the regression."""
        chosen, used_keys = [], set()
        while len(chosen) < length:
            task = TASKS[int(rng.integers(len(TASKS)))]
            words = task.instruction.split()
            key = task.family + (
                words[2] if task.family in ("lift", "move", "rotate") else ""
            )
            if key in used_keys:
                continue
            used_keys.add(key)
            chosen.append(task)
        return chosen

    def test_old_keying_collides_on_seed_zero(self):
        """Seed 0 made the old sampler pair two tasks on one block."""
        job = self._old_sample(np.random.default_rng(0))
        objects = [name for task in job for name in task.objects]
        assert len(objects) != len(set(objects))

    def test_fixed_sampler_keeps_resources_disjoint_on_seed_zero(self):
        job = sample_job(np.random.default_rng(0))
        used = set()
        for task in job:
            resources = _task_resources(task)
            assert not (used & resources)
            used |= resources

    def test_resources_disjoint_across_many_seeds(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            job = sample_job(rng)
            assert len(job) == 5
            used = set()
            for task in job:
                resources = _task_resources(task)
                assert not (used & resources), [t.instruction for t in job]
                used |= resources

    def test_lightbulb_and_switch_share_the_switch_resource(self):
        """Chaining 'turn the switch on' then 'turn on the lightbulb' would
        make the second task trivially succeed; both must key on the switch."""
        switch_task = task_by_instruction("turn the switch on")
        bulb_task = task_by_instruction("turn on the lightbulb")
        assert _task_resources(switch_task) & _task_resources(bulb_task)

    def test_two_resource_tasks_cannot_exhaust_the_job(self):
        """The feasibility guard: greedy draws never deadlock the sampler
        even when stack/place tasks consume two resources each."""
        for seed in range(100):
            assert len(sample_job(np.random.default_rng(seed), 6)) == 6

    def test_infeasible_length_raises(self):
        with pytest.raises(ValueError, match="distinct scene resources"):
            sample_job(np.random.default_rng(0), 7)


class TestRotateWrapRegression:
    """Bugfix: the rotate predicate compared raw yaw deltas; endpoints that
    straddle the +-pi seam (one canonicalised) flipped the measured sign."""

    @staticmethod
    def _scenes_with_yaws(initial_yaw, current_yaw):
        initial = sample_scene(SEEN_LAYOUT, np.random.default_rng(3))
        current = initial.copy()
        initial.blocks["red"].yaw = initial_yaw
        current.blocks["red"].yaw = current_yaw
        return initial, current

    def test_left_rotation_across_seam(self):
        task = task_by_instruction("rotate the red block to the left")
        # 75 degrees left from just below +pi, stored canonicalised: the raw
        # delta is about -4.9 rad and the old predicate scored it as a right
        # rotation (failure).
        initial_yaw = 3.0
        current_yaw = wrap_angle(initial_yaw + 1.3)
        assert current_yaw < 0  # the seam was actually crossed
        initial, current = self._scenes_with_yaws(initial_yaw, current_yaw)
        assert task.success(initial, current)

    def test_right_rotation_across_seam(self):
        task = task_by_instruction("rotate the red block to the right")
        initial_yaw = -3.0
        current_yaw = wrap_angle(initial_yaw - 1.3)
        assert current_yaw > 0
        initial, current = self._scenes_with_yaws(initial_yaw, current_yaw)
        assert task.success(initial, current)

    def test_wrong_direction_still_fails_across_seam(self):
        task = task_by_instruction("rotate the red block to the left")
        initial, current = self._scenes_with_yaws(-3.0, wrap_angle(-3.0 - 1.3))
        assert not task.success(initial, current)

    @pytest.mark.parametrize("angle", [-9.0, -np.pi, -0.5, 0.0, 0.5, np.pi, 9.0])
    def test_wrap_angle_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -np.pi < wrapped <= np.pi
        assert np.isclose(np.sin(wrapped), np.sin(angle))
        assert np.isclose(np.cos(wrapped), np.cos(angle))


class TestPushMechanics:
    def test_low_sweep_shoves_a_block(self):
        env = make_env()
        env.reset(task_by_instruction("push the red block to the right"))
        block = env.scene.blocks["red"]
        start_x = float(block.position[0])
        y = float(block.position[1])
        goto(env, [start_x - 0.06, y, 0.035])
        # Sweep through the block with frame-sized command increments, as a
        # rendered trajectory would (a teleporting target never collides).
        for x in np.linspace(start_x - 0.06, start_x + 0.08, 30):
            env.step(np.array([x, y, 0.035, 0.0, 0.0, 0.0]), True)
        assert env.scene.blocks["red"].position[0] > start_x + 0.05
        assert env.succeeded

    def test_high_sweep_does_not_move_blocks(self):
        env = make_env()
        env.reset(task_by_instruction("push the red block to the right"))
        block_before = env.scene.blocks["red"].position.copy()
        above = block_before + np.array([-0.06, 0.0, 0.0])
        above[2] = 0.12
        goto(env, above)
        goto(env, [above[0] + 0.14, above[1], 0.12], steps=40)
        assert np.array_equal(env.scene.blocks["red"].position, block_before)

    def test_grasp_descent_does_not_expel_the_target(self):
        """The deadzone: descending straight onto a block (planar ~ 0) must
        not shove it out from under the gripper."""
        env = make_env()
        env.reset(task_by_instruction("lift the red block"))
        block_before = env.scene.blocks["red"].position.copy()
        goto(env, [block_before[0], block_before[1], 0.03])
        assert np.allclose(env.scene.blocks["red"].position[:2], block_before[:2])

    def test_push_expert_oracle(self):
        for instruction in (
            "push the red block to the left",
            "push the pink block to the right",
        ):
            env = make_env(seed=5)
            task = task_by_instruction(instruction)
            env.reset(task)
            assert run_expert(env, task)


class TestStackingMechanics:
    def test_release_on_support_stacks(self):
        env = make_env()
        task = task_by_instruction("stack the red block on top of the blue block")
        env.reset(task)
        red = env.scene.blocks["red"].position.copy()
        blue = env.scene.blocks["blue"].position.copy()
        goto(env, [red[0], red[1], 0.03])
        goto(env, [red[0], red[1], 0.03], gripper_open=False, steps=2)
        assert env.scene.attached == "red"
        goto(env, [red[0], red[1], 0.18], gripper_open=False)
        goto(env, [blue[0], blue[1], 0.18], gripper_open=False)
        goto(env, [blue[0], blue[1], 0.08], gripper_open=False)
        goto(env, [blue[0], blue[1], 0.08], gripper_open=True, steps=2)
        stacked_z = env.scene.blocks["red"].position[2]
        assert stacked_z == pytest.approx(
            env.scene.blocks["blue"].position[2] + 0.05
        )
        assert env.succeeded

    def test_release_away_from_support_lands_on_table(self):
        env = make_env()
        env.reset(task_by_instruction("lift the red block"))
        red = env.scene.blocks["red"].position.copy()
        goto(env, [red[0], red[1], 0.03])
        goto(env, [red[0], red[1], 0.03], gripper_open=False, steps=2)
        goto(env, [red[0], red[1], 0.2], gripper_open=False)
        goto(env, [red[0], red[1], 0.2], gripper_open=True, steps=2)
        assert env.scene.blocks["red"].position[2] == pytest.approx(0.02)

    def test_unstack_prepare_stacks_the_scene(self):
        env = make_env()
        env.reset(task_by_instruction("take off the red block from the blue block"))
        red = env.scene.blocks["red"].position
        blue = env.scene.blocks["blue"].position
        assert np.allclose(red[:2], blue[:2])
        assert red[2] == pytest.approx(blue[2] + 0.05)

    def test_stack_then_unstack_expert_chain(self):
        env = make_env(seed=11)
        stack = task_by_instruction("stack the red block on top of the blue block")
        unstack = task_by_instruction("take off the red block from the blue block")
        env.reset(stack)
        assert run_expert(env, stack)
        env.continue_with(unstack)
        assert run_expert(env, unstack)


class TestDrawerBasin:
    def test_release_over_open_basin_drops_in(self):
        env = make_env()
        task = task_by_instruction("place the red block in the drawer")
        env.reset(task)
        assert env.scene.drawer.opening > 0.12  # prepare opened it
        red = env.scene.blocks["red"].position.copy()
        basin = env.scene.drawer.basin_position
        goto(env, [red[0], red[1], 0.03])
        goto(env, [red[0], red[1], 0.03], gripper_open=False, steps=2)
        goto(env, [red[0], red[1], 0.12], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.12], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.07], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.07], gripper_open=True, steps=2)
        assert env.scene.blocks["red"].position[2] == pytest.approx(0.005)
        assert env.succeeded

    def test_basin_resting_block_cannot_be_shoved_out(self):
        """A low sweep past the basin must not drag a placed block sideways
        through the drawer wall (the shove only acts on table-level blocks)."""
        env = make_env()
        task = task_by_instruction("place the red block in the drawer")
        env.reset(task)
        red = env.scene.blocks["red"].position.copy()
        basin = env.scene.drawer.basin_position
        goto(env, [red[0], red[1], 0.03])
        goto(env, [red[0], red[1], 0.03], gripper_open=False, steps=2)
        goto(env, [red[0], red[1], 0.12], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.07], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.07], gripper_open=True, steps=2)
        assert env.succeeded
        placed = env.scene.blocks["red"].position.copy()
        # Graze the basin at shove height, frame-sized increments.
        for x in np.linspace(basin[0] - 0.08, basin[0] + 0.08, 20):
            env.step(np.array([x, basin[1], 0.04, 0.0, 0.0, 0.0]), True)
        assert np.array_equal(env.scene.blocks["red"].position, placed)
        assert env.succeeded

    def test_closed_drawer_basin_is_inert(self):
        env = make_env()
        env.reset(task_by_instruction("lift the red block"))
        env.scene.drawer.opening = 0.0
        basin = env.scene.drawer.basin_position
        red = env.scene.blocks["red"].position.copy()
        goto(env, [red[0], red[1], 0.03])
        goto(env, [red[0], red[1], 0.03], gripper_open=False, steps=2)
        goto(env, [red[0], red[1], 0.15], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.15], gripper_open=False)
        goto(env, [basin[0], basin[1], 0.15], gripper_open=True, steps=2)
        assert env.scene.blocks["red"].position[2] == pytest.approx(0.02)


class TestButtonLed:
    def test_press_toggles_once_and_latches(self):
        env = make_env()
        task = task_by_instruction("turn on the led")
        env.reset(task)
        assert not env.scene.button.led_on  # prepare turned it off
        button = env.scene.button.position
        goto(env, [button[0], button[1], 0.12])
        goto(env, [button[0], button[1], 0.035], steps=20)
        assert env.scene.button.led_on
        # Holding contact must not re-toggle.
        goto(env, [button[0], button[1], 0.035], steps=10)
        assert env.scene.button.led_on
        assert env.succeeded

    def test_second_press_toggles_back(self):
        env = make_env()
        env.reset(task_by_instruction("turn on the led"))
        button = env.scene.button.position
        goto(env, [button[0], button[1], 0.035], steps=25)
        assert env.scene.button.led_on
        goto(env, [button[0], button[1], 0.15])
        assert not env.scene.button.contact
        goto(env, [button[0], button[1], 0.035], steps=25)
        assert not env.scene.button.led_on

    def test_faraway_motion_never_presses(self):
        env = make_env()
        env.reset(task_by_instruction("turn on the led"))
        goto(env, [0.0, 0.0, 0.03], steps=10)
        goto(env, [0.1, -0.1, 0.2], steps=10)
        assert not env.scene.button.led_on


@pytest.mark.parametrize(
    "instruction", [task.instruction for task in TASKS]
)
class TestExpertOracleProperty:
    """Every task's expert keyframes must achieve its own success predicate
    from sampled scenes -- the property the CI suite gate enforces at scale."""

    def test_seen_layout(self, instruction):
        task = task_by_instruction(instruction)
        for seed in (0, 1):
            env = make_env(SEEN_LAYOUT, seed)
            env.reset(task)
            assert run_expert(env, task), f"{instruction} (seed {seed})"

    def test_unseen_layout(self, instruction):
        task = task_by_instruction(instruction)
        env = make_env(UNSEEN_LAYOUT, 2)
        env.reset(task)
        assert run_expert(env, task)


class TestFamilyReports:
    def test_expert_oracle_families_all_perfect(self):
        cells = expert_oracle_families(SEEN_LAYOUT, episodes_per_task=1)
        assert set(cells) == set(TASK_FAMILIES)
        for family, cell in cells.items():
            assert cell.success_rate == 1.0, cell
            assert cell.failed_instructions == ()
        assert sum(cell.episodes for cell in cells.values()) == len(TASKS)

    def test_policy_matrix_shape_and_fleet_size_invariance(self, tiny_policies):
        from repro.analysis.evaluation import TrainedPolicies

        baseline, corki, _ = tiny_policies
        policies = TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)
        small, small_estimates = evaluate_system_families(
            policies, "corki-5", SEEN_LAYOUT, episodes_per_task=1, fleet_size=5
        )
        large, large_estimates = evaluate_system_families(
            policies, "corki-5", SEEN_LAYOUT, episodes_per_task=1, fleet_size=64
        )
        assert small_estimates == large_estimates
        assert set(small) == set(TASK_FAMILIES)
        for family in TASK_FAMILIES:
            assert small[family].episodes == len(tasks_by_family(family))
            assert small[family].successes == large[family].successes
            assert small[family].failed_instructions == large[family].failed_instructions


class TestSuiteCli:
    def test_suite_passes(self, capsys):
        from repro.cli import main

        assert main(["suite", "--episodes", "1", "--layout", "seen"]) == 0
        out = capsys.readouterr().out
        assert "expert-oracle task-suite gate" in out
        assert "unstack" in out

    def test_suite_never_starts_a_pool(self, capsys, monkeypatch):
        """The oracle sweep rolls in process: ``--workers 2`` starts no
        worker pool and prints the table the plain run prints."""
        import repro.analysis.parallel as parallel
        from repro.cli import main

        def untimed(out):
            return [line for line in out.splitlines() if "done in" not in line]

        argv = ["suite", "--episodes", "1", "--layout", "seen"]
        assert main(argv) == 0
        plain = capsys.readouterr().out

        def no_pool(*args, **kwargs):
            raise AssertionError("the suite started a worker pool")

        monkeypatch.setattr(parallel, "EvaluationPool", no_pool)
        assert main(["--workers", "2", *argv]) == 0
        assert untimed(capsys.readouterr().out) == untimed(plain)

    def test_suite_runs_alone(self, capsys):
        from repro.cli import main

        assert main(["suite", "tbl1"]) == 2

    def test_suite_rejects_bad_episodes(self, capsys):
        from repro.cli import main

        assert main(["suite", "--episodes", "0"]) == 2
