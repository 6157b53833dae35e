"""Seed-for-seed equivalence of the batched fleet engine.

The fleet runner must be a pure throughput optimisation: an episode rolled
inside an N-lane fleet is element-wise identical to the same episode rolled
as a fleet of one from the same seeds.  Two mechanisms carry that guarantee
and these tests lock both in:

* every lane owns its environment and feedback generators, so no lane's
  randomness depends on its neighbours; and
* the batched policy entry points pad singleton batches
  (``repro.core.policy._pad_singleton``), so BLAS takes the same GEMM
  kernels whether one lane or thirty-two need inference on a tick.

A fleet of one runs the same code as a fleet of N, so those comparisons
cannot see a bookkeeping change that alters both sides.
:class:`TestFrozenFleetReference` therefore holds the runner to a frozen
copy of its per-lane-object form (``tests/frozen_fleet.py``), byte for byte.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from frozen_fleet import FrozenFleetRunner, _decide_steps

import repro.analysis.evaluation as evaluation
from repro.analysis.evaluation import (
    LaneSpec,
    TrainedPolicies,
    build_lane,
    evaluate_all_systems,
    evaluate_system,
    roll_specs,
)
from repro.core.fleet import _adaptive_steps
from repro.core import (
    VARIATIONS,
    FleetLane,
    FleetRunner,
    TrajectoryBatch,
)
from repro.serving.cache import encode_traces
from repro.sim import (
    BLOCK_NAMES,
    SEEN_LAYOUT,
    TASKS,
    WORKSPACE,
    BatchedManipulationEnv,
    CameraModel,
    ManipulationEnv,
    sample_scene,
)
from repro.sim.env import PERFECT_ACTUATION, TRACKING_100HZ, TRACKING_30HZ
from repro.sim.tasks import sample_job

FLEET_N = 6
MAX_FRAMES = 25


def _envs(seed_base: int, n: int = FLEET_N) -> list[ManipulationEnv]:
    return [
        ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(seed_base + i))
        for i in range(n)
    ]


def _tasks(n: int = FLEET_N):
    return [TASKS[i % len(TASKS)] for i in range(n)]


def _assert_traces_identical(single, fleet):
    assert single.success == fleet.success
    assert single.frames == fleet.frames
    assert single.executed_steps == fleet.executed_steps
    assert np.array_equal(single.ee_path, fleet.ee_path)
    assert np.array_equal(single.reference_path, fleet.reference_path)
    assert np.array_equal(single.gripper_path, fleet.gripper_path)


class TestBaselineEquivalence:
    def test_fleet_matches_sequential_singles(self, tiny_policies):
        baseline, _, _ = tiny_policies
        runner = FleetRunner(baseline=baseline)
        lanes = [FleetLane(tasks=[task], max_frames=MAX_FRAMES) for task in _tasks()]
        singles = [runner.run([env], [lane])[0] for env, lane in zip(_envs(50), lanes)]
        fleet = runner.run(_envs(50), lanes)
        for single, batched in zip(singles, fleet, strict=True):
            _assert_traces_identical(single[0], batched[0])


class TestCorkiEquivalence:
    @pytest.mark.parametrize("name", ["corki-5", "corki-adap"])
    def test_fleet_matches_sequential_singles(self, tiny_policies, name):
        """Fixed-step and Algorithm-1 adaptive lanes de-synchronise their
        inference frames inside the fleet; results must not change."""
        _, corki, _ = tiny_policies
        runner = FleetRunner(corki=corki)

        def lanes():
            return [
                FleetLane(
                    tasks=[task], variation=VARIATIONS[name],
                    rng=np.random.default_rng(70 + i), max_frames=MAX_FRAMES,
                )
                for i, task in enumerate(_tasks())
            ]

        singles = [runner.run([env], [lane])[0] for env, lane in zip(_envs(60), lanes())]
        fleet = runner.run(_envs(60), lanes())
        for single, batched in zip(singles, fleet, strict=True):
            _assert_traces_identical(single[0], batched[0])


class TestMixedFleet:
    def test_baseline_and_corki_lanes_share_a_fleet(self, tiny_policies):
        """A heterogeneous fleet batches each policy kind separately and
        still reproduces every lane's standalone episode."""
        baseline, corki, _ = tiny_policies
        runner = FleetRunner(baseline=baseline, corki=corki)

        def envs():
            return [
                ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(100)),
                ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(101)),
            ]

        def lanes():
            return [
                FleetLane(tasks=[TASKS[0]], max_frames=MAX_FRAMES),
                FleetLane(
                    tasks=[TASKS[1]], variation=VARIATIONS["corki-5"],
                    rng=np.random.default_rng(111), max_frames=MAX_FRAMES,
                ),
            ]

        singles = [runner.run([env], [lane])[0] for env, lane in zip(envs(), lanes())]
        traces = runner.run(envs(), lanes())
        for single, batched in zip(singles, traces, strict=True):
            _assert_traces_identical(single[0], batched[0])


class TestBatchedEnvFacade:
    def test_step_many_shapes_and_masks(self, rng):
        fleet = BatchedManipulationEnv.from_seeds(SEEN_LAYOUT, [1, 2, 3])
        assert len(fleet) == 3
        observations = fleet.reset_many([TASKS[0], TASKS[1], TASKS[2]])
        assert observations.shape[0] == 3
        targets = np.stack([env.scene.ee_pose for env in fleet.envs])
        stepped = fleet.step_many(targets, [True, True, False])
        assert stepped.shape == observations.shape
        assert fleet.succeeded_mask().shape == (3,)

    def test_indices_select_lanes(self):
        fleet = BatchedManipulationEnv.from_seeds(SEEN_LAYOUT, [1, 2, 3])
        fleet.reset_many([TASKS[0], TASKS[1], TASKS[2]])
        before = fleet.envs[1].scene.ee_pose.copy()
        targets = np.stack([fleet.envs[i].scene.ee_pose + 0.01 for i in (0, 2)])
        fleet.step_many(targets, [True, True], indices=[0, 2])
        # Lane 1 was not selected, so its arm never moved.
        assert np.array_equal(fleet.envs[1].scene.ee_pose, before)
        assert fleet.envs[0].frame_count == 1 and fleet.envs[2].frame_count == 1

    def test_validates_lane_counts(self):
        fleet = BatchedManipulationEnv.from_seeds(SEEN_LAYOUT, [1, 2])
        with pytest.raises(ValueError):
            fleet.reset_many([TASKS[0]])
        with pytest.raises(ValueError):
            BatchedManipulationEnv([])
        fleet.reset_many([TASKS[0], TASKS[1]])
        targets = np.stack([env.scene.ee_pose for env in fleet.envs])
        with pytest.raises(ValueError, match="gripper flag"):
            fleet.step_many(targets, [True])
        with pytest.raises(ValueError, match="actuation model"):
            fleet.step_many(targets, [True, True], actuation=[fleet.envs[0].actuation])


class _ScalarReferenceEnv:
    """An object-at-a-time scalar environment, kept as a test oracle.

    This is the ``ManipulationEnv`` semantics written as plain ``SceneState``
    mutation, one Python-level step per frame -- originally frozen from the
    pre-structure-of-arrays code, extended in lock-step when the task-suite
    PR added shove/settle/button mechanics.  The vectorised ``step_many``
    must reproduce it bit for bit, per lane, at any fleet size -- the
    tentpole guarantee of the SoA refactor.
    """

    frame_dt = 1.0 / 30.0
    _BLOCK_GRASP_RADIUS = 0.05
    _BLOCK_GRASP_HEIGHT = 0.05
    _TABLE_BLOCK_Z = 0.02
    _PUSH_RADIUS = 0.048
    _PUSH_DEADZONE = 0.02
    _PUSH_EE_HEIGHT = 0.06
    _PUSH_BLOCK_MIN_Z = 0.015
    _PUSH_BLOCK_MAX_Z = 0.03
    _STACK_SNAP_RADIUS = 0.04
    _BASIN_RADIUS = 0.06
    _BASIN_MIN_OPENING = 0.10
    _BASIN_FLOOR_Z = 0.005

    def __init__(self, layout, rng, actuation=TRACKING_100HZ, camera_noise_std=0.01):
        self.layout = layout
        self.rng = rng
        self.actuation = actuation
        self.camera = CameraModel(noise_std=camera_noise_std, domain_shift=layout.camera_shift)
        self.scene = None
        self.initial_scene = None
        self.task = None
        self.frame_count = 0

    def reset(self, task):
        scene = sample_scene(self.layout, self.rng)
        task.prepare(scene, self.rng)
        self.scene = scene
        self.initial_scene = scene.copy()
        self.task = task
        self.frame_count = 0
        return self.camera.render(self.scene, self.rng)

    @property
    def succeeded(self):
        return bool(self.task.success(self.initial_scene, self.scene))

    def step(self, target_pose, gripper_open, actuation=None):
        model = actuation or self.actuation
        scene = self.scene
        target = np.asarray(target_pose, dtype=float)
        displacement = target - scene.ee_pose
        realised = model.tracking_gain * displacement
        if model.noise_std > 0.0:
            noise = self.rng.normal(0.0, model.noise_std, size=6)
            noise[3:] *= 2.0
            realised = realised + noise
        new_pose = scene.ee_pose + realised
        new_pose[:3] = WORKSPACE.clamp(new_pose[:3])
        delta_yaw = new_pose[5] - scene.ee_pose[5]
        scene.ee_pose = new_pose
        self._update_gripper(gripper_open)
        self._drag_attached(delta_yaw)
        self._push_blocks()
        self._update_button()
        self.frame_count += 1
        return self.camera.render(self.scene, self.rng)

    def _update_gripper(self, gripper_open):
        scene = self.scene
        if gripper_open and not scene.gripper_open:
            self._release()
            scene.gripper_open = True
        elif not gripper_open and scene.gripper_open:
            scene.gripper_open = False
            self._try_grasp()

    def _try_grasp(self):
        scene = self.scene
        ee = scene.ee_pose[:3]
        best_name, best_distance = None, np.inf
        for name, block in scene.blocks.items():
            planar = float(np.linalg.norm(block.position[:2] - ee[:2]))
            vertical = abs(block.position[2] - ee[2] + 0.01)
            if planar <= self._BLOCK_GRASP_RADIUS and vertical <= self._BLOCK_GRASP_HEIGHT:
                if planar < best_distance:
                    best_name, best_distance = name, planar
        drawer_distance = float(np.linalg.norm(scene.drawer.handle_position - ee))
        if drawer_distance <= scene.drawer.grasp_radius and drawer_distance < best_distance:
            best_name, best_distance = "drawer", drawer_distance
        switch_distance = float(np.linalg.norm(scene.switch.handle_position - ee))
        if switch_distance <= scene.switch.grasp_radius and switch_distance < best_distance:
            best_name, best_distance = "switch", switch_distance
        scene.attached = best_name

    def _release(self):
        scene = self.scene
        if scene.attached in scene.blocks:
            block = scene.blocks[scene.attached]
            block.position[2] = self._settle_height(scene.attached)
        scene.attached = None

    def _settle_height(self, name):
        scene = self.scene
        block = scene.blocks[name]
        drawer = scene.drawer
        if drawer.opening >= self._BASIN_MIN_OPENING:
            basin = drawer.basin_position
            if float(np.linalg.norm(block.position[:2] - basin[:2])) <= self._BASIN_RADIUS:
                return self._BASIN_FLOOR_Z
        best_height, best_distance = None, np.inf
        for other_name, other in scene.blocks.items():
            if other_name == name:
                continue
            planar = float(np.linalg.norm(other.position[:2] - block.position[:2]))
            top = other.position[2] + other.half_extent
            if (
                planar <= self._STACK_SNAP_RADIUS
                and planar < best_distance
                and top <= block.position[2] + 1e-9
            ):
                best_height = top + block.half_extent
                best_distance = planar
        return self._TABLE_BLOCK_Z if best_height is None else float(best_height)

    def _push_blocks(self):
        scene = self.scene
        ee = scene.ee_pose
        if ee[2] > self._PUSH_EE_HEIGHT:
            return
        for name, block in scene.blocks.items():
            if scene.attached == name:
                continue
            if not (self._PUSH_BLOCK_MIN_Z <= block.position[2] <= self._PUSH_BLOCK_MAX_Z):
                continue
            offset = block.position[:2] - ee[:2]
            planar = float(np.sqrt(offset[0] * offset[0] + offset[1] * offset[1]))
            if self._PUSH_DEADZONE < planar < self._PUSH_RADIUS:
                shoved = ee[:2] + offset / planar * self._PUSH_RADIUS
                block.position[0] = shoved[0]
                block.position[1] = shoved[1]

    def _update_button(self):
        scene = self.scene
        button = scene.button
        ee = scene.ee_pose
        offset = button.position[:2] - ee[:2]
        planar = float(np.sqrt(offset[0] * offset[0] + offset[1] * offset[1]))
        contact = planar <= button.press_radius and ee[2] <= button.press_height
        if contact and not button.contact:
            button.led_on = not button.led_on
        button.contact = contact

    def _drag_attached(self, delta_yaw):
        scene = self.scene
        if scene.attached is None:
            return
        ee = scene.ee_pose[:3]
        if scene.attached in scene.blocks:
            block = scene.blocks[scene.attached]
            block.position = ee + np.array([0.0, 0.0, -0.01])
            block.yaw += delta_yaw
        elif scene.attached == "drawer":
            drawer = scene.drawer
            along = float(np.dot(ee - drawer.handle_base, drawer.axis))
            drawer.opening = float(np.clip(along, 0.0, drawer.max_opening))
        elif scene.attached == "switch":
            switch = scene.switch
            along = float(np.dot(ee - switch.handle_base, switch.axis)) / switch.travel
            switch.level = float(np.clip(along, 0.0, 1.0))


class TestVectorizedKernelEquivalence:
    """step_many must be seed-for-seed the frozen scalar implementation."""

    N = 6
    FRAMES = 60

    @staticmethod
    def _command(env, rng):
        """One pseudo-random command: a free-space wander, or (one draw in
        four) a low dive at a block or the button so the shove, settle and
        button-press mechanics all fire during the equivalence drive."""
        if rng.integers(0, 4) == 0:
            pick = int(rng.integers(0, 4))
            anchor = (
                env.scene.blocks[BLOCK_NAMES[pick]].position
                if pick < len(BLOCK_NAMES)
                else env.scene.button.position
            )
            target = np.zeros(6)
            target[:3] = anchor + rng.normal(0.0, 0.03, 3)
            target[2] = 0.03 + abs(rng.normal(0.0, 0.02))
            target[3:] = env.scene.ee_pose[3:] + rng.normal(0.0, 0.05, 3)
            return target
        return env.scene.ee_pose + rng.normal(0.0, 0.03, 6)

    def _drive(self, env_factory, step):
        """Roll N lanes with shared pseudo-random commands; returns frames."""
        envs = [env_factory(i) for i in range(self.N)]
        tasks = [TASKS[(3 * i) % len(TASKS)] for i in range(self.N)]
        observations = [[env.reset(task)] for env, task in zip(envs, tasks)]
        command_rngs = [np.random.default_rng(900 + i) for i in range(self.N)]
        models = [
            [TRACKING_100HZ, TRACKING_30HZ, PERFECT_ACTUATION][i % 3]
            for i in range(self.N)
        ]
        for _ in range(self.FRAMES):
            targets = np.stack(
                [self._command(envs[i], command_rngs[i]) for i in range(self.N)]
            )
            grippers = [bool(command_rngs[i].integers(0, 2)) for i in range(self.N)]
            stepped = step(envs, targets, grippers, models)
            for i in range(self.N):
                observations[i].append(stepped[i])
        return envs, [np.array(o) for o in observations]

    def test_step_many_matches_frozen_scalar_reference(self):
        def scalar_factory(i):
            return _ScalarReferenceEnv(SEEN_LAYOUT, np.random.default_rng(7000 + i))

        def scalar_step(envs, targets, grippers, models):
            return [
                env.step(target, gripper, model)
                for env, target, gripper, model in zip(envs, targets, grippers, models)
            ]

        fleet_holder = {}

        def batched_factory(i):
            return ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(7000 + i))

        def batched_step(envs, targets, grippers, models):
            if "fleet" not in fleet_holder:
                fleet_holder["fleet"] = BatchedManipulationEnv(envs)
            return fleet_holder["fleet"].step_many(targets, grippers, models)

        scalar_envs, scalar_obs = self._drive(scalar_factory, scalar_step)
        batched_envs, batched_obs = self._drive(batched_factory, batched_step)

        for i in range(self.N):
            assert np.array_equal(scalar_obs[i], batched_obs[i]), f"lane {i} observations"
            ref, new = scalar_envs[i].scene, batched_envs[i].scene
            assert np.array_equal(ref.ee_pose, new.ee_pose)
            assert ref.gripper_open == new.gripper_open
            assert ref.attached == new.attached
            for name in ref.blocks:
                assert np.array_equal(ref.blocks[name].position, new.blocks[name].position)
                assert ref.blocks[name].yaw == new.blocks[name].yaw
            assert ref.drawer.opening == new.drawer.opening
            assert ref.switch.level == new.switch.level
            assert ref.button.led_on == new.button.led_on
            assert ref.button.contact == new.button.contact
            assert scalar_envs[i].succeeded == batched_envs[i].succeeded

    def test_standalone_step_is_the_batched_kernel(self):
        """A standalone env (fleet of one) matches the frozen scalar oracle."""
        reference = _ScalarReferenceEnv(SEEN_LAYOUT, np.random.default_rng(11))
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(11))
        ref_obs = reference.reset(TASKS[4])
        new_obs = env.reset(TASKS[4])
        assert np.array_equal(ref_obs, new_obs)
        commands = np.random.default_rng(12)
        for _ in range(self.FRAMES):
            target = env.scene.ee_pose + commands.normal(0.0, 0.03, 6)
            gripper = bool(commands.integers(0, 2))
            assert np.array_equal(
                reference.step(target, gripper), env.step(target, gripper)
            )


class TestLaneValidation:
    def test_closed_loop_corki_lane_requires_rng(self):
        with pytest.raises(ValueError):
            FleetLane(tasks=[TASKS[0]], variation=VARIATIONS["corki-5"])

    def test_lane_requires_tasks(self):
        with pytest.raises(ValueError):
            FleetLane(tasks=[])

    def test_runner_requires_matching_policies(self, tiny_policies):
        baseline, _, _ = tiny_policies
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(0))
        lane = FleetLane(
            tasks=[TASKS[0]], variation=VARIATIONS["corki-5"],
            rng=np.random.default_rng(1),
        )
        with pytest.raises(ValueError):
            FleetRunner(baseline=baseline).run([env], [lane])


SYSTEMS = ("roboflamingo", "corki-1", "corki-3", "corki-5", "corki-7", "corki-9", "corki-adap")
REFERENCE_LANES = 32
REFERENCE_FRAMES = 40
REFERENCE_SEED = 7


def _moved(initial, current) -> bool:
    """Success once the arm is 3 cm from where the episode started: it ends
    episodes after a few frames, often mid-trajectory, so jobs chain."""
    return bool(np.linalg.norm(current.ee_pose[:3] - initial.ee_pose[:3]) > 0.03)


def _reference_jobs():
    """Chained 5-task jobs; about half the tasks succeed on ``_moved``."""
    rng = np.random.default_rng(REFERENCE_SEED)
    jobs = [sample_job(rng, 5) for _ in range(REFERENCE_LANES)]
    return [
        [replace(task, success=_moved) if rng.random() < 0.5 else task for task in job]
        for job in jobs
    ]


def _lane_systems(system):
    if system == "mixed":
        return [SYSTEMS[lane % len(SYSTEMS)] for lane in range(REFERENCE_LANES)]
    return [system] * REFERENCE_LANES


def _admissions(system):
    """Fresh ``(env, lane)`` pairs, keyed like ``evaluate_system``'s lanes.

    ``build_lane`` resolves a spec's instructions in the registry; the
    reference jobs' tasks carry the ``_moved`` predicate, so they replace
    the resolved tasks."""
    jobs = _reference_jobs()
    admissions = []
    for lane, name in enumerate(_lane_systems(system)):
        instructions = tuple(task.instruction for task in jobs[lane])
        env, fleet_lane = build_lane(
            LaneSpec(name, SEEN_LAYOUT, REFERENCE_SEED, lane, instructions, REFERENCE_FRAMES)
        )
        admissions.append((env, replace(fleet_lane, tasks=list(jobs[lane]))))
    return admissions


def _frozen_lane(lane):
    """``lane`` with the two fields the frozen runner still reads: the
    actuation it picks from the lane kind when ``None``, and a first task
    that starts with ``reset``."""
    return SimpleNamespace(**vars(lane), actuation=None, chained_start=False)


def _roll(runner_cls, policies, system, fleet_size):
    """Every lane's encoded traces."""
    baseline, corki, _ = policies
    admissions = _admissions(system)
    if runner_cls is FrozenFleetRunner:
        admissions = [(env, _frozen_lane(lane)) for env, lane in admissions]
    traces = []
    for start in range(0, len(admissions), fleet_size):
        chunk = admissions[start : start + fleet_size]
        runner = runner_cls(baseline=baseline, corki=corki)
        traces.extend(runner.run([env for env, _ in chunk], [lane for _, lane in chunk]))
    return [encode_traces(lane_traces) for lane_traces in traces]


class _Recorder:
    """``run_continuous`` callbacks on lane keys: completions, and the
    ``should_cancel`` poll that evicts lane ``victim`` on its tenth poll,
    logged as a cancellation (an evicted lane's partial traces are not
    handed out)."""

    def __init__(self, victim=None):
        self.victim = victim
        self.polls = 0
        self.events = []

    def on_complete(self, key, traces):
        self.events.append(("complete", key, encode_traces(traces)))

    def should_cancel(self, key):
        if key != self.victim:
            return False
        self.polls += 1
        if self.polls != 10:
            return False
        self.events.append(("cancel", key))
        return True


def _roll_continuous(runner_cls, policies, slots, victim):
    baseline, corki, _ = policies
    admissions = _admissions("mixed")
    recorder = _Recorder(victim)
    should_cancel = None if victim is None else recorder.should_cancel
    runner = runner_cls(baseline=baseline, corki=corki)
    if runner_cls is FrozenFleetRunner:
        # The frozen runner keeps its (env, lane) interface: key its lanes here.
        admissions = [(env, _frozen_lane(lane)) for env, lane in admissions]
        keys = {id(lane): key for key, (_, lane) in enumerate(admissions)}
        served = runner.run_continuous(
            iter(admissions),
            slots,
            lambda lane, traces: recorder.on_complete(keys[id(lane)], traces),
            should_cancel=should_cancel and (lambda lane: should_cancel(keys[id(lane)])),
        )
    else:
        keyed = ((key, env, lane) for key, (env, lane) in enumerate(admissions))
        served = runner.run_continuous(keyed, slots, recorder.on_complete, should_cancel)
    return served, recorder.events


class TestFrozenFleetReference:
    """The array runner against the frozen per-lane-object runner.

    Every lane's ``encode_traces`` bytes must be identical, for all seven
    Tbl. 1 systems and a fleet mixing them, chained 5-task jobs, a 40-frame
    budget, closed-loop feedback and fleet sizes 1, 7 and 32; and
    ``run_continuous`` must retire, cancel and refill identically.  The
    bytes include each episode's ``executed_steps``, of which a lane's
    latency/energy estimate is a pure function.
    """

    @pytest.mark.parametrize("fleet_size", [1, 7, 32])
    @pytest.mark.parametrize("system", [*SYSTEMS, "mixed"])
    def test_run_matches_frozen_runner(self, tiny_policies, system, fleet_size):
        traces = _roll(FleetRunner, tiny_policies, system, fleet_size)
        frozen_traces = _roll(FrozenFleetRunner, tiny_policies, system, fleet_size)
        for lane, (got, want) in enumerate(zip(traces, frozen_traces, strict=True)):
            assert got == want, f"{system} lane {lane}: traces differ from the frozen runner"

    def test_jobs_chain_and_end_mid_trajectory(self, tiny_policies):
        """The reference jobs exercise what the bookkeeping must get right:
        chained tasks, mid-trajectory successes and frame-budget endings."""
        _, corki, _ = tiny_policies
        admissions = _admissions("corki-9")
        traces = FleetRunner(corki=corki).run(
            [env for env, _ in admissions], [lane for _, lane in admissions]
        )
        episodes = [trace for lane in traces for trace in lane]
        assert max(len(lane) for lane in traces) >= 3
        assert any(trace.success and trace.executed_steps[-1] < 9 for trace in episodes)
        assert any(trace.frames == REFERENCE_FRAMES for trace in episodes)

    @pytest.mark.parametrize("victim", [None, 3])
    def test_run_continuous_matches_frozen_runner(self, tiny_policies, victim):
        """Five slots serve 32 mixed lanes; with a victim, one lane is
        evicted mid-roll and its slot refilled."""
        served, events = _roll_continuous(FleetRunner, tiny_policies, 5, victim)
        frozen_served, frozen_events = _roll_continuous(
            FrozenFleetRunner, tiny_policies, 5, victim
        )
        assert served == frozen_served
        assert events == frozen_events
        assert [event[0] for event in events].count("cancel") == (0 if victim is None else 1)

    @pytest.mark.parametrize("lanes", [1, 2, 7, 32])
    def test_adaptive_steps_match_frozen_decide_steps(self, lanes):
        """One stacked waypoint product, one flag comparison and one kernel
        call decide what ``_decide_steps`` decided plan by plan."""
        rng = np.random.default_rng(lanes)
        plans = TrajectoryBatch(
            origins=rng.normal(0.0, 0.1, (lanes, 6)),
            coefficients=rng.normal(0.0, 0.02, (lanes, 6, 4)),
            duration=0.3,
            gripper_open=rng.random((lanes, 9)) < 0.85,
        )
        gripper_now = rng.random(lanes) < 0.5
        rows = np.arange(lanes)
        steps = _adaptive_steps(plans, rows, gripper_now)
        frozen = [
            _decide_steps(plans.trajectory(lane), VARIATIONS["corki-adap"], bool(gripper_now[lane]))
            for lane in range(lanes)
        ]
        assert steps.tolist() == frozen


class TestWorkCounters:
    """``FleetRunner.counters`` counts work exactly: ticks, lane-frames,
    admissions, and each policy head's calls and rows."""

    def test_counts_match_the_traces(self, tiny_policies):
        baseline, corki, _ = tiny_policies
        admissions = _admissions("mixed")
        runner = FleetRunner(baseline=baseline, corki=corki)
        traces = runner.run([env for env, _ in admissions], [lane for _, lane in admissions])
        counters = runner.counters
        frames = [sum(trace.frames for trace in lane) for lane in traces]
        corki_lanes = [lane for (_, spec), lane in zip(admissions, traces) if spec.variation]
        baseline_frames = sum(
            sum(trace.frames for trace in lane)
            for (_, spec), lane in zip(admissions, traces)
            if spec.variation is None
        )
        plans = sum(len(trace.executed_steps) for lane in corki_lanes for trace in lane)
        assert counters.admissions == REFERENCE_LANES
        assert counters.lane_frames == sum(frames)
        assert counters.ticks == max(frames)
        assert counters.baseline_rows == baseline_frames
        assert counters.baseline_calls <= counters.ticks
        assert counters.traj_rows == plans
        assert counters.traj_calls <= counters.ticks
        assert 0 < counters.vit_rows <= plans
        assert counters.vit_calls <= counters.ticks

    def test_counters_accumulate_across_calls(self, tiny_policies):
        _, corki, _ = tiny_policies
        runner = FleetRunner(corki=corki)
        for _ in range(2):
            admissions = _admissions("corki-5")[:3]
            runner.run([env for env, _ in admissions], [lane for _, lane in admissions])
        assert runner.counters.admissions == 6

    def test_refill_keeps_the_fleet_full(self, tiny_policies):
        """``roll_specs`` gives a retired lane's slot to the next spec on the
        next tick, so 8 slots stay full while specs remain and then drain
        within one frame budget: 32 single-task specs across the seven
        systems, budgets cycling 30/150/60/120 frames, take at most
        ceil(lane-frames / 8) + 150 ticks (fleets of 8 drained to empty one
        after the other took 600)."""
        baseline, corki, _ = tiny_policies
        specs = [
            LaneSpec(
                SYSTEMS[lane % len(SYSTEMS)], SEEN_LAYOUT, 5, lane,
                (TASKS[lane % len(TASKS)].instruction,), (30, 150, 60, 120)[lane % 4],
            )
            for lane in range(32)
        ]
        runner = FleetRunner(baseline=baseline, corki=corki)
        roll_specs(runner, specs, 8)
        counters = runner.counters
        assert counters.lane_frames == 8 * (30 + 150 + 60 + 120)  # every lane runs its budget
        assert counters.admissions == 32
        assert counters.ticks <= (counters.lane_frames + 7) // 8 + 150

    def test_sweep_fleets_carry_more_rows_per_call(self, tiny_policies, monkeypatch):
        """``evaluate_all_systems`` rolls the seven systems' lanes as mixed
        fleets, so over one seed its Corki plan and baseline calls carry at
        least 1.5x the rows per call of seven ``evaluate_system`` calls, for
        the same rows in all."""
        baseline, corki, _ = tiny_policies
        policies = TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)
        runners = []

        class RecordingRunner(FleetRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runners.append(self)

        monkeypatch.setattr(evaluation, "FleetRunner", RecordingRunner)

        def rows_and_calls(roll) -> tuple[int, int]:
            runners.clear()
            roll()
            counters = [runner.counters for runner in runners]
            return (
                sum(count.traj_rows + count.baseline_rows for count in counters),
                sum(count.traj_calls + count.baseline_calls for count in counters),
            )

        seed, jobs = 11, 8
        mixed_rows, mixed_calls = rows_and_calls(
            lambda: evaluate_all_systems(policies, SEEN_LAYOUT, jobs, seed, systems=list(SYSTEMS))
        )
        alone_rows, alone_calls = rows_and_calls(
            lambda: [evaluate_system(policies, name, SEEN_LAYOUT, jobs, seed) for name in SYSTEMS]
        )
        assert mixed_rows == alone_rows
        assert 2 * mixed_rows * alone_calls >= 3 * alone_rows * mixed_calls, (
            f"{mixed_rows}/{mixed_calls} rows per call mixed, "
            f"{alone_rows}/{alone_calls} one system at a time"
        )
