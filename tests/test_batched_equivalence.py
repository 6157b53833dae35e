"""The scalar-vs-batched differential harness.

Every lane-batched kernel in the architecture half must be **bitwise**
equal, per lane, to its frozen scalar reference -- across fleet sizes, and
independently of which other lanes share the batch.  This file is the
contract: a batched kernel lands together with a case here driving it
against the scalar function through :func:`assert_scalar_batched_equal`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_figures import scalar_threshold_sweep

import repro.sim.camera as camera
from repro.accelerator import AcceleratorLanes, CorkiAccelerator
from repro.analysis.calibration import (
    sample_trajectory,
    threshold_sweep,
    track_trajectories_lanes,
    track_trajectory,
)
from repro.core.waypoints import adaptive_termination_step, adaptive_termination_step_lanes
from repro.pipeline import (
    PipelineLane,
    SystemStages,
    estimate_from_steps,
    estimate_lanes,
    lane_jitter_rng,
    simulate_baseline,
    simulate_corki,
    simulate_lanes,
)
from repro.robot import (
    TaskSpaceComputedTorqueController,
    forward_kinematics,
    forward_kinematics_lanes,
    geometric_jacobian_lanes,
    geometric_jacobian_reference,
    ik_step,
    ik_step_lanes,
    jacobian_dot_qd_lanes,
    jacobian_dot_qd_reference,
    mass_matrix_lanes,
    mass_matrix_reference,
    pose_error_lanes,
    rnea_lanes,
    rnea_reference,
    semi_implicit_euler_step,
    semi_implicit_euler_step_lanes,
)
from repro.robot.control import TaskSpaceReference
from repro.robot.integrators import JointState
from repro.sim import CameraModel, SceneArrays

FLEET_SIZES = (1, 2, 7, 32)


def assert_scalar_batched_equal(batched, scalars):
    """Assert lane ``i`` of a batched result equals scalar result ``i`` bitwise.

    ``batched`` is an array (leading lane axis) or a sequence of per-lane
    results; ``scalars`` is the list of scalar-reference results.  Equality
    is exact -- same values, same dtype, no tolerance -- because the batched
    kernels promise bit-identical arithmetic, not approximate agreement.
    """
    assert len(batched) == len(scalars), "lane count mismatch"
    for lane, scalar in enumerate(scalars):
        got = np.asarray(batched[lane])
        want = np.asarray(scalar)
        assert got.shape == want.shape, f"lane {lane}: shape {got.shape} != {want.shape}"
        assert got.dtype == want.dtype, f"lane {lane}: dtype {got.dtype} != {want.dtype}"
        assert (got == want).all(), f"lane {lane}: values differ from scalar reference"


def lane_states(model, lanes, seed=0):
    """Deterministic per-lane joint states exercising the workspace."""
    rng = np.random.default_rng(seed)
    q = model.q_home + rng.normal(0.0, 0.35, (lanes, model.dof))
    qd = rng.normal(0.0, 0.6, (lanes, model.dof))
    qdd = rng.normal(0.0, 0.4, (lanes, model.dof))
    return q, qd, qdd


@pytest.mark.parametrize("lanes", FLEET_SIZES)
class TestRobotKernels:
    def test_rnea(self, panda_model, lanes):
        q, qd, qdd = lane_states(panda_model, lanes)
        batched = rnea_lanes(panda_model, q, qd, qdd)
        scalars = [rnea_reference(panda_model, q[k], qd[k], qdd[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)

    def test_mass_matrix(self, panda_model, lanes):
        q, _, _ = lane_states(panda_model, lanes, seed=1)
        batched = mass_matrix_lanes(panda_model, q)
        scalars = [mass_matrix_reference(panda_model, q[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)

    def test_jacobian(self, panda_model, lanes):
        q, _, _ = lane_states(panda_model, lanes, seed=2)
        batched = geometric_jacobian_lanes(panda_model, q)
        scalars = [geometric_jacobian_reference(panda_model, q[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)

    def test_jacobian_dot_qd_with_resting_lanes(self, panda_model, lanes):
        q, qd, _ = lane_states(panda_model, lanes, seed=3)
        if lanes >= 2:
            qd[1] = 0.0  # a resting lane must not perturb the moving lanes
        batched = jacobian_dot_qd_lanes(panda_model, q, qd)
        scalars = [jacobian_dot_qd_reference(panda_model, q[k], qd[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)

    def test_forward_kinematics(self, panda_model, lanes):
        q, _, _ = lane_states(panda_model, lanes, seed=4)
        batched = forward_kinematics_lanes(panda_model, q)
        scalars = [forward_kinematics(panda_model, q[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)

    def test_ik_step(self, panda_model, lanes):
        rng = np.random.default_rng(5)
        q, _, _ = lane_states(panda_model, lanes, seed=5)
        targets = np.stack(
            [
                np.concatenate(
                    [
                        forward_kinematics(panda_model, panda_model.q_home)[:3, 3]
                        + rng.normal(0.0, 0.05, 3),
                        rng.normal(0.0, 0.2, 3),
                    ]
                )
                for _ in range(lanes)
            ]
        )
        batched = ik_step_lanes(panda_model, q, targets)
        scalars = [ik_step(panda_model, q[k], targets[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)

    def test_integrator_step(self, panda_model, lanes):
        q, qd, _ = lane_states(panda_model, lanes, seed=6)
        rng = np.random.default_rng(7)
        tau = rng.normal(0.0, 5.0, (lanes, panda_model.dof))
        q_next, qd_next = semi_implicit_euler_step_lanes(panda_model, q, qd, tau, 0.002)
        scalars = [
            semi_implicit_euler_step(panda_model, JointState(q[k], qd[k]), tau[k], 0.002)
            for k in range(lanes)
        ]
        assert_scalar_batched_equal(q_next, [s.q for s in scalars])
        assert_scalar_batched_equal(qd_next, [s.qd for s in scalars])

    def test_pose_error(self, panda_model, lanes):
        q, _, _ = lane_states(panda_model, lanes, seed=8)
        rng = np.random.default_rng(9)
        references = rng.normal(0.0, 0.3, (lanes, 6))
        controller = TaskSpaceComputedTorqueController(panda_model)
        batched = pose_error_lanes(panda_model, q, references)
        scalars = [controller.pose_error(references[k], q[k]) for k in range(lanes)]
        assert_scalar_batched_equal(batched, scalars)


def pipeline_lane_specs(lanes, seed=21):
    """A mixed bag of baseline / Corki / CPU-control / no-jitter lanes."""
    specs = []
    for index in range(lanes):
        rng = None if index % 5 == 4 else lane_jitter_rng(seed, index)
        kind = index % 3
        if kind == 0:
            specs.append(PipelineLane(f"lane-{index}", frames=20 + index, rng=rng))
        elif kind == 1:
            specs.append(
                PipelineLane(
                    f"lane-{index}",
                    executed_steps=(5, 1, 3, 7, 2)[: 2 + index % 3],
                    rng=rng,
                )
            )
        else:
            specs.append(
                PipelineLane(
                    f"lane-{index}",
                    executed_steps=(4, 4, 6),
                    stages=SystemStages.corki(control="cpu"),
                    rng=rng,
                )
            )
    return specs


@pytest.mark.parametrize("lanes", FLEET_SIZES)
class TestPipelineTraces:
    def scalar_trace(self, spec):
        if spec.frames is not None:
            return simulate_baseline(
                spec.frames, stages=spec.stages, rng=spec.rng, name=spec.name
            )
        return simulate_corki(
            list(spec.executed_steps), stages=spec.stages, rng=spec.rng, name=spec.name
        )

    def test_simulate_lanes_matches_scalar(self, lanes):
        arrays = simulate_lanes(pipeline_lane_specs(lanes))
        scalars = [self.scalar_trace(spec) for spec in pipeline_lane_specs(lanes)]
        assert_scalar_batched_equal(
            [view.latencies_ms() for view in arrays],
            [trace.latencies_ms() for trace in scalars],
        )
        assert_scalar_batched_equal(
            [view.energies_j() for view in arrays],
            [trace.energies_j() for trace in scalars],
        )
        for view, trace in zip(arrays, scalars):
            assert view.mean_latency_ms == trace.mean_latency_ms
            assert view.mean_energy_j == trace.mean_energy_j
            for stage in ("inference_ms", "control_ms", "communication_ms",
                          "inference_j", "control_j", "communication_j"):
                got = np.array([getattr(r, stage) for r in view.records()])
                want = np.array([getattr(r, stage) for r in trace.frames])
                assert (got == want).all(), stage

    def test_jitter_streams_are_fleet_size_invariant(self, lanes):
        # Lane 0's bytes must not depend on how many lanes share the batch.
        solo = simulate_lanes(pipeline_lane_specs(1)).view(0)
        fleet = simulate_lanes(pipeline_lane_specs(lanes)).view(0)
        assert (fleet.latencies_ms() == solo.latencies_ms()).all()
        assert (fleet.energies_j() == solo.energies_j()).all()


@pytest.mark.parametrize("lanes", FLEET_SIZES)
def test_estimate_lanes_is_fleet_size_invariant(lanes):
    steps = [[5, 3, 7] for _ in range(lanes)]
    batch = estimate_lanes("corki-5", steps, seed=11)
    for index, estimate in enumerate(batch):
        assert estimate == estimate_from_steps("corki-5", [5, 3, 7], seed=11, lane=index)


class TestAcceleratorLanes:
    def tick_inputs(self, model, lanes, seed):
        rng = np.random.default_rng(seed)
        q = model.q_home + rng.normal(0.0, 0.05, (lanes, model.dof))
        qd = rng.normal(0.0, 0.1, (lanes, model.dof))
        poses = rng.normal(0.0, 0.3, (lanes, 6))
        velocities = rng.normal(0.0, 0.1, (lanes, 6))
        accelerations = rng.normal(0.0, 0.1, (lanes, 6))
        return q, qd, poses, velocities, accelerations

    @pytest.mark.parametrize("lanes", (1, 2, 7))
    def test_control_ticks_match_scalar(self, panda_model, lanes):
        scalar_accs = [CorkiAccelerator(panda_model, threshold=0.4) for _ in range(lanes)]
        batched_accs = [CorkiAccelerator(panda_model, threshold=0.4) for _ in range(lanes)]
        bank = AcceleratorLanes(batched_accs)
        q, qd, poses, velocities, accelerations = self.tick_inputs(panda_model, lanes, 31)
        for tick in range(3):
            # Nudge a subset of lanes so ACE decisions diverge across lanes.
            q = q.copy()
            q[tick % lanes] += 0.2
            result = bank.control_tick_lanes(poses, velocities, accelerations, q, qd)
            scalars = [
                acc.control_tick(
                    TaskSpaceReference(poses[k], velocities[k], accelerations[k]),
                    q[k],
                    qd[k],
                )
                for k, acc in enumerate(scalar_accs)
            ]
            assert_scalar_batched_equal(result.torques, [t.torque for t in scalars])
            assert [int(c) for c in result.cycles] == [t.cycles for t in scalars]
            assert result.updated == [t.updated for t in scalars]
        for scalar, batched in zip(scalar_accs, batched_accs):
            assert scalar.cycle_log == batched.cycle_log
            assert scalar.skip_rate == batched.skip_rate

    def test_mismatched_gains_are_rejected(self, panda_model):
        from repro.robot import ControlGains

        a = CorkiAccelerator(panda_model)
        b = CorkiAccelerator(panda_model, gains=ControlGains(nullspace_damping=3.0))
        with pytest.raises(ValueError):
            AcceleratorLanes([a, b])

    def test_empty_fleet_is_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorLanes([])


class TestTrackingLanes:
    def test_track_trajectories_matches_scalar(self, panda_model):
        rng = np.random.default_rng(3)
        samples = [sample_trajectory(panda_model, rng, steps=3) for _ in range(2)]
        scalar_accs = [CorkiAccelerator(panda_model, threshold=0.4) for _ in samples]
        scalar_reports = [
            track_trajectory(panda_model, trajectory, accelerator=acc)
            for trajectory, acc in zip(samples, scalar_accs)
        ]
        batched_accs = [CorkiAccelerator(panda_model, threshold=0.4) for _ in samples]
        batched_reports = track_trajectories_lanes(
            panda_model, samples, accelerators=batched_accs
        )
        assert scalar_reports == batched_reports
        for scalar, batched in zip(scalar_accs, batched_accs):
            assert scalar.cycle_log == batched.cycle_log

    def test_software_controller_lanes_match_scalar(self, panda_model):
        rng = np.random.default_rng(4)
        samples = [sample_trajectory(panda_model, rng, steps=3) for _ in range(2)]
        scalar_reports = [track_trajectory(panda_model, t) for t in samples]
        assert track_trajectories_lanes(panda_model, samples) == scalar_reports

    def test_unequal_durations_are_rejected(self, panda_model):
        rng = np.random.default_rng(5)
        samples = [
            sample_trajectory(panda_model, rng, steps=3),
            sample_trajectory(panda_model, rng, steps=4),
        ]
        with pytest.raises(ValueError):
            track_trajectories_lanes(panda_model, samples)

    def test_threshold_sweep_batched_equals_scalar(self):
        kwargs = dict(thresholds=[0.0, 0.6], trajectories=1)
        assert threshold_sweep(**kwargs) == scalar_threshold_sweep(**kwargs)


class TestFigureLanes:
    ADAP_STEPS = [5, 3, 7, 5, 4, 6, 5, 5, 9, 1, 2, 5]

    def scalar_traces(self, specs):
        harness = TestPipelineTraces()
        return {spec.name: harness.scalar_trace(spec) for spec in specs}

    def test_fig13_batched_equals_scalar(self):
        from repro.experiments.fig13_latency_energy import system_lanes

        batched = {view.name: view for view in simulate_lanes(system_lanes(60, self.ADAP_STEPS))}
        scalars = self.scalar_traces(system_lanes(60, self.ADAP_STEPS))
        assert set(batched) == set(scalars)
        for name, trace in scalars.items():
            assert (batched[name].latencies_ms() == trace.latencies_ms()).all()
            assert (batched[name].energies_j() == trace.energies_j()).all()

    def test_fig13_streams_keyed_per_system(self):
        # The regression the keying fixes: removing one system must leave
        # every other system's bytes untouched.
        from repro.experiments.fig13_latency_energy import system_lanes

        full = {view.name: view for view in simulate_lanes(system_lanes(60, self.ADAP_STEPS))}
        subset_specs = [
            spec for spec in system_lanes(60, self.ADAP_STEPS) if spec.name != "corki-3"
        ]
        subset = {view.name: view for view in simulate_lanes(subset_specs)}
        for name, view in subset.items():
            assert (view.latencies_ms() == full[name].latencies_ms()).all()

    def test_fig14_batched_equals_scalar(self):
        from repro.experiments.fig14_frame_analysis import frame_lanes

        batched = {view.name: view for view in simulate_lanes(frame_lanes(self.ADAP_STEPS))}
        scalars = self.scalar_traces(frame_lanes(self.ADAP_STEPS))
        for name, trace in scalars.items():
            assert (batched[name].latencies_ms() == trace.latencies_ms()).all()
            assert batched[name].mean_energy_j == trace.mean_energy_j


# -- Algorithm 1 (Corki-ADAP's early termination) ------------------------------

PATH_KINDS = ("walk", "lattice", "coincident", "collinear", "tiny")
FLAG_KINDS = ("none", "random", "single", "all")
THRESHOLDS = (0.0, 1e-13, 0.005, 0.02, 0.1)


def _path(kind, rng, steps):
    """A start point and ``steps`` waypoints of one kind of path.

    ``lattice`` puts every point on a 5 mm grid (exact ties, repeats);
    ``coincident`` draws each point from the start and two others (zero
    chords, zero-length interior vectors); ``collinear`` moves back and
    forth on one line through the start; ``tiny`` stays within the
    kernel's 1e-12 degeneracy thresholds of the start.
    """
    if kind == "walk":
        start = rng.normal(0.0, 0.01, 3)
        return start, start + np.cumsum(rng.normal(0.0, 0.005, (steps, 3)), axis=0)
    if kind == "lattice":
        start = rng.integers(-2, 3, 3) * 0.005
        return start, rng.integers(-4, 5, (steps, 3)) * 0.005
    if kind == "coincident":
        start = rng.normal(0.0, 0.01, 3)
        choices = np.stack([start, start + rng.normal(0.0, 0.01, 3), rng.normal(0.0, 0.01, 3)])
        return start, choices[rng.integers(0, 3, steps)]
    if kind == "collinear":
        start = rng.normal(0.0, 0.01, 3)
        direction = rng.normal(0.0, 1.0, 3)
        return start, start + rng.integers(-3, 4, (steps, 1)) * 0.01 * direction
    start = rng.normal(0.0, 0.01, 3)
    scale = 10.0 ** rng.uniform(-13.0, -11.0, (steps, 1))
    return start, start + rng.normal(0.0, 1.0, (steps, 3)) * scale


def _flags(kind, rng, steps, index):
    flags = np.zeros(steps, dtype=bool)
    if kind == "random":
        flags = rng.random(steps) < 0.2
    elif kind == "single" and steps:
        flags[index % steps] = True
    elif kind == "all":
        flags[:] = True
    return flags


@st.composite
def algorithm1_lanes(draw):
    """``(starts, waypoints, flags, threshold)`` for L in {1, 2, 7, 32}."""
    lanes = draw(st.sampled_from(FLEET_SIZES))
    steps = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = np.zeros((lanes, 3))
    waypoints = np.zeros((lanes, steps, 3))
    flags = np.zeros((lanes, steps), dtype=bool)
    for lane in range(lanes):
        starts[lane], waypoints[lane] = _path(draw(st.sampled_from(PATH_KINDS)), rng, steps)
        flags[lane] = _flags(
            draw(st.sampled_from(FLAG_KINDS)), rng, steps, draw(st.integers(0, 9))
        )
    return starts, waypoints, flags, draw(st.sampled_from(THRESHOLDS))


def assert_algorithm1_lanes_match(starts, waypoints, flags, threshold):
    """Lane ``i`` of the kernel equals the scalar loop, as an exact integer."""
    batched = adaptive_termination_step_lanes(starts, waypoints, flags, threshold)
    scalars = [
        adaptive_termination_step(starts[i], waypoints[i], flags[i], threshold)
        for i in range(len(starts))
    ]
    assert batched.dtype.kind == "i"
    assert batched.tolist() == scalars


class TestAlgorithm1Lanes:
    @settings(max_examples=100)
    @given(algorithm1_lanes())
    def test_matches_scalar_loop(self, case):
        assert_algorithm1_lanes_match(*case)

    @pytest.mark.parametrize("kind", PATH_KINDS)
    def test_gripper_flag_at_every_index(self, kind):
        rng = np.random.default_rng(3)
        paths = [_path(kind, rng, 9) for _ in range(10)]
        starts = np.stack([start for start, _ in paths])
        waypoints = np.stack([points for _, points in paths])
        flags = np.zeros((10, 9), dtype=bool)
        for lane in range(9):
            flags[lane, lane] = True
        for threshold in THRESHOLDS:
            assert_algorithm1_lanes_match(starts, waypoints, flags, threshold)

    def test_rejects_misaligned_flags(self):
        with pytest.raises(ValueError):
            adaptive_termination_step_lanes(np.zeros((2, 3)), np.zeros((2, 9, 3)),
                                            np.zeros((2, 8), dtype=bool), 0.02)

    def test_every_plan_of_an_adap_evaluation(self, tiny_policies, monkeypatch):
        """Each ADAP plan of a 32-lane ``evaluate_system`` run, recorded at
        the fleet's one kernel call per tick, decides as the scalar loop."""
        import repro.core.fleet as fleet
        from repro.analysis.evaluation import TrainedPolicies, evaluate_system
        from repro.sim import SEEN_LAYOUT

        calls = []

        def recorded(starts, waypoints, flags, threshold):
            calls.append((starts.copy(), waypoints.copy(), flags.copy(), threshold))
            return adaptive_termination_step_lanes(starts, waypoints, flags, threshold)

        monkeypatch.setattr(fleet, "adaptive_termination_step_lanes", recorded)
        baseline, corki, _ = tiny_policies
        policies = TrainedPolicies(baseline, corki, demos_per_task=3, epochs=1)
        evaluate_system(policies, "corki-adap", SEEN_LAYOUT, 32, seed=5, fleet_size=32)
        assert sum(len(starts) for starts, *_ in calls) > 100
        for case in calls:
            assert_algorithm1_lanes_match(*case)


# -- the camera projection -----------------------------------------------------


def render_rows_loop(arrays, lanes, cameras, rngs):
    """``render_rows`` with its projection as the per-lane matvec loop."""
    gained = camera.FEATURE_GAINS * camera.raw_feature_rows(arrays, lanes)
    pixels = np.empty((len(lanes), camera.OBSERVATION_DIM))
    for k in range(len(lanes)):
        pixels[k] = camera._WEIGHTS @ gained[k]
    shifts = np.array([model.domain_shift for model in cameras])
    pixels = np.tanh((pixels + camera._BIAS) + shifts[:, None] * camera._SHIFT)
    for k, (model, rng) in enumerate(zip(cameras, rngs)):
        if model.noise_std > 0.0:
            pixels[k] += rng.normal(0.0, model.noise_std, size=camera.OBSERVATION_DIM)
    return pixels


def random_store(rng, lanes: int) -> SceneArrays:
    """A store whose every camera-read field holds random values of mixed
    magnitude, so the projection's roundings are exercised."""
    arrays = SceneArrays(lanes)
    for name in ("ee_pose", "block_position", "block_yaw", "drawer_opening",
                 "switch_level", "switch_on_threshold", "zone_left", "zone_right",
                 "button_position"):
        field = getattr(arrays, name)
        scale = rng.choice([1e-3, 0.3, 5.0], size=(lanes,) + (1,) * (field.ndim - 1))
        field[...] = rng.normal(0.0, 1.0, field.shape) * scale
    arrays.gripper_open[:] = rng.random(lanes) < 0.5
    arrays.led_on[:] = rng.random(lanes) < 0.5
    return arrays


class TestRenderRows:
    def test_stacked_projection_matches_per_lane_loop(self):
        """The stacked matvec projects every lane as the per-lane loop did,
        byte for byte, at 1-69, 128 and 224 lanes in shuffled lane order."""
        for lanes in [*range(1, 70), 128, 224]:
            for draw in range(3 if lanes < 70 else 20):
                rng = np.random.default_rng([lanes, draw])
                arrays = random_store(rng, lanes)
                selected = rng.permutation(lanes)
                cameras = [
                    CameraModel(noise_std=float(rng.choice([0.0, 0.01])),
                                domain_shift=float(rng.choice([0.0, 0.35])))
                    for _ in range(lanes)
                ]
                seeds = rng.integers(0, 2**31, size=lanes)
                got = camera.render_rows(arrays, selected, cameras,
                                         [np.random.default_rng(s) for s in seeds])
                want = render_rows_loop(arrays, selected, cameras,
                                        [np.random.default_rng(s) for s in seeds])
                assert got.tobytes() == want.tobytes(), (lanes, draw)
