"""Benchmarks of the policy stack: inference, training steps, episodes.

These ground the algorithm half of the evaluation: the cost of one VLM +
policy-head inference (the unit Corki amortises over a trajectory) and the
closed-loop episode machinery behind Tbl. 1/2 and Fig. 11/12.
"""

import copy

import numpy as np

from repro.core import VARIATIONS, WINDOW_LENGTH, FleetLane, FleetRunner
from repro.sim import OBSERVATION_DIM, SEEN_LAYOUT, TASKS, ManipulationEnv


def test_baseline_policy_inference_batched(benchmark, tiny_policies):
    """32 per-frame predictions from the lanes' token rings in one batched
    pass (the fleet's hot path: runs every 33 ms frame, Fig. 1a)."""
    baseline, _, _ = tiny_policies
    rng = np.random.default_rng(0)
    rings = rng.normal(size=(32, WINDOW_LENGTH, baseline.token_dim))
    deltas, grippers = benchmark(baseline.predict_token_batch, rings)
    assert deltas.shape == (32, 6)
    assert grippers.shape == (32,)


def test_corki_trajectory_inference_batched(benchmark, tiny_policies):
    """32 trajectory predictions in one batched LSTM sweep, as arrays."""
    _, corki, _ = tiny_policies
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(32, WINDOW_LENGTH, corki.token_dim))
    origins = np.zeros((32, 6))
    plans = benchmark(corki.predict_trajectory_batch, windows, origins, 1.0 / 30.0)
    assert plans.coefficients.shape == (32, 6, 4)
    assert plans.gripper_open.shape == (32, corki.horizon)


def test_corki_trajectory_inference(benchmark, tiny_policies):
    """One trajectory prediction (runs once per executed trajectory, Fig. 1b)."""
    _, corki, _ = tiny_policies
    rng = np.random.default_rng(0)
    tokens = rng.normal(size=(WINDOW_LENGTH, corki.token_dim))
    origin = np.zeros(6)
    benchmark(corki.predict_trajectory, tokens, origin, 1.0 / 30.0)


def test_corki_token_encode(benchmark, tiny_policies):
    """One VLM token encode -- the unit of the 181.3 ms inference stage."""
    _, corki, _ = tiny_policies
    rng = np.random.default_rng(0)
    observation = rng.normal(size=OBSERVATION_DIM)
    benchmark(corki.encode_frame_token, observation, 0)


def test_training_step_baseline(benchmark, tiny_policies):
    """One optimiser step of Eq. 3 training on a 32-window batch.

    Trains a copy: ``train_baseline`` refits the weights and the normalizer
    in place, and the session's policy pair is shared.
    """
    from repro.core import TrainingConfig, train_baseline

    baseline, _, demos = tiny_policies
    config = TrainingConfig(epochs=1, batch_size=32)
    subset = demos[:2]
    benchmark(train_baseline, copy.deepcopy(baseline), subset, config)


def test_tbl1_episode_baseline(benchmark, tiny_policies):
    """[tbl1/tbl2] one closed-loop baseline episode (30 Hz control path).

    Runs through the fleet engine as a one-lane fleet -- the same code path
    ``benchmarks/test_bench_fleet.py`` scales to 32 lanes.
    """
    baseline, _, _ = tiny_policies

    def run():
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(1))
        lane = FleetLane(tasks=[TASKS[0]], max_frames=40)
        return FleetRunner(baseline=baseline).run([env], [lane])[0][0]

    trace = benchmark(run)
    assert trace.frames <= 40


def test_tbl1_episode_corki5(benchmark, tiny_policies):
    """[tbl1/tbl2, fig11/fig12] one closed-loop Corki-5 episode (one-lane fleet)."""
    _, corki, _ = tiny_policies

    def run():
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(1))
        lane = FleetLane(
            tasks=[TASKS[0]], variation=VARIATIONS["corki-5"],
            rng=np.random.default_rng(2), max_frames=40,
        )
        return FleetRunner(corki=corki).run([env], [lane])[0][0]

    trace = benchmark(run)
    assert trace.frames <= 40


def test_adaptive_termination_decision(benchmark, tiny_policies):
    """Algorithm 1 at deployment scale (paper: <500 FLOPs)."""
    from repro.core import adaptive_termination_step, gripper_change_flags

    rng = np.random.default_rng(0)
    waypoints = np.cumsum(rng.normal(0.0, 0.005, size=(9, 3)), axis=0)
    flags = gripper_change_flags(np.ones(9, dtype=bool), True)
    benchmark(adaptive_termination_step, np.zeros(3), waypoints, flags, 0.02)


def _adaptive_plans(lanes: int):
    """``lanes`` nine-waypoint plans with no gripper change, so Algorithm 1
    runs every curvature test it reaches."""
    from repro.core import gripper_change_flags

    rng = np.random.default_rng(0)
    waypoints = np.cumsum(rng.normal(0.0, 0.005, size=(lanes, 9, 3)), axis=1)
    flags = gripper_change_flags(np.ones((lanes, 9), dtype=bool), np.ones(lanes, dtype=bool))
    return np.zeros((lanes, 3)), waypoints, flags


def test_adaptive_termination_decision_lanes(benchmark):
    """Algorithm 1 for 32 re-planning lanes in one kernel call (the fleet's
    per-tick call; compare the 32 scalar calls below)."""
    from repro.core import adaptive_termination_step_lanes

    starts, waypoints, flags = _adaptive_plans(32)
    steps = benchmark(adaptive_termination_step_lanes, starts, waypoints, flags, 0.02)
    assert steps.shape == (32,)


def test_adaptive_termination_decision_scalar_x32(benchmark):
    """The same 32 decisions as 32 scalar Algorithm 1 calls."""
    from repro.core import adaptive_termination_step, adaptive_termination_step_lanes

    starts, waypoints, flags = _adaptive_plans(32)

    def decide():
        return [
            adaptive_termination_step(starts[lane], waypoints[lane], flags[lane], 0.02)
            for lane in range(32)
        ]

    steps = benchmark(decide)
    assert steps == adaptive_termination_step_lanes(starts, waypoints, flags, 0.02).tolist()
