"""Golden-trace regression tests for the figure experiments (13, 14, 15).

The fixtures under ``tests/data/`` freeze the **scalar-reference** outputs
of each figure's workload -- every float serialised with ``float.hex()`` so
the comparison is exact down to the last bit, not "close enough".  Two
things are pinned per figure:

* the scalar path still produces the frozen bytes (the keyed jitter streams
  and the frozen reference executors have not drifted), and
* the lane-batched path reproduces the same bytes byte-for-byte.

Fig. 15's scalar path is :func:`scalar_threshold_sweep`, a reference these
tests own: the program sweeps thresholds through the lane kernels only.

Regenerate after an *intentional* modelling change with::

    PYTHONPATH=src python tests/test_golden_figures.py
"""

import json
from pathlib import Path

import numpy as np

from repro.accelerator import CorkiAccelerator
from repro.analysis.calibration import (
    ThresholdPoint,
    sample_trajectory,
    threshold_sweep,
    track_trajectory,
)
from repro.experiments.fig13_latency_energy import system_lanes
from repro.experiments.fig14_frame_analysis import frame_lanes
from repro.pipeline import simulate_baseline, simulate_corki, simulate_lanes
from repro.robot import panda

DATA_DIR = Path(__file__).parent / "data"

# Frozen stand-in for Corki-ADAP's measured execution lengths: the golden
# workload must not depend on policy training, only on the pipeline model.
ADAP_STEPS = [5, 3, 7, 5, 4, 6, 5, 5, 9, 1, 2, 5]
FIG13_FRAMES = 60
FIG15_KWARGS = dict(thresholds=[0.0, 0.4], trajectories=1)


def hex_list(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values, dtype=float)]


def unhex(values) -> np.ndarray:
    return np.array([float.fromhex(v) for v in values])


def scalar_trace(lane):
    if lane.frames is not None:
        return simulate_baseline(lane.frames, stages=lane.stages, rng=lane.rng, name=lane.name)
    return simulate_corki(
        list(lane.executed_steps), stages=lane.stages, rng=lane.rng, name=lane.name
    )


def scalar_figure(lanes) -> dict:
    golden = {}
    for lane in lanes:
        trace = scalar_trace(lane)
        golden[lane.name] = {
            "latencies_ms": hex_list(trace.latencies_ms()),
            "energies_j": hex_list(trace.energies_j()),
        }
    return golden


def scalar_threshold_sweep(
    thresholds: list[float],
    trajectories: int,
    seed: int = 3,
    control_hz: float = 100.0,
    physics_hz: float = 500.0,
) -> list[ThresholdPoint]:
    """:func:`threshold_sweep` as a scalar loop: one :func:`track_trajectory`
    per sampled trajectory and threshold."""
    model = panda()
    rng = np.random.default_rng(seed)
    samples = [sample_trajectory(model, rng) for _ in range(trajectories)]
    points = []
    reference_cycles: float | None = None
    for threshold in thresholds:
        cycle_counts: list[int] = []
        errors = []
        skip_rates = []
        for trajectory in samples:
            accelerator = CorkiAccelerator(model, threshold=threshold)
            report = track_trajectory(
                model, trajectory, control_hz=control_hz, physics_hz=physics_hz,
                accelerator=accelerator,
            )
            cycle_counts.extend(accelerator.cycle_log)
            errors.append(report.rmse_m)
            skip_rates.append(accelerator.skip_rate)
        mean_cycles = float(np.mean(cycle_counts))
        if reference_cycles is None:
            reference_cycles = mean_cycles
        points.append(
            ThresholdPoint(
                threshold=threshold,
                speedup=reference_cycles / mean_cycles,
                trajectory_error_cm=float(np.mean(errors)) * 100.0,
                skip_rate=float(np.mean(skip_rates)),
            )
        )
    return points


def compute_goldens() -> dict[str, dict]:
    fig15 = scalar_threshold_sweep(**FIG15_KWARGS)
    return {
        "fig13": scalar_figure(system_lanes(FIG13_FRAMES, ADAP_STEPS)),
        "fig14": scalar_figure(frame_lanes(ADAP_STEPS)),
        "fig15": {
            "points": [
                {
                    "threshold": point.threshold.hex(),
                    "speedup": point.speedup.hex(),
                    "trajectory_error_cm": point.trajectory_error_cm.hex(),
                    "skip_rate": point.skip_rate.hex(),
                }
                for point in fig15
            ]
        },
    }


def load_golden(name: str) -> dict:
    with open(DATA_DIR / f"golden_{name}.json") as handle:
        return json.load(handle)


def assert_matches_golden(golden: dict, traces: dict) -> None:
    assert set(traces) == set(golden)
    for name, expected in golden.items():
        assert (traces[name].latencies_ms() == unhex(expected["latencies_ms"])).all(), name
        assert (traces[name].energies_j() == unhex(expected["energies_j"])).all(), name


class TestFig13Golden:
    def test_scalar_path_matches_golden(self):
        golden = load_golden("fig13")
        traces = {lane.name: scalar_trace(lane) for lane in system_lanes(FIG13_FRAMES, ADAP_STEPS)}
        assert_matches_golden(golden, traces)

    def test_batched_path_matches_golden(self):
        golden = load_golden("fig13")
        views = simulate_lanes(system_lanes(FIG13_FRAMES, ADAP_STEPS))
        assert_matches_golden(golden, {view.name: view for view in views})


class TestFig14Golden:
    def test_scalar_path_matches_golden(self):
        golden = load_golden("fig14")
        traces = {lane.name: scalar_trace(lane) for lane in frame_lanes(ADAP_STEPS)}
        assert_matches_golden(golden, traces)

    def test_batched_path_matches_golden(self):
        golden = load_golden("fig14")
        views = simulate_lanes(frame_lanes(ADAP_STEPS))
        assert_matches_golden(golden, {view.name: view for view in views})


class TestFig15Golden:
    def assert_points_match(self, points):
        golden = load_golden("fig15")["points"]
        assert len(points) == len(golden)
        for point, expected in zip(points, golden):
            for field, frozen in expected.items():
                assert getattr(point, field) == float.fromhex(frozen), field

    def test_scalar_sweep_matches_golden(self):
        self.assert_points_match(scalar_threshold_sweep(**FIG15_KWARGS))

    def test_batched_sweep_matches_golden(self):
        self.assert_points_match(threshold_sweep(**FIG15_KWARGS))


if __name__ == "__main__":
    DATA_DIR.mkdir(exist_ok=True)
    for name, golden in compute_goldens().items():
        path = DATA_DIR / f"golden_{name}.json"
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {path}")
