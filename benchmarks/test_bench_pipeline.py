"""Benchmarks regenerating the pipeline-model artifacts (Fig. 2/13/14, Tbl. 3/4)."""

import numpy as np
import pytest

from repro import constants
from repro.pipeline import SystemStages, simulate_baseline, simulate_corki


def test_fleet_traces_drive_pipeline_model(benchmark, tiny_policies):
    """[fig13 path] fleet-measured executed steps feeding the latency model.

    Rolls a small Corki fleet and replays the concatenated per-lane
    ``executed_steps`` through ``simulate_corki`` -- the accuracy-to-pipeline
    coupling the figure-13 experiment drives at full scale.
    """
    from repro.core import VARIATIONS, FleetLane, FleetRunner
    from repro.sim import SEEN_LAYOUT, TASKS, ManipulationEnv

    _, corki, _ = tiny_policies

    def run():
        n = 8
        envs = [ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(i)) for i in range(n)]
        lanes = [
            FleetLane(
                tasks=[TASKS[i % len(TASKS)]], variation=VARIATIONS["corki-5"],
                rng=np.random.default_rng(100 + i), max_frames=20,
            )
            for i in range(n)
        ]
        traces = FleetRunner(corki=corki).run(envs, lanes)
        steps = [step for lane in traces for trace in lane for step in trace.executed_steps]
        return simulate_corki(steps, rng=np.random.default_rng(5))

    pipeline_trace = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(pipeline_trace.frames) > 0


@pytest.mark.parametrize("n", (1, 8, 32, 128))
def test_pipeline_lane_batch(benchmark, n):
    """[fig13 batched] ``simulate_lanes`` throughput across the fleet axis.

    One Corki-5 pipeline trace per lane, every lane on its own keyed jitter
    stream -- the shape ``estimate_lanes`` prices an evaluation's lanes with.
    """
    from repro.pipeline import PipelineLane, lane_jitter_rng, simulate_lanes

    def make_lanes():
        return [
            PipelineLane(f"lane-{i}", executed_steps=(5,) * 12, rng=lane_jitter_rng(7, i))
            for i in range(n)
        ]

    arrays = benchmark.pedantic(
        simulate_lanes, setup=lambda: ((make_lanes(),), {}), rounds=3, iterations=1
    )
    assert len(arrays) == n
    benchmark.extra_info["lanes"] = n


def test_fig2_baseline_breakdown(benchmark):
    """[fig2] 300-frame baseline trace with per-stage breakdown."""
    def run():
        trace = simulate_baseline(300, rng=np.random.default_rng(2))
        return trace.latency_breakdown(), trace.energy_breakdown()

    latency, energy = benchmark(run)
    assert latency["inference"] == pytest.approx(0.727, abs=0.03)
    assert energy["inference"] == pytest.approx(0.958, abs=0.02)


def test_fig13_variation_sweep(benchmark):
    """[fig13] latency/energy for the baseline and all fixed-step variations."""
    def run():
        rng = np.random.default_rng(3)
        baseline = simulate_baseline(90, rng=rng)
        speedups = {}
        for steps in (1, 3, 5, 7, 9):
            trace = simulate_corki([steps] * (90 // steps), rng=rng)
            speedups[steps] = trace.speedup_vs(baseline)
        return speedups

    speedups = benchmark(run)
    assert speedups[9] > speedups[1]


def test_fig14_frame_series(benchmark):
    """[fig14] frame-by-frame trace and long-tail statistics for one sequence."""
    def run():
        rng = np.random.default_rng(14)
        baseline = simulate_baseline(100, rng=rng)
        corki = simulate_corki([5] * 20, rng=rng)
        return baseline.latency_variation, corki.latency_variation, corki.sorted_latencies_ms()

    base_cv, corki_cv, tail = benchmark(run)
    assert corki_cv > base_cv  # the paper's long-tail observation
    assert tail[0] >= tail[-1]


def test_tbl3_server_sweep(benchmark):
    """[tbl3] speedup under V100/H100/Jetson/Xeon inference scaling."""
    def run():
        results = {}
        for name, scale in constants.GPU_INFERENCE_SCALE.items():
            rng = np.random.default_rng(33)
            base = simulate_baseline(60, stages=SystemStages.baseline(scale), rng=rng)
            corki = simulate_corki([5] * 12, stages=SystemStages.corki(scale), rng=rng)
            results[name] = corki.speedup_vs(base)
        return results

    results = benchmark(run)
    assert results["h100"] > results["v100"] > results["jetson-orin"]


def test_tbl4_datarep_sweep(benchmark):
    """[tbl4] speedup under fp32/fp16/int8 inference scaling."""
    def run():
        results = {}
        for name, scale in constants.DATA_REPRESENTATION_SCALE.items():
            rng = np.random.default_rng(44)
            base = simulate_baseline(60, stages=SystemStages.baseline(scale), rng=rng)
            corki = simulate_corki([5] * 12, stages=SystemStages.corki(scale), rng=rng)
            results[name] = corki.speedup_vs(base)
        return results

    results = benchmark(run)
    assert results["int8"] > results["fp32"]
