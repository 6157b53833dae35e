"""Long-horizon evaluation: a five-task CALVIN-style job.

Chains five tasks in one persistent scene, as the paper's average-job-length
metric requires, and reports per-task outcomes for the baseline and Corki-5
along with the inference cost each incurred.

Run:  python examples/long_horizon_job.py

``REPRO_EXAMPLE_SCALE=smoke`` runs the same walkthrough in a few seconds
(fewer demos/epochs, small heads) for the examples smoke test.
"""

import os

import numpy as np

from repro.core import (
    VARIATIONS,
    BaselinePolicy,
    CorkiPolicy,
    FleetLane,
    FleetRunner,
    TrainingConfig,
    train_baseline,
    train_corki,
)
from repro.sim import (
    OBSERVATION_DIM,
    SEEN_LAYOUT,
    TASKS,
    ManipulationEnv,
    collect_demonstrations,
    sample_job,
)


SMOKE = os.environ.get("REPRO_EXAMPLE_SCALE") == "smoke"


def main() -> None:
    rng = np.random.default_rng(0)
    print("training policies ...")
    demos = collect_demonstrations(SEEN_LAYOUT, rng, per_task=1 if SMOKE else 6)
    dims = {"token_dim": 16, "hidden_dim": 32} if SMOKE else {}
    baseline = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, **dims)
    corki = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, **dims)
    config = TrainingConfig(epochs=1 if SMOKE else 3)
    train_baseline(baseline, demos, config)
    train_corki(corki, demos, config)

    job = sample_job(np.random.default_rng(99))
    print("\njob:", " -> ".join(task.instruction for task in job))

    # A job is one lane: each success chains the next task onto the same
    # scene, and the lane stops at the first failure.
    runner = FleetRunner(baseline, corki)
    for system in ("roboflamingo", "corki-5"):
        env = ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(1))
        if system == "roboflamingo":
            lane = FleetLane(tasks=job)
        else:
            lane = FleetLane(
                tasks=job, variation=VARIATIONS["corki-5"], rng=np.random.default_rng(2)
            )
        (traces,) = runner.run([env], [lane])
        completed = sum(trace.success for trace in traces)
        inferences = sum(trace.inference_count for trace in traces)
        frames = sum(trace.frames for trace in traces)
        print(f"\n{system}: completed {completed}/5 tasks "
              f"({frames} frames, {inferences} VLM inferences)")
        for task, trace in zip(job, traces):
            mark = "ok " if trace.success else "FAIL"
            print(f"  [{mark}] {task.instruction:38s} {trace.frames:3d} frames")


if __name__ == "__main__":
    main()
