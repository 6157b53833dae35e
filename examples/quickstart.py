"""Quickstart: train a small Corki policy and run one closed-loop episode.

This walks the full public API in about a minute:

1. collect scripted-expert demonstrations in the CALVIN-like environment;
2. train the baseline (per-frame) and Corki (trajectory) policy heads;
3. roll out one episode of each and compare behaviour;
4. roll out a batch of episodes through the fleet engine;
5. compose the system-level latency/energy model for both pipelines.

Run:  PYTHONPATH=src python examples/quickstart.py

Set ``REPRO_EXAMPLE_SCALE=smoke`` to run the same walkthrough at a few
seconds' scale (fewer demos/epochs, smaller heads) -- what
``tests/test_examples.py`` runs so this script cannot rot.
"""

import os
import time

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
from repro.pipeline import simulate_baseline, simulate_corki
from repro.sim import (
    OBSERVATION_DIM,
    SEEN_LAYOUT,
    TASKS,
    ManipulationEnv,
    collect_demonstrations,
)


# The smoke scale trades fidelity for seconds; it exists so the examples
# smoke test exercises every code path here on every tier-1 run.
SMOKE = os.environ.get("REPRO_EXAMPLE_SCALE") == "smoke"
PER_TASK = 1 if SMOKE else 6
EPOCHS = 1 if SMOKE else 3
TOKEN_DIM, HIDDEN_DIM = (16, 32) if SMOKE else (32, 64)
FLEET_N = 4 if SMOKE else 8


def main() -> None:
    rng = np.random.default_rng(0)

    print("collecting demonstrations ...")
    demos = collect_demonstrations(SEEN_LAYOUT, rng, per_task=PER_TASK)
    print(f"  {len(demos)} demonstrations across {len(TASKS)} instructions")

    print("training policies (small configuration) ...")
    baseline = BaselinePolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=TOKEN_DIM, hidden_dim=HIDDEN_DIM)
    corki = CorkiPolicy(OBSERVATION_DIM, len(TASKS), rng, token_dim=TOKEN_DIM, hidden_dim=HIDDEN_DIM)
    config = TrainingConfig(epochs=EPOCHS)
    print(f"  baseline loss: {[round(x, 3) for x in train_baseline(baseline, demos, config)]}")
    print(f"  corki loss:    {[round(x, 3) for x in train_corki(corki, demos, config)]}")

    task = TASKS[0]  # "lift the red block"
    print(f"\nrolling out: {task.instruction!r}")
    # One episode is a one-lane fleet; both lanes see the same scene.
    runner = FleetRunner(baseline, corki)
    envs = [ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(42)) for _ in range(2)]
    lanes = [
        FleetLane(tasks=[task]),
        FleetLane(tasks=[task], variation=VARIATIONS["corki-5"], rng=np.random.default_rng(7)),
    ]
    baseline_trace, corki_trace = (traces[0] for traces in runner.run(envs, lanes))
    print(f"  baseline: success={baseline_trace.success}  "
          f"frames={baseline_trace.frames}  inferences={baseline_trace.inference_count}")
    print(f"  corki-5:  success={corki_trace.success}  "
          f"frames={corki_trace.frames}  inferences={corki_trace.inference_count}")

    fleet_n = FLEET_N
    print(f"\nbatched fleet evaluation ({fleet_n} Corki-5 lanes in lock-step):")
    envs = [ManipulationEnv(SEEN_LAYOUT, np.random.default_rng(42 + i)) for i in range(fleet_n)]
    lanes = [
        FleetLane(
            tasks=[TASKS[i % len(TASKS)]],
            variation=VARIATIONS["corki-5"],
            rng=np.random.default_rng(7 + i),
        )
        for i in range(fleet_n)
    ]
    started = time.perf_counter()
    fleet_traces = runner.run(envs, lanes)
    elapsed = time.perf_counter() - started
    successes = sum(traces[0].success for traces in fleet_traces)
    print(f"  {fleet_n} episodes in {elapsed:.2f}s "
          f"({fleet_n / elapsed:.1f} episodes/s), {successes} succeeded")

    print("\nsystem pipeline model (paper-calibrated constants):")
    base_pipe = simulate_baseline(60)
    corki_pipe = simulate_corki(corki_trace.executed_steps or [5] * 12)
    print(f"  baseline: {base_pipe.mean_latency_ms:6.1f} ms/frame "
          f"({base_pipe.frequency_hz:4.1f} Hz)")
    print(f"  corki-5:  {corki_pipe.mean_latency_ms:6.1f} ms/frame "
          f"({corki_pipe.frequency_hz:4.1f} Hz)  "
          f"speedup {corki_pipe.speedup_vs(base_pipe):.1f}x  "
          f"energy reduction {corki_pipe.energy_reduction_vs(base_pipe):.1f}x")


if __name__ == "__main__":
    main()
