"""eval-sweep and eval-sharded: Tbl 1 rollouts through ``evaluate_system``.

eval-sweep rolls the seven Tbl 1 systems in-process (``workers=1``), one
32-job fleet per call, on the seen layout with no result cache.  The
per-frame systems (roboflamingo, corki-1) spend most of their time in
policy inference, corki-5/7/9 in ``sim`` stepping.  eval-sharded rolls
roboflamingo and corki-5 through the spawned two-worker pool
(``workers=2``), 64 jobs per call so each worker rolls one full 32-lane
fleet; it is the only workload through ``repro.analysis.parallel``.

Both repeat whole rounds (every system once, each call on a fresh seed
derived from the workload seed) until ``--seconds`` have passed, and
report simulated lane-frames over the wall time of the ``evaluate_system``
calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from common import Checks, lane_output_bytes

SWEEP_SYSTEMS = ("roboflamingo", "corki-1", "corki-3", "corki-5", "corki-7", "corki-9", "corki-adap")
SHARDED_SYSTEMS = ("roboflamingo", "corki-5")
FLEET_SIZE = 32
SWEEP_JOBS = 32
SHARDED_JOBS = 64
WORKERS = 2


@dataclass
class Call:
    """One timed ``evaluate_system`` call.

    ``evaluation`` is kept only for the calls the output checks sample (the
    first round), so a run's memory does not grow with how many rounds it
    fits into ``--seconds``.
    """

    system: str
    seed: int
    jobs: int
    seconds: float
    episodes: int
    frames: int
    failed_lanes: int
    evaluation: object | None = None
    error: str | None = None


def call_seed(seed: int, round_index: int, system_index: int) -> int:
    """Every call of a run rolls a distinct, seed-derived job set."""
    return seed * 10_000 + round_index * 100 + system_index


def roll_round(policies, systems, jobs, workers, seed, round_index, keep=False) -> list[Call]:
    """One call per system; only the ``evaluate_system`` call is timed."""
    import repro.analysis.evaluation as evaluation
    from repro.sim.world import SEEN_LAYOUT

    calls = []
    for system_index, system in enumerate(systems):
        call = call_seed(seed, round_index, system_index)
        started = time.perf_counter()
        try:
            result = evaluation.evaluate_system(
                policies, system, SEEN_LAYOUT, jobs, seed=call,
                fleet_size=FLEET_SIZE, workers=workers,
            )
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if result is None:
            calls.append(Call(system, call, jobs, seconds, 0, 0, jobs, error=error))
        else:
            calls.append(Call(
                system, call, jobs, seconds,
                episodes=len(result.traces),
                frames=sum(trace.frames for trace in result.traces),
                failed_lanes=max(0, jobs - len(result.completed_counts)),
                evaluation=result if keep else None,
            ))
    return calls


def roll_for(policies, systems, jobs, workers, seed, seconds, between) -> list[Call]:
    """Whole rounds until ``seconds`` of them have passed, calling
    ``between()`` after each (its time is not counted); the first round's
    results are kept for the output checks."""
    calls: list[Call] = []
    measured = 0.0
    round_index = 0
    while measured < seconds:
        started = time.perf_counter()
        calls.extend(roll_round(
            policies, systems, jobs, workers, seed, round_index, keep=round_index == 0,
        ))
        measured += time.perf_counter() - started
        round_index += 1
        between()
    return calls


def frames_per_s(calls: list[Call]) -> float:
    """Simulated lane-frames per second of ``evaluate_system`` wall time.

    Frames, not episodes, are the unit of work: episode lengths are bimodal
    (an early success takes about 60 frames, a failure the full 150), so
    episodes per second would swing with each seed's success mix.
    """
    return sum(call.frames for call in calls) / sum(call.seconds for call in calls)


# -- correctness ---------------------------------------------------------------


def lane_jobs(seed: int, jobs: int) -> list:
    """The jobs ``evaluate_system(seed=seed)`` samples, drawn the same way."""
    import numpy as np

    from repro.analysis.evaluation import JOB_LENGTH
    from repro.sim.tasks import sample_job

    job_rng = np.random.default_rng(seed)
    return [sample_job(job_rng, JOB_LENGTH) for _ in range(jobs)]


def lane_outputs(evaluation) -> list[bytes]:
    """Per-lane output bytes of a ``SystemEvaluation`` (traces + estimate)."""
    from repro.analysis.evaluation import JOB_LENGTH

    outputs = []
    offset = 0
    for lane, completed in enumerate(evaluation.completed_counts):
        attempted = completed if completed == JOB_LENGTH else completed + 1
        traces = evaluation.traces[offset:offset + attempted]
        offset += attempted
        estimate = evaluation.estimates[lane] if lane < len(evaluation.estimates) else None
        outputs.append(lane_output_bytes(traces, estimate))
    return outputs


def check_against_fleet_of_one(policies, calls: list[Call], seed: int, checks: Checks) -> None:
    """eval-sweep's reference: one seeded lane per system, re-rolled alone.

    A lane's traces must not depend on the fleet it rolled in, so the lane
    re-rolled at fleet size 1 (and its estimate priced alone) must equal the
    sweep's bytes exactly.
    """
    import numpy as np

    from repro.analysis.evaluation import lane_estimates, roll_lane_chunk
    from repro.sim.world import SEEN_LAYOUT

    rng = np.random.default_rng([seed, 78])
    for system in SWEEP_SYSTEMS:
        kept = [call for call in calls if call.system == system and call.evaluation is not None]
        if not kept:
            checks.check(f"{system}: no successful call to sample", False)
            continue
        call = kept[int(rng.integers(len(kept)))]
        lane = int(rng.integers(call.jobs))
        job = lane_jobs(call.seed, call.jobs)[lane]
        [traces] = roll_lane_chunk(
            policies, system, SEEN_LAYOUT, call.seed, [job], lane_start=lane, fleet_size=1,
        )
        steps = [step for trace in traces for step in trace.executed_steps]
        [estimate] = lane_estimates(system, [steps], call.seed, [lane])
        outputs = lane_outputs(call.evaluation)
        output = outputs[lane] if lane < len(outputs) else b""
        checks.compare(f"{system} seed {call.seed} lane {lane}", output, lane_output_bytes(traces, estimate))


def check_against_in_process(policies, calls: list[Call], seed: int, checks: Checks) -> None:
    """eval-sharded's reference: one seeded call re-run with ``workers=1``;
    every lane of it must match the pooled result byte for byte."""
    import numpy as np

    from repro.analysis.evaluation import evaluate_system
    from repro.sim.world import SEEN_LAYOUT

    rng = np.random.default_rng([seed, 78])
    kept = [call for call in calls if call.evaluation is not None] or calls
    call = kept[int(rng.integers(len(kept)))]
    reference = evaluate_system(
        policies, call.system, SEEN_LAYOUT, call.jobs, seed=call.seed,
        fleet_size=FLEET_SIZE, workers=1,
    )
    expected = lane_outputs(reference)
    observed = lane_outputs(call.evaluation) if call.evaluation is not None else []
    for lane, reference_bytes in enumerate(expected):
        output = observed[lane] if lane < len(observed) else b""
        checks.compare(f"{call.system} seed {call.seed} lane {lane}", output, reference_bytes)


def slowest_chunk_seconds(policies, call: Call) -> float:
    """The slowest of a sharded call's chunks, rolled in-process.

    Pool workers cannot be traced from outside, so the parallel layer's
    overhead is the ``run_chunks`` wall time minus this.
    """
    from repro.analysis.evaluation import roll_lane_chunk
    from repro.analysis.parallel import shard_lanes
    from repro.sim.world import SEEN_LAYOUT

    jobs = lane_jobs(call.seed, call.jobs)
    slowest = 0.0
    for start, stop in shard_lanes(call.jobs, WORKERS):
        began = time.perf_counter()
        roll_lane_chunk(
            policies, call.system, SEEN_LAYOUT, call.seed, jobs[start:stop],
            lane_start=start, fleet_size=FLEET_SIZE,
        )
        slowest = max(slowest, time.perf_counter() - began)
    return slowest
