"""One differential test across the entry points that roll evaluation lanes.

The determinism contract: a lane's traces and estimate depend only on its
:class:`~repro.analysis.evaluation.LaneSpec` (system, layout, seed, global
lane index, instructions, frame budget) and the weights -- not on the fleet
it shares, its position there, the worker that rolls it or the cache that
serves it.  The reference rolls every spec of a fixed set alone, in a fleet
of one, with the quick-profile policies cached in ``artifacts/`` (lanes
with them succeed and chain into their next task, which the reference
asserts); each entry point must reproduce every lane it rolls byte for
byte:

* ``evaluate_all_systems`` (all seven systems' lanes as mixed fleets) at
  fleet sizes 1, 7 and 128 and ``workers`` 1 and 2, with a cache cold and
  then warm;
* ``run_sharded`` over the whole set at ``workers=2``, its chunks mixing
  systems, seeds, layouts and frame budgets;
* ``run_sharded`` again with every chunk's first attempt crashing in its
  worker, so each chunk rolls on its retry;
* ``EvaluationService`` at ``workers`` 1 and 2, cold and then warm, with
  every request in one drain, so its fleet (in-process) or its pool chunks
  (pooled) mix systems; and in-process at 3 slots, with 90- and 150-frame
  lanes interleaved, so lanes retire out of admission order and their slots
  are refilled throughout the drain.

A last row expires one request mid-roll on a fake clock: it answers
``timeout`` and every other lane still matches.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import repro.analysis.evaluation as evaluation
from repro.analysis.evaluation import (
    JOB_LENGTH,
    LaneSpec,
    TrainedPolicies,
    evaluate_all_systems,
    get_trained_policies,
    lane_estimates,
    roll_specs,
)
from repro.analysis.parallel import _cached_pool, run_sharded, shutdown_pools
from repro.core.fleet import DEFAULT_FLEET_SIZE, FleetRunner
from repro.reliability import FaultPlan, RetryPolicy
from repro.serving.cache import ResultCache, encode_traces
from repro.serving.service import EpisodeRequest, EvaluationService
from repro.sim.tasks import sample_job
from repro.sim.world import SEEN_LAYOUT, UNSEEN_LAYOUT

SYSTEMS = ("roboflamingo", "corki-1", "corki-3", "corki-5", "corki-7", "corki-9", "corki-adap")
# One evaluate_all_systems call per (seed, layout): three seeds, both layouts.
SWEEPS = ((3, SEEN_LAYOUT), (4, UNSEEN_LAYOUT), (5, SEEN_LAYOUT))
JOBS = 2
SHORT_FRAMES = 90
# Single tasks the quick-profile baseline mostly completes on the seen layout.
BASELINE_TASKS = (
    "open the drawer", "close the drawer", "turn the switch on",
    "turn the switch off", "turn on the lightbulb", "turn off the lightbulb",
)


def sweep_specs(seed, layout) -> list[LaneSpec]:
    """The specs ``evaluate_all_systems(layout, JOBS, seed)`` rolls, in its
    system-major order: every system on the same jobs."""
    job_rng = np.random.default_rng(seed)
    jobs = [
        tuple(task.instruction for task in sample_job(job_rng, JOB_LENGTH))
        for _ in range(JOBS)
    ]
    return [
        LaneSpec(system, layout, seed, lane, job)
        for system in SYSTEMS
        for lane, job in enumerate(jobs)
    ]


SWEEP_SPECS = [spec for seed, layout in SWEEPS for spec in sweep_specs(seed, layout)]
# The fixed set: every sweep lane at the full 150-frame budget, the
# unseen-layout sweep's lanes again at 90 frames, and one single-task
# baseline lane per BASELINE_TASKS entry on each seen-layout sweep's seed.
SPECS = SWEEP_SPECS + [
    dataclasses.replace(spec, max_frames=SHORT_FRAMES)
    for spec in sweep_specs(*SWEEPS[1])
] + [
    LaneSpec("roboflamingo", layout, seed, JOBS + offset, (instruction,))
    for seed, layout in SWEEPS
    if layout is SEEN_LAYOUT
    for offset, instruction in enumerate(BASELINE_TASKS)
]
# SPECS with every 90-frame spec following a 150-frame one: rolled through a
# few slots, lanes then retire out of admission order.
SHORT = [index for index, spec in enumerate(SPECS) if spec.max_frames == SHORT_FRAMES]
LONG = [index for index, spec in enumerate(SPECS) if spec.max_frames != SHORT_FRAMES]
INTERLEAVED = [index for pair in zip(LONG, SHORT) for index in pair] + LONG[len(SHORT):]


def lane_output(traces, estimate) -> bytes:
    """One lane's traces (the result cache's encoding) and its estimate."""
    estimate_json = json.dumps(None if estimate is None else estimate.to_json(), sort_keys=True)
    return encode_traces(traces) + estimate_json.encode()


def priced(spec: LaneSpec, traces) -> bytes:
    """``lane_output`` with the estimate priced from the traces alone."""
    steps = [step for trace in traces for step in trace.executed_steps]
    [estimate] = lane_estimates(spec.system, [steps], spec.seed, [spec.lane])
    return lane_output(traces, estimate)


@pytest.fixture(scope="module")
def trained() -> TrainedPolicies:
    """The quick-profile pair, loaded from ``artifacts/``; a cache miss
    fails here instead of training for minutes."""

    def refuse(*args, **kwargs):
        raise AssertionError("the quick-profile policies are not cached in artifacts/")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "collect_demonstrations", refuse)
        return get_trained_policies(
            demos_per_task=24, epochs=12, seed=7, hidden_dim=96, token_dim=48
        )


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def rolled_alone(trained) -> list[list]:
    """Every spec's traces, rolled alone, in a fleet of one."""
    return [
        roll_specs(FleetRunner(trained.baseline, trained.corki), [spec], 1)[0]
        for spec in SPECS
    ]


@pytest.fixture(scope="module")
def reference(rolled_alone) -> list[bytes]:
    return [priced(spec, traces) for spec, traces in zip(SPECS, rolled_alone, strict=True)]


def outcomes(rolled) -> dict[str, int]:
    """Episodes, successes per policy kind and lanes that chained."""
    counts = {"episodes": 0, "baseline successes": 0, "corki successes": 0, "chained lanes": 0}
    for spec, traces in zip(SPECS, rolled, strict=True):
        kind = "baseline" if spec.system == "roboflamingo" else "corki"
        counts["episodes"] += len(traces)
        counts[f"{kind} successes"] += sum(trace.success for trace in traces)
        counts["chained lanes"] += len(traces) >= 2
    return counts


# What the reference lanes do with the committed quick-profile weights.
REFERENCE_OUTCOMES = {
    "episodes": 77, "baseline successes": 10, "corki successes": 9, "chained lanes": 9,
}


def test_the_reference_succeeds_and_chains(rolled_alone):
    """A matrix whose lanes all fail compares only failure paths: the
    reference must hold baseline and Corki successes, and a lane that
    chains into its second task."""
    counts = outcomes(rolled_alone)
    assert counts["baseline successes"] >= 1, counts
    assert counts["corki successes"] >= 1, counts
    assert counts["chained lanes"] >= 1, counts


def test_the_reference_outcomes_are_the_committed_weights(rolled_alone):
    """Every other test here compares entry points with one another, so a
    change that moves all of them alike (a policy kind's control rate, say)
    passes them all; the reference's outcome counts pin what the committed
    weights do."""
    assert outcomes(rolled_alone) == REFERENCE_OUTCOMES


def split_lanes(evaluation) -> list[tuple[list, object]]:
    """A ``SystemEvaluation``'s ``(traces, estimate)`` per lane: a job stops
    at its first failed task, so lane ``k`` holds ``completed[k]`` traces,
    plus the failed one unless all ``JOB_LENGTH`` succeeded."""
    lanes = []
    offset = 0
    for lane, completed in enumerate(evaluation.completed_counts):
        attempted = completed if completed == JOB_LENGTH else completed + 1
        lanes.append((evaluation.traces[offset : offset + attempted], evaluation.estimates[lane]))
        offset += attempted
    assert offset == len(evaluation.traces)
    return lanes


def sweep(trained, fleet_size, workers) -> dict[int, bytes]:
    """``evaluate_all_systems`` over every sweep, cold then warm; the warm
    pass must be served from the cache alone and equal the cold one."""
    cache = ResultCache()
    passes = []
    for _ in ("cold", "warm"):
        outputs: dict[int, bytes] = {}
        for seed, layout in SWEEPS:
            results = evaluate_all_systems(
                trained, layout, JOBS, seed,
                fleet_size=fleet_size, workers=workers, cache=cache,
            )
            for system in SYSTEMS:
                for traces, estimate in split_lanes(results[system]):
                    index = len(outputs)  # results read in SWEEP_SPECS order
                    spec = SPECS[index]
                    assert (spec.system, spec.seed) == (system, seed) and spec.layout is layout
                    outputs[index] = lane_output(traces, estimate)
        passes.append(outputs)
    assert cache.misses == len(SWEEP_SPECS)
    assert cache.hits == len(SWEEP_SPECS)
    cold, warm = passes
    assert warm == cold
    return cold


def sharded(trained, fault_plan=None, retry=None) -> dict[int, bytes]:
    rolled = run_sharded(trained, SPECS, 7, 2, retry, fault_plan)
    return {index: priced(spec, traces) for index, (spec, traces) in enumerate(zip(SPECS, rolled))}


def sharded_through_crashes(trained) -> dict[int, bytes]:
    """``sharded`` with every chunk's first attempt crashing in its worker."""
    health = _cached_pool(trained, 2).health
    before = health.retries
    outputs = sharded(
        trained, FaultPlan(seed=13, crash_rate=1.0), RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    assert health.retries - before >= 1
    return outputs


def request(spec: LaneSpec, **scheduling) -> EpisodeRequest:
    return EpisodeRequest(
        system=spec.system,
        instructions=spec.instructions,
        seed=spec.seed,
        lane=spec.lane,
        layout=spec.layout.name,
        max_frames=spec.max_frames,
        **scheduling,
    )


def served(trained, workers, slots=DEFAULT_FLEET_SIZE, order=None) -> dict[int, bytes]:
    """Every spec as one request, all in one drain, submitted in ``order``
    (default: spec order); then the same drain again, which the service's
    cache must answer alone."""
    order = range(len(SPECS)) if order is None else order
    requests = [request(SPECS[index]) for index in order]
    with EvaluationService(trained, workers=workers, slots=slots) as service:
        cold = service.serve(requests)
        warm = service.serve(requests)
    assert all(result.ok and not result.cached for result in cold)
    assert all(result.ok and result.cached for result in warm)
    outputs = {}
    for index, first, again in zip(order, cold, warm, strict=True):
        outputs[index] = lane_output(first.traces, first.estimate)
        assert lane_output(again.traces, again.estimate) == outputs[index]
    return outputs


ENTRY_POINTS = {
    **{
        f"sweep-fleet{fleet_size}-workers{workers}": (
            lambda trained, fleet_size=fleet_size, workers=workers: sweep(trained, fleet_size, workers)
        )
        for fleet_size in (1, 7, 128)
        for workers in (1, 2)
    },
    "run_sharded-workers2": sharded,
    "run_sharded-workers2-crashes": sharded_through_crashes,
    "service-workers1": lambda trained: served(trained, 1),
    "service-workers1-slots3": lambda trained: served(trained, 1, 3, INTERLEAVED),
    "service-workers2": lambda trained: served(trained, 2),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_every_lane_matches_its_lane_rolled_alone(trained, reference, entry):
    outputs = ENTRY_POINTS[entry](trained)
    expected = SWEEP_SPECS if entry.startswith("sweep") else SPECS
    assert sorted(outputs) == list(range(len(expected)))
    for index, output in outputs.items():
        spec = SPECS[index]
        assert output == reference[index], (
            f"{entry}: {spec.system} seed {spec.seed} {spec.layout.name} lane {spec.lane} "
            f"({spec.max_frames} frames) differs from the lane rolled alone"
        )


def test_a_request_expiring_mid_roll_leaves_every_other_lane_unchanged(trained, reference):
    """Three slots serve every spec in one drain on a clock that advances one
    millisecond per fleet tick.  The chosen request goes first and expires
    20 ticks into its roll: it answers ``timeout``, its slot is refilled,
    and every other lane matches its lane rolled alone."""
    chosen = 10
    service = EvaluationService(
        trained, slots=3, clock=lambda: service.stats()["fleet_ticks"] / 1000.0
    )
    with service:
        results = service.serve([
            request(spec, deadline_ms=20, priority=1) if index == chosen else request(spec)
            for index, spec in enumerate(SPECS)
        ])
        stats = service.stats()
    assert results[chosen].status == "timeout"
    assert stats["fleet_admissions"] == len(SPECS), "the chosen lane never took a slot"
    assert stats["timeouts"] == 1
    for index, result in enumerate(results):
        if index != chosen:
            spec = SPECS[index]
            assert lane_output(result.traces, result.estimate) == reference[index], (
                f"{spec.system} seed {spec.seed} lane {spec.lane} differs beside an eviction"
            )
