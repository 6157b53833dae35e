"""End-to-end evaluation: train once, roll out every system, aggregate.

This is the driver behind Tbl. 1/2 and Fig. 11-14: it trains the baseline
and Corki policies on seen-layout demonstrations (cached on disk so repeated
experiments and benchmarks do not retrain), rolls out five-task jobs for
every variation on the requested layout, and aggregates success and
trajectory statistics.

A lane is described by one record, :class:`LaneSpec` (system, layout, seed,
global lane index, instructions, frame budget), and every roll goes through
:func:`roll_specs`: each spec becomes one fleet lane with its own
environment and feedback generator (seeded from ``(seed, lane)`` so results
stay paired across systems and deterministic across runs), and the lanes
stream through one continuous fleet with batched policy inference
(:meth:`repro.core.fleet.FleetRunner.run_continuous`): a lane that retires
hands its slot to the next spec on the next tick.  A fleet may mix systems:
:func:`evaluate_all_systems` rolls every system's lanes together.
``fleet_size`` caps how many lanes fly at once, counted across systems, and
``workers`` shards the specs across OS processes
(:mod:`repro.analysis.parallel`) -- both knobs leave every byte of the
result unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analysis.metrics import JobStatistics, TrajectoryMetrics, job_statistics, trajectory_metrics
from repro.atomicio import atomic_save
from repro.core.config import VARIATIONS, CorkiVariation
from repro.core.fleet import DEFAULT_FLEET_SIZE, FleetLane, FleetRunner
from repro.core.policy import BaselinePolicy, CorkiPolicy
from repro.core.runner import MAX_EPISODE_FRAMES, EpisodeTrace
from repro.core.training import TrainingConfig, train_baseline, train_corki
from repro.nn.serialization import load_module, save_module
from repro.pipeline.estimate import PipelineEstimate, estimate_lanes
from repro.sim.camera import OBSERVATION_DIM, RAW_FEATURE_DIM
from repro.sim.dataset import ActionNormalizer, collect_demonstrations, roll_expert_episodes
from repro.sim.env import ManipulationEnv
from repro.sim.tasks import TASK_FAMILIES, TASKS, sample_job, task_by_instruction
from repro.sim.world import SEEN_LAYOUT, SceneLayout

__all__ = [
    "TrainedPolicies",
    "SystemEvaluation",
    "FamilyCell",
    "get_trained_policies",
    "lane_estimates",
    "lane_generators",
    "LaneSpec",
    "build_lane",
    "roll_specs",
    "roll_lane_chunk",
    "evaluate_system",
    "evaluate_all_systems",
    "evaluate_system_families",
    "expert_oracle_families",
    "expert_oracle_outcomes",
]

_CACHE_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "artifacts")

JOB_LENGTH = 5


@dataclass
class TrainedPolicies:
    """The trained baseline and Corki policies plus training metadata."""

    baseline: BaselinePolicy
    corki: CorkiPolicy
    demos_per_task: int
    epochs: int


def _cache_paths(tag: str) -> dict[str, str]:
    root = os.path.abspath(_CACHE_DIR)
    return {
        "baseline": os.path.join(root, f"baseline-{tag}.npz"),
        "corki": os.path.join(root, f"corki-{tag}.npz"),
        "normalizer": os.path.join(root, f"normalizer-{tag}.npy"),
    }


def get_trained_policies(
    demos_per_task: int = 24,
    epochs: int = 12,
    seed: int = 7,
    use_cache: bool = True,
    hidden_dim: int = 96,
    token_dim: int = 48,
) -> TrainedPolicies:
    """Train (or load cached) baseline and Corki policies on the seen layout.

    The cache key encodes every hyper-parameter, so changing any of them
    retrains rather than silently reusing stale weights.
    """
    # repro: allow[RNG-KEYED] reason=training master stream; rekeying would orphan every policy-cache tag
    rng = np.random.default_rng(seed)
    baseline = BaselinePolicy(
        OBSERVATION_DIM, len(TASKS), rng, token_dim=token_dim, hidden_dim=hidden_dim
    )
    corki = CorkiPolicy(
        OBSERVATION_DIM, len(TASKS), rng, token_dim=token_dim, hidden_dim=hidden_dim
    )
    # The registry size shapes the instruction head, and the camera optics
    # (raw descriptor width -> fixed projection -> observation width) shape
    # what every observation *means*, so all three belong in the cache key:
    # growing the task suite or the scene's sensor channels retrains instead
    # of silently loading weights trained under different optics.
    tag = (
        f"d{demos_per_task}-e{epochs}-s{seed}-h{hidden_dim}-t{token_dim}"
        f"-i{len(TASKS)}-r{RAW_FEATURE_DIM}-o{OBSERVATION_DIM}"
    )
    paths = _cache_paths(tag)

    if use_cache and all(os.path.exists(path) for path in paths.values()):
        load_module(baseline, paths["baseline"])
        load_module(corki, paths["corki"])
        scale = np.load(paths["normalizer"])
        baseline.set_normalizer(ActionNormalizer(scale))
        corki.set_normalizer(ActionNormalizer(scale))
        return TrainedPolicies(baseline, corki, demos_per_task, epochs)

    demos = collect_demonstrations(SEEN_LAYOUT, rng, per_task=demos_per_task)
    config = TrainingConfig(epochs=epochs, seed=seed)
    train_baseline(baseline, demos, config)
    train_corki(corki, demos, config)
    if use_cache:
        os.makedirs(os.path.dirname(paths["baseline"]), exist_ok=True)
        save_module(baseline, paths["baseline"])
        save_module(corki, paths["corki"])
        atomic_save(paths["normalizer"], baseline.normalizer.scale)
    return TrainedPolicies(baseline, corki, demos_per_task, epochs)


@dataclass
class SystemEvaluation:
    """Everything one system produced over a batch of jobs."""

    name: str
    job_stats: JobStatistics
    traces: list[EpisodeTrace] = field(repr=False)
    completed_counts: list[int] = field(default_factory=list)
    estimates: list[PipelineEstimate] = field(default_factory=list)
    lane_steps: list[list[int]] = field(default_factory=list, repr=False)

    @property
    def executed_steps(self) -> list[int]:
        """Concatenated executed-steps sequence for the pipeline model."""
        steps: list[int] = []
        for trace in self.traces:
            steps.extend(trace.executed_steps)
        return steps

    @property
    def mean_steps_per_inference(self) -> float:
        steps = self.executed_steps
        return float(np.mean(steps)) if steps else 0.0

    def trajectory_stats(self) -> TrajectoryMetrics:
        executed = [trace.ee_path for trace in self.traces]
        reference = [trace.reference_path for trace in self.traces]
        return trajectory_metrics(executed, reference)


def lane_generators(
    seed: int, lane_index: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """The (env, feedback) generators for one evaluation lane.

    Keyed ``[seed, 1, lane]`` / ``[seed, 2, lane]`` so the two streams of a
    lane are distinct from each other *and* from every stream of every other
    seed.  (The historical ``[seed + 1, lane]`` / ``[seed + 2, lane]`` keying
    made seed ``S``'s feedback streams bit-identical to seed ``S + 1``'s env
    streams, so adjacent evaluation seeds were not independent.)
    """
    return (
        np.random.default_rng([seed, 1, lane_index]),
        np.random.default_rng([seed, 2, lane_index]),
    )


@dataclass(frozen=True, eq=False)
class LaneSpec:
    """One evaluation lane: everything its traces depend on besides the weights.

    ``lane`` is the *global* lane index its :func:`lane_generators` streams
    key on, and ``instructions`` its job, one instruction string per task.
    These are exactly the fields a result-cache key hashes
    (:meth:`repro.serving.cache.ResultCache.lane_key`).  A spec pickles (the
    pool ships specs to its workers), so it carries instruction strings, not
    ``Task`` objects, whose closures cannot pickle; :func:`build_lane`
    resolves them.  ``eq=False``: a :class:`SceneLayout` holds arrays, so a
    generated ``__eq__``/``__hash__`` would raise; nothing compares specs.
    """

    system: str
    layout: SceneLayout
    seed: int
    lane: int
    instructions: tuple[str, ...]
    max_frames: int = MAX_EPISODE_FRAMES


def build_lane(spec: LaneSpec) -> tuple[ManipulationEnv, FleetLane]:
    """The environment and :class:`FleetLane` of one lane spec.

    The one constructor of an evaluation lane: :func:`roll_specs` and the
    serving tier's continuous batching both build lanes here, so a served
    request and the batch lane at the same ``(seed, lane)`` roll from
    identical state.
    """
    variation: CorkiVariation | None = None
    if spec.system != "roboflamingo":
        variation = VARIATIONS[spec.system]
    env_rng, feedback_rng = lane_generators(spec.seed, spec.lane)
    return ManipulationEnv(spec.layout, env_rng), FleetLane(
        tasks=[task_by_instruction(text) for text in spec.instructions],
        variation=variation,
        rng=feedback_rng,
        max_frames=spec.max_frames,
    )


def roll_specs(
    runner: FleetRunner,
    specs: Sequence[LaneSpec],
    fleet_size: int = DEFAULT_FLEET_SIZE,
    expired: Callable[[int], bool] | None = None,
) -> list[list[EpisodeTrace] | None]:
    """Stream lane specs through one continuous fleet; traces in spec order.

    Up to ``fleet_size`` lanes fly at once, counted across systems; a
    retired lane's slot takes the next spec on the next tick, and a lane is
    built only when it takes a slot.  Specs may mix systems, layouts, seeds
    and frame budgets: each lane's randomness comes from
    :func:`lane_generators` at its *global* index and fleet numerics are
    fleet-size invariant, so a lane's bytes depend on neither its
    fleet-mates nor its slot.  Evaluation, the
    :mod:`repro.analysis.parallel` workers and the serving tier's
    in-process drain all roll here.

    ``expired(k)`` is asked before spec ``k`` takes a slot and at every
    inference boundary; a spec it votes off is evicted and gets ``None``.
    The caller owns ``runner``, whose counters count across calls.
    """
    per_lane: list[list[EpisodeTrace] | None] = [None] * len(specs)

    def admissions():
        for index, spec in enumerate(specs):
            if expired is None or not expired(index):
                yield (index, *build_lane(spec))

    runner.run_continuous(admissions(), max(1, fleet_size), per_lane.__setitem__, expired)
    return per_lane


def roll_lane_chunk(
    policies: TrainedPolicies,
    system: str,
    layout: SceneLayout,
    seed: int,
    lane_jobs: list[list],
    lane_start: int = 0,
    fleet_size: int = DEFAULT_FLEET_SIZE,
) -> list[list[EpisodeTrace]]:
    """Roll a block of one system's lanes; one trace list per lane.

    ``lane_jobs[k]`` is the job (task list) of global lane ``lane_start + k``:
    the block's specs, rolled by :func:`roll_specs`.  perfbench is the only
    caller; every other roll builds its :class:`LaneSpec` list and calls
    :func:`roll_specs` itself.  This stays until perfbench does the same.
    """
    return roll_specs(
        FleetRunner(policies.baseline, policies.corki),
        [
            LaneSpec(system, layout, seed, lane_start + offset, _instructions(tasks))
            for offset, tasks in enumerate(lane_jobs)
        ],
        fleet_size,
    )


def _instructions(tasks) -> tuple[str, ...]:
    return tuple(task.instruction for task in tasks)


def _roll(
    policies: TrainedPolicies,
    specs: list[LaneSpec],
    fleet_size: int,
    workers: int,
    cache=None,
    retry=None,
    fault_plan=None,
    chunk_timeout: float | None = None,
) -> list[list[EpisodeTrace]]:
    """Every spec's traces, in spec order: the one roll behind evaluation.

    With a ``cache`` (a :class:`repro.serving.cache.ResultCache`) each spec
    is looked up under its full identity first, only the misses roll, and
    fresh results are stored back, so a repeated evaluation (``tbl1``
    reruns, repeated service requests) is served without re-rolling
    anything.  Misses roll in-process (``workers <= 1``) or sharded across
    a worker pool; either way they keep their global lane indices, so their
    bytes match a cache-less run.  ``retry`` / ``fault_plan`` /
    ``chunk_timeout`` configure the pool path's fault tolerance (see
    :func:`repro.analysis.parallel.run_sharded`); the in-process path has no
    worker processes to crash, so it ignores them -- which is exactly what
    makes a ``workers=1`` run the fault-free reference a recovered sharded
    run must match byte for byte.
    """
    keys = [] if cache is None else [cache.lane_key(policies, spec) for spec in specs]
    per_lane = [None] * len(specs) if cache is None else [cache.get(key) for key in keys]
    misses = [index for index, hit in enumerate(per_lane) if hit is None]
    if misses:
        todo = [specs[index] for index in misses]
        if workers <= 1:
            runner = FleetRunner(policies.baseline, policies.corki)
            rolled = roll_specs(runner, todo, fleet_size)
        else:
            from repro.analysis.parallel import run_sharded

            rolled = run_sharded(
                policies, todo, fleet_size, workers, retry, fault_plan, chunk_timeout
            )
        for index, traces in zip(misses, rolled):
            if cache is not None:
                cache.put(keys[index], traces)
            per_lane[index] = traces
    return per_lane


def evaluate_system(
    policies: TrainedPolicies,
    system: str,
    layout: SceneLayout,
    jobs: int,
    seed: int = 1234,
    fleet_size: int = DEFAULT_FLEET_SIZE,
    workers: int = 1,
    cache=None,
    retry=None,
    fault_plan=None,
    chunk_timeout: float | None = None,
) -> SystemEvaluation:
    """Roll out ``jobs`` five-task jobs for one system on one layout.

    The one-system case of :func:`evaluate_all_systems`.  ``system`` is
    ``"roboflamingo"`` or a Corki variation name.  Jobs run as fleet lanes
    with batched inference, up to ``fleet_size`` at a time, and
    ``workers > 1`` shards the lanes across OS processes.  Every lane's scene
    and feedback randomness is seeded from ``(seed, lane)``, so all systems
    see identical job sequences and scene randomness for a given seed and
    comparisons are paired -- and the result depends on neither
    ``fleet_size`` nor ``workers``.  ``cache`` (a
    :class:`repro.serving.cache.ResultCache`) serves repeated lanes from
    their content-addressed entries instead of re-rolling; cached results
    are byte-identical to fresh ones, so the statistics cannot drift.
    ``retry`` / ``fault_plan`` / ``chunk_timeout`` configure worker-crash
    recovery (and injection, for chaos tests) on the sharded path; a run
    that survives an injected crash still matches the fault-free ``workers=1``
    result byte for byte, because re-rolled chunks keep their global lane
    keying.
    """
    return evaluate_all_systems(
        policies, layout, jobs, seed, systems=[system],
        fleet_size=fleet_size, workers=workers, cache=cache,
        retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout,
    )[system]


def lane_estimates(
    system: str,
    lane_steps: list[list[int]],
    seed: int,
    lane_indices: list[int] | None = None,
) -> list[PipelineEstimate]:
    """Latency/energy estimates for rolled lanes, one batched kernel call.

    ``lane_steps[k]`` is lane ``k``'s concatenated ``executed_steps`` record;
    jitter is keyed ``(seed, global lane index)``, so an estimate depends
    only on the lane's own identity -- the same fleet-size/worker-count
    invariance the rollout itself guarantees.  Lanes that executed nothing
    are skipped.
    """
    if lane_indices is None:
        lane_indices = list(range(len(lane_steps)))
    kept = [(index, steps) for index, steps in zip(lane_indices, lane_steps) if steps]
    if not kept:
        return []
    return estimate_lanes(
        system, [steps for _, steps in kept], seed, [index for index, _ in kept]
    )


def evaluate_all_systems(
    policies: TrainedPolicies,
    layout: SceneLayout,
    jobs: int,
    seed: int = 1234,
    systems: list[str] | None = None,
    fleet_size: int = DEFAULT_FLEET_SIZE,
    workers: int = 1,
    cache=None,
    retry=None,
    fault_plan=None,
    chunk_timeout: float | None = None,
) -> dict[str, SystemEvaluation]:
    """Evaluate the baseline and every Corki variation on one layout.

    Every system rolls the same ``jobs`` jobs, sampled once from ``seed``:
    Tbl. 1's paired comparison.  All systems' lanes roll together, through
    one mixed fleet of ``fleet_size`` slots (``fleet_size`` counts lanes
    across systems), and split back by system; see :func:`evaluate_system` for
    ``workers``, ``cache`` and the fault-tolerance knobs.

    Corki-SW shares Corki-5's episodes (the paper: accuracy is identical
    because only the control substrate differs), so its rollout is reused
    rather than re-rolled.  It gets its *own* trace and count lists -- the
    underlying traces are shared read-only, but a caller mutating one
    system's lists must not silently corrupt the other's.
    """
    names = systems or ["roboflamingo", "corki-1", "corki-3", "corki-5", "corki-7", "corki-9", "corki-adap"]
    # repro: allow[RNG-KEYED] reason=job-sampling master stream, not lane-scoped; lanes key via lane_generators
    job_rng = np.random.default_rng(seed)  # drives job/task sampling only
    lane_jobs = [_instructions(sample_job(job_rng, JOB_LENGTH)) for _ in range(jobs)]
    specs = [
        LaneSpec(name, layout, seed, lane, job)
        for name in names
        for lane, job in enumerate(lane_jobs)
    ]
    per_lane = _roll(
        policies, specs, fleet_size, workers, cache, retry, fault_plan, chunk_timeout
    )
    results = {
        name: _system_evaluation(name, per_lane[offset * jobs : (offset + 1) * jobs], seed)
        for offset, name in enumerate(names)
    }
    if systems is None:
        corki5 = results["corki-5"]
        # Same episodes, different substrate: corki-sw's *estimates* are
        # re-priced under its CPU-control stage model, not copied.
        results["corki-sw"] = SystemEvaluation(
            name="corki-sw",
            job_stats=corki5.job_stats,
            traces=list(corki5.traces),
            completed_counts=list(corki5.completed_counts),
            estimates=lane_estimates("corki-sw", corki5.lane_steps, seed),
            lane_steps=[list(steps) for steps in corki5.lane_steps],
        )
    return results


def _system_evaluation(
    system: str, per_lane: list[list[EpisodeTrace]], seed: int
) -> SystemEvaluation:
    """Aggregate one system's rolled lanes (lane ``k`` is global lane ``k``)."""
    completed = [sum(trace.success for trace in job_traces) for job_traces in per_lane]
    lane_steps = [_executed_steps(job_traces) for job_traces in per_lane]
    return SystemEvaluation(
        name=system,
        job_stats=job_statistics(completed, JOB_LENGTH),
        traces=[trace for job_traces in per_lane for trace in job_traces],
        completed_counts=completed,
        estimates=lane_estimates(system, lane_steps, seed),
        lane_steps=lane_steps,
    )


def _executed_steps(traces: list[EpisodeTrace]) -> list[int]:
    """A lane's concatenated ``executed_steps`` record."""
    return [step for trace in traces for step in trace.executed_steps]


# -- per-family task-suite reporting ------------------------------------------


@dataclass(frozen=True)
class FamilyCell:
    """Success aggregate of one task family (one cell of the family matrix)."""

    family: str
    episodes: int
    successes: int
    failed_instructions: tuple[str, ...] = ()

    @property
    def success_rate(self) -> float:
        return self.successes / self.episodes if self.episodes else 0.0


def _aggregate_families(
    outcomes: list[tuple[str, str, bool]]
) -> dict[str, FamilyCell]:
    """Fold (family, instruction, success) episode outcomes into cells."""
    episodes: dict[str, int] = {family: 0 for family in TASK_FAMILIES}
    successes: dict[str, int] = {family: 0 for family in TASK_FAMILIES}
    failed: dict[str, list[str]] = {family: [] for family in TASK_FAMILIES}
    for family, instruction, success in outcomes:
        episodes[family] += 1
        if success:
            successes[family] += 1
        elif instruction not in failed[family]:
            failed[family].append(instruction)
    return {
        family: FamilyCell(
            family=family,
            episodes=episodes[family],
            successes=successes[family],
            failed_instructions=tuple(failed[family]),
        )
        for family in TASK_FAMILIES
    }


def evaluate_system_families(
    policies: TrainedPolicies,
    system: str,
    layout: SceneLayout,
    episodes_per_task: int = 2,
    seed: int = 4321,
    fleet_size: int = DEFAULT_FLEET_SIZE,
    workers: int = 1,
) -> tuple[dict[str, FamilyCell], list[PipelineEstimate]]:
    """Per-family success matrix row for one system (the Tbl. 2-style view).

    Every registry task runs ``episodes_per_task`` single-task episodes as
    fleet lanes, streamed through ``fleet_size`` slots by :func:`roll_specs`
    (sharded across processes when ``workers > 1``).  Lane seeding
    follows :func:`evaluate_system` -- ``(seed, lane)`` derived generators --
    so the matrix is deterministic, fleet-size invariant and worker-count
    invariant.  Returns the cells and the per-lane latency/energy estimates
    (:func:`lane_estimates`).
    """
    tasks = [task for task in TASKS for _ in range(episodes_per_task)]
    specs = [
        LaneSpec(system, layout, seed, lane, (task.instruction,))
        for lane, task in enumerate(tasks)
    ]
    per_lane = _roll(policies, specs, fleet_size, workers)
    outcomes = [
        (task.family, task.instruction, bool(lane_traces[0].success))
        for task, lane_traces in zip(tasks, per_lane)
    ]
    lane_steps = [_executed_steps(lane_traces) for lane_traces in per_lane]
    return _aggregate_families(outcomes), lane_estimates(system, lane_steps, seed)


def expert_oracle_outcomes(
    layout: SceneLayout, pairs: Sequence[tuple[int, int]], seed: int = 0
) -> list[tuple[str, str, bool]]:
    """Jitter-free scripted-expert episodes, one per ``(index, episode)``.

    Every pair is one lane of one :func:`roll_expert_episodes` fleet,
    seeded ``[seed, 5, index, episode]`` -- keyed on the episode's identity,
    not on any draw order -- so any subset of the oracle sweep (e.g. one
    task's episodes) reproduces exactly the episodes the full sweep would
    run.  Domain tag 5 keeps the oracle family disjoint from the lane
    streams (tags 1/2), the jitter streams (3/4) and the fault-injection
    streams (6-10) for every seed assignment; RNG-PROVENANCE proves it.
    """
    tasks = [TASKS[index] for index, _ in pairs]
    episodes = roll_expert_episodes(
        layout,
        tasks,
        [np.random.default_rng([seed, 5, index, episode]) for index, episode in pairs],
        jitter_std=None,
        camera_noise_std=0.0,
    )
    return [
        (task.family, task.instruction, episode.succeeded)
        for task, episode in zip(tasks, episodes)
    ]


def expert_oracle_families(
    layout: SceneLayout, episodes_per_task: int = 2, seed: int = 0
) -> dict[str, FamilyCell]:
    """Scripted-expert (jitter-free) success per family: the oracle matrix.

    Every registry task must score 1.0 here by construction -- its expert
    keyframes are supposed to achieve its own ``success`` predicate from any
    sampled scene.  A lower rate means a predicate, expert script or scene
    mechanic drifted; the CI task-suite smoke job gates on exactly this.
    The sweep rolls in-process, as lanes of one expert fleet.
    """
    pairs = [
        (index, episode)
        for index in range(len(TASKS))
        for episode in range(episodes_per_task)
    ]
    return _aggregate_families(expert_oracle_outcomes(layout, pairs, seed))
