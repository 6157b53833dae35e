"""End-to-end evaluation: train once, roll out every system, aggregate.

This is the driver behind Tbl. 1/2 and Fig. 11-14: it trains the baseline
and Corki policies on seen-layout demonstrations (cached on disk so repeated
experiments and benchmarks do not retrain), rolls out five-task jobs for
every variation on the requested layout, and aggregates success and
trajectory statistics.

Jobs roll out through :class:`repro.core.fleet.FleetRunner`: each job is
one fleet lane with its own environment and feedback generator (seeded from
``(seed, lane)`` so results stay paired across systems and deterministic
across runs), and lanes advance in lock-step with batched policy inference.
``fleet_size`` caps how many jobs fly at once, and ``workers`` shards the
lanes across OS processes (:mod:`repro.analysis.parallel`) -- both knobs
leave every byte of the result unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

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
from repro.sim.env import TRACKING_100HZ, TRACKING_30HZ, BatchedManipulationEnv, ManipulationEnv
from repro.sim.tasks import TASK_FAMILIES, TASKS, sample_job
from repro.sim.world import SEEN_LAYOUT, SceneLayout

__all__ = [
    "TrainedPolicies",
    "SystemEvaluation",
    "FamilyCell",
    "get_trained_policies",
    "lane_estimates",
    "lane_generators",
    "build_lane",
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


def build_lane(
    system: str,
    layout: SceneLayout,
    seed: int,
    lane: int,
    tasks: list,
    max_frames: int = MAX_EPISODE_FRAMES,
) -> tuple[ManipulationEnv, FleetLane]:
    """The environment and :class:`FleetLane` of global lane ``lane``.

    The one constructor of an evaluation lane: :func:`roll_lane_chunk` and
    the serving tier's continuous batching both build lanes here, so a
    served request and the batch lane at the same ``(seed, lane)`` roll
    from identical state.
    """
    variation: CorkiVariation | None = None
    if system != "roboflamingo":
        variation = VARIATIONS[system]
    env_rng, feedback_rng = lane_generators(seed, lane)
    return ManipulationEnv(layout, env_rng), FleetLane(
        tasks=list(tasks),
        variation=variation,
        rng=feedback_rng,
        actuation=TRACKING_30HZ if variation is None else TRACKING_100HZ,
        max_frames=max_frames,
    )


def roll_lane_chunk(
    policies: TrainedPolicies,
    system: str,
    layout: SceneLayout,
    seed: int,
    lane_jobs: list[list],
    lane_start: int = 0,
    fleet_size: int = DEFAULT_FLEET_SIZE,
    max_frames: int = MAX_EPISODE_FRAMES,
    lane_indices: list[int] | None = None,
) -> list[list[EpisodeTrace]]:
    """Roll a block of evaluation lanes; one trace list per lane.

    ``lane_jobs[k]`` is the job (task list) of global lane ``lane_start + k``
    -- or of lane ``lane_indices[k]`` when explicit (not necessarily
    contiguous) indices are given, which is how the result cache re-rolls
    only the lanes that missed.  Each lane's randomness comes from
    :func:`lane_generators` at its *global* index, so a block's results do
    not depend on how the lane space was split.  This is the unit of work
    both the in-process path and the :mod:`repro.analysis.parallel` worker
    processes execute -- sharded and sequential evaluation run literally the
    same code.
    """
    if lane_indices is not None and len(lane_indices) != len(lane_jobs):
        raise ValueError("lane_indices must map one global index per job")

    envs = []
    lanes = []
    for offset, tasks in enumerate(lane_jobs):
        index = lane_start + offset if lane_indices is None else lane_indices[offset]
        env, lane = build_lane(system, layout, seed, index, tasks, max_frames)
        envs.append(env)
        lanes.append(lane)

    runner = FleetRunner(baseline=policies.baseline, corki=policies.corki)
    per_lane: list[list[EpisodeTrace]] = []
    chunk = max(1, fleet_size)
    for start in range(0, len(lanes), chunk):
        fleet = BatchedManipulationEnv(envs[start : start + chunk])
        per_lane.extend(runner.run(fleet, lanes[start : start + chunk]))
    return per_lane


def _roll_lanes(
    policies: TrainedPolicies,
    system: str,
    layout: SceneLayout,
    seed: int,
    lane_jobs: list[list],
    fleet_size: int,
    workers: int,
    lane_indices: list[int] | None = None,
    retry=None,
    fault_plan=None,
    chunk_timeout: float | None = None,
) -> list[list[EpisodeTrace]]:
    """Dispatch lanes in-process (``workers <= 1``) or across a worker pool.

    ``retry`` / ``fault_plan`` / ``chunk_timeout`` configure the pool path's
    fault tolerance (see :func:`repro.analysis.parallel.run_sharded`); the
    in-process path has no worker processes to crash, so it ignores them --
    which is exactly what makes a ``workers=1`` run the fault-free reference
    a recovered sharded run must match byte for byte.
    """
    if workers <= 1:
        return roll_lane_chunk(
            policies, system, layout, seed, lane_jobs,
            fleet_size=fleet_size, lane_indices=lane_indices,
        )
    from repro.analysis.parallel import run_sharded

    return run_sharded(
        policies, system, layout, seed, lane_jobs,
        fleet_size=fleet_size, workers=workers, lane_indices=lane_indices,
        retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout,
    )


def _roll_lanes_cached(
    policies: TrainedPolicies,
    system: str,
    layout: SceneLayout,
    seed: int,
    lane_jobs: list[list],
    fleet_size: int,
    workers: int,
    cache,
    retry=None,
    fault_plan=None,
    chunk_timeout: float | None = None,
) -> list[list[EpisodeTrace]]:
    """:func:`_roll_lanes` behind a content-addressed result cache.

    Each lane is looked up under its full identity -- policy-weight digest,
    system, layout, seed, *global lane index*, job instructions -- and only
    the misses are rolled (at their original global indices, so their
    :func:`lane_generators` streams, and therefore their bytes, match what a
    cache-less run would produce).  Fresh results are stored back, so a
    repeated evaluation (``tbl1`` reruns, repeated service requests) is
    served without re-rolling anything.
    """
    if cache is None:
        return _roll_lanes(
            policies, system, layout, seed, lane_jobs, fleet_size, workers,
            retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout,
        )
    keys = [
        cache.lane_key(policies, system, layout, seed, index, job)
        for index, job in enumerate(lane_jobs)
    ]
    per_lane: list[list[EpisodeTrace] | None] = [cache.get(key) for key in keys]
    miss_indices = [index for index, hit in enumerate(per_lane) if hit is None]
    if miss_indices:
        rolled = _roll_lanes(
            policies, system, layout, seed,
            [lane_jobs[index] for index in miss_indices],
            fleet_size, workers, lane_indices=miss_indices,
            retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout,
        )
        for index, traces in zip(miss_indices, rolled):
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

    ``system`` is ``"roboflamingo"`` or a Corki variation name.  Jobs run as
    fleet lanes with batched inference, up to ``fleet_size`` at a time, and
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
    # repro: allow[RNG-KEYED] reason=job-sampling master stream, not lane-scoped; lanes key via lane_generators
    job_rng = np.random.default_rng(seed)  # drives job/task sampling only
    lane_jobs = [sample_job(job_rng, JOB_LENGTH) for _ in range(jobs)]
    per_lane = _roll_lanes_cached(
        policies, system, layout, seed, lane_jobs, fleet_size, workers, cache,
        retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout,
    )
    completed = [sum(trace.success for trace in job_traces) for job_traces in per_lane]
    traces = [trace for job_traces in per_lane for trace in job_traces]
    lane_steps = [
        [step for trace in job_traces for step in trace.executed_steps]
        for job_traces in per_lane
    ]
    return SystemEvaluation(
        name=system,
        job_stats=job_statistics(completed, JOB_LENGTH),
        traces=traces,
        completed_counts=completed,
        estimates=lane_estimates(system, lane_steps, seed),
        lane_steps=lane_steps,
    )


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

    Corki-SW shares Corki-5's episodes (the paper: accuracy is identical
    because only the control substrate differs), so its rollout is reused
    rather than re-rolled.  It gets its *own* trace and count lists -- the
    underlying traces are shared read-only, but a caller mutating one
    system's lists must not silently corrupt the other's.  ``cache``
    (see :func:`evaluate_system`) makes reruns of the whole sweep cache
    hits.
    """
    names = systems or ["roboflamingo", "corki-1", "corki-3", "corki-5", "corki-7", "corki-9", "corki-adap"]
    results: dict[str, SystemEvaluation] = {}
    for name in names:
        results[name] = evaluate_system(
            policies, name, layout, jobs, seed,
            fleet_size=fleet_size, workers=workers, cache=cache,
            retry=retry, fault_plan=fault_plan, chunk_timeout=chunk_timeout,
        )
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
    return_estimates: bool = False,
) -> dict[str, FamilyCell] | tuple[dict[str, FamilyCell], list[PipelineEstimate]]:
    """Per-family success matrix row for one system (the Tbl. 2-style view).

    Every registry task runs ``episodes_per_task`` single-task episodes as
    fleet lanes, rolled through :class:`FleetRunner` in ``fleet_size``
    chunks (sharded across processes when ``workers > 1``).  Lane seeding
    follows :func:`evaluate_system` -- ``(seed, lane)`` derived generators --
    so the matrix is deterministic, fleet-size invariant and worker-count
    invariant.  With ``return_estimates`` the per-lane latency/energy
    estimates (:func:`lane_estimates`) ride along as a second return value.
    """
    specs = [task for task in TASKS for _ in range(episodes_per_task)]
    lane_jobs = [[task] for task in specs]
    per_lane = _roll_lanes(policies, system, layout, seed, lane_jobs, fleet_size, workers)
    outcomes = [
        (task.family, task.instruction, bool(lane_traces[0].success))
        for task, lane_traces in zip(specs, per_lane)
    ]
    cells = _aggregate_families(outcomes)
    if not return_estimates:
        return cells
    lane_steps = [
        [step for trace in lane_traces for step in trace.executed_steps]
        for lane_traces in per_lane
    ]
    return cells, lane_estimates(system, lane_steps, seed)


def expert_oracle_outcomes(
    layout: SceneLayout, pairs: Sequence[tuple[int, int]], seed: int = 0
) -> list[tuple[str, str, bool]]:
    """Jitter-free scripted-expert episodes, one per ``(index, episode)``.

    Every pair is one lane of one :func:`roll_expert_episodes` fleet,
    seeded ``[seed, 5, index, episode]`` -- keyed on the episode's identity,
    not on any draw order -- so any subset of the oracle sweep (e.g. one
    worker's shard) reproduces exactly the episodes the full sweep would
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
    layout: SceneLayout,
    episodes_per_task: int = 2,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, FamilyCell]:
    """Scripted-expert (jitter-free) success per family: the oracle matrix.

    Every registry task must score 1.0 here by construction -- its expert
    keyframes are supposed to achieve its own ``success`` predicate from any
    sampled scene.  A lower rate means a predicate, expert script or scene
    mechanic drifted; the CI task-suite smoke job gates on exactly this
    (sharded across ``workers`` processes there, which cannot change the
    matrix: episode seeding is keyed on task index and episode number).
    """
    pairs = [
        (index, episode)
        for index in range(len(TASKS))
        for episode in range(episodes_per_task)
    ]
    if workers <= 1:
        outcomes = expert_oracle_outcomes(layout, pairs, seed)
    else:
        from repro.analysis.parallel import run_oracle_sharded

        outcomes = run_oracle_sharded(layout, pairs, seed, workers)
    return _aggregate_families(outcomes)
