"""Span tracing from outside the program: wrap public functions, keep spans.

A traced run patches each public function named in :data:`LAYER_METRICS`
where its caller looks it up (``repro.sim.env.render_rows`` for the physics
kernel's camera call, ``repro.core.fleet.pose_batch`` for the fleet's
trajectory evaluation, class attributes for methods).  Every call records a
span ``[name, start, end, parent, tag]`` in memory; spans are written out
when the run ends.  A span's self time is its duration minus the durations
of its direct children, so the self times of one thread's spans add up to
the time its top-level spans cover, and ``trace.unattributed.s`` is the rest
of the traced wall time.

The garbage collector is timed through ``gc.callbacks``; its pauses happen
inside whichever span was running, so ``py.gc.s`` overlaps the self times
and is not part of the sum.
"""

from __future__ import annotations

import functools
import gc
import json
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from evaluate import SWEEP_SYSTEMS as SYSTEMS

# Per-layer metric names, in BENCHMARK.json order, with their units.  Every
# traced run reports all of them; a layer a workload never enters reads 0.
LAYER_METRICS: dict[str, str] = {
    "policy.encode.s": "s",
    "policy.lstm_heads.s": "s",
    "policy.traj.s": "s",
    "policy.vit.s": "s",
    "policy.calls": "count",
    "policy.rows": "count",
    "sim.step.s": "s",
    "sim.render.s": "s",
    "sim.success.s": "s",
    "sim.env_build.s": "s",
    "sim.lane_frames": "count",
    "trajectory.pose_batch.s": "s",
    "fleet.run.s": "s",
    "fleet.self.s": "s",
    "fleet.ticks": "count",
    "fleet.lanes_per_tick": "count",
    **{f"evaluation.{system}.s": "s" for system in SYSTEMS},
    "evaluation.self.s": "s",
    "pipeline.estimate.s": "s",
    "parallel.archive.s": "s",
    "parallel.spawn.s": "s",
    "parallel.run_chunks.s": "s",
    "parallel.overhead.s": "s",
    "parallel.result_bytes": "bytes",
    "parallel.retries": "count",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.p95": "ms",
    "server.batch_size.mean": "count",
    "server.batches": "count",
    "server.shed": "count",
    "server.residual_ms.p50": "ms",
    "jsonl.parse.s": "s",
    "jsonl.serialize.s": "s",
    "gen.late_ms.p99": "ms",
    "serve.p50_ms.light": "ms",
    "serve.p95_ms.light": "ms",
    "serve.p50_ms.busy": "ms",
    "serve.p95_ms.busy": "ms",
    "serve.max_rps": "1/s",
    "service.serve.s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_frac": "ratio",
    "cache.get.s": "s",
    "cache.put.s": "s",
    "cache.key.s": "s",
    "cache.hit_latency_ms.p50": "ms",
    "training.dataset.s": "s",
    "training.mask.s": "s",
    "training.forward.s": "s",
    "training.backward.s": "s",
    "training.optim.s": "s",
    "training.clip.s": "s",
    "training.loop.s": "s",
    "training.batches": "count",
    "sim.demos.s": "s",
    "py.gc.s": "s",
    "py.gc.collections": "count",
    "trace.unattributed.s": "s",
    "trace.overhead": "ratio",
}

# Span name -> per-layer metric its self time feeds; these add up, with
# trace.unattributed.s, to the traced wall time.
SELF_TIME_METRICS = {
    "policy.encode": "policy.encode.s",
    "policy.lstm_heads": "policy.lstm_heads.s",
    "policy.traj": "policy.traj.s",
    "policy.vit": "policy.vit.s",
    "sim.step": "sim.step.s",
    "sim.render": "sim.render.s",
    "sim.success": "sim.success.s",
    "sim.env_build": "sim.env_build.s",
    "sim.demos": "sim.demos.s",
    "trajectory.pose_batch": "trajectory.pose_batch.s",
    "fleet.run": "fleet.self.s",
    "pipeline.estimate": "pipeline.estimate.s",
    "parallel.archive": "parallel.archive.s",
    "parallel.spawn": "parallel.spawn.s",
    "parallel.run_chunks": "parallel.run_chunks.s",
    "jsonl.parse": "jsonl.parse.s",
    "jsonl.serialize": "jsonl.serialize.s",
    "service.serve": "service.serve.s",
    "cache.get": "cache.get.s",
    "cache.put": "cache.put.s",
    "cache.key": "cache.key.s",
    "training.dataset": "training.dataset.s",
    "training.mask": "training.mask.s",
    "training.forward": "training.forward.s",
    "training.backward": "training.backward.s",
    "training.optim": "training.optim.s",
    "training.clip": "training.clip.s",
    "training.loop": "training.loop.s",
    **{f"evaluation.{system}": "evaluation.self.s" for system in SYSTEMS},
}

# Span name -> per-layer metric its inclusive time feeds (these overlap the
# self times and are not part of their sum).
INCLUSIVE_METRICS = {
    "fleet.run": "fleet.run.s",
    **{f"evaluation.{system}": f"evaluation.{system}.s" for system in SYSTEMS},
}


class Tracer:
    """In-memory span recorder with call counts and a GC timer.

    ``wrap`` replaces ``owner.attr`` with a timing wrapper; ``restore``
    undoes every patch.  Spans nest per thread (the serving tier parses on
    its event-loop thread and drains on an executor thread).  ``parsed``
    and ``batches`` hold the serving tier's per-request boundaries: when a
    frame was parsed, and the (start, end, request ids) of each drained
    batch.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.parsed: dict[int, tuple[object, float]] = {}
        self.batches: list[dict] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._gc_started: float | None = None
        self.gc_seconds = 0.0
        self.gc_collections = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner,
        attr: str,
        name: str | Callable[..., str],
        before: Callable[..., None] | None = None,
        after: Callable[..., None] | None = None,
        tag: Callable[..., object] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``name`` may be a function of the call's arguments (one span name
        per evaluated system).  ``before(*args, **kwargs)`` and
        ``after(result, *args, **kwargs)`` run outside the span's clock, so
        the counts they take cost the span nothing; ``tag(*args, **kwargs)``
        labels the span with a request or lane id.
        """
        original = getattr(owner, attr)
        owned = isinstance(owner, type) and attr in owner.__dict__
        clock = time.perf_counter
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack = stack_of()
            span = [
                name(*args, **kwargs) if callable(name) else name,
                0.0,
                0.0,
                stack[-1] if stack else None,
                tag(*args, **kwargs) if tag is not None else None,
            ]
            stack.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, owned or not isinstance(owner, type)))

    def restore(self) -> None:
        """Undo every patch (inherited methods are removed, not re-set)."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def time_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name (duration minus direct children)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[3] is not None:
                child_time[id(span[3])] += span[2] - span[1]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[0]] += span[2] - span[1] - child_time[id(span)]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Inclusive time per span name, counting only the outermost span of
        each name on a stack (a recursive name is not counted twice)."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            while parent is not None and parent[0] != span[0]:
                parent = parent[3]
            if parent is None:
                totals[span[0]] += span[2] - span[1]
        return dict(totals)

    def summary(self) -> dict:
        """What the per-layer reduction needs: self and inclusive times per
        span name, counts and the garbage collector's time."""
        return {
            "self_times": self.self_times(),
            "total_times": self.total_times(),
            "counts": dict(self.counts),
            "gc_seconds": self.gc_seconds,
            "gc_collections": self.gc_collections,
        }

    def covered_seconds(self) -> float:
        """Time during which a span was open, or a tagged request was in hand:
        the union of every span's interval and of each tag's window from its
        first span's start to its last span's end (a served request from its
        parse to its serialization, including the time it queued)."""
        intervals = [(span[1], span[2]) for span in self.spans]
        windows: dict[object, tuple[float, float]] = {}
        for span in self.spans:
            if span[4] is not None:
                begin, end = windows.get(span[4], (span[1], span[2]))
                windows[span[4]] = (min(begin, span[1]), max(end, span[2]))
        covered, reach = 0.0, float("-inf")
        for begin, end in sorted(intervals + list(windows.values())):
            if end > reach:
                covered += end - max(begin, reach)
                reach = end
        return covered

    def dump(self, path: Path) -> None:
        """Write the spans (one JSON object per line) when the run ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for position, span in enumerate(self.spans):
                parent = span[3]
                handle.write(json.dumps({
                    "i": position,
                    "name": span[0],
                    "start": span[1],
                    "end": span[2],
                    "parent": None if parent is None else index.get(id(parent)),
                    "tag": span[4],
                }) + "\n")


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap every public function the per-layer table names."""
    import repro.analysis.evaluation as evaluation
    import repro.analysis.parallel as parallel
    import repro.core.fleet as fleet
    import repro.core.training as training
    import repro.serving.server as server
    import repro.serving.service as service
    import repro.sim.dataset as dataset
    import repro.sim.env as env
    from repro.core.policy import BaselinePolicy, CorkiPolicy
    from repro.nn.layers import Module
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.serving.cache import ResultCache

    counts = tracer.counts

    def policy_call(result, policy, batch, *args, **kwargs):
        counts["policy.calls"] += 1
        counts["policy.rows"] += len(batch)

    for cls in (BaselinePolicy, CorkiPolicy):
        tracer.wrap(cls, "encode_frame_token_batch", "policy.encode", after=policy_call)
    tracer.wrap(BaselinePolicy, "predict_token_batch", "policy.lstm_heads", after=policy_call)
    tracer.wrap(CorkiPolicy, "predict_trajectory_batch", "policy.traj", after=policy_call)
    tracer.wrap(CorkiPolicy, "encode_feedback_token_batch", "policy.vit", after=policy_call)

    def stepped(result, batched_env, targets, *args, **kwargs):
        counts["sim.lane_frames"] += len(targets)
        counts["fleet.ticks"] += 1

    tracer.wrap(env.BatchedManipulationEnv, "step_many", "sim.step", after=stepped)
    tracer.wrap(env, "step_lanes", "sim.step")
    tracer.wrap(env, "render_rows", "sim.render")
    tracer.wrap(env.BatchedManipulationEnv, "succeeded_mask", "sim.success")
    for method in ("__init__", "reset", "continue_with"):
        tracer.wrap(env.ManipulationEnv, method, "sim.env_build")
    tracer.wrap(dataset, "collect_demonstrations", "sim.demos")

    tracer.wrap(fleet, "pose_batch", "trajectory.pose_batch")
    tracer.wrap(fleet.FleetRunner, "run", "fleet.run")
    tracer.wrap(fleet.FleetRunner, "run_continuous", "fleet.run")

    tracer.wrap(
        evaluation, "evaluate_system",
        lambda policies, system, *args, **kwargs: f"evaluation.{system}",
    )
    tracer.wrap(evaluation, "estimate_lanes", "pipeline.estimate")
    tracer.wrap(service, "estimate_from_steps", "pipeline.estimate")

    def chunk_results(result, pool, *args, **kwargs):
        counts["parallel.result_bytes"] += len(pickle.dumps(result))
        counts["parallel.retries"] = max(counts["parallel.retries"], pool.health.retries)

    tracer.wrap(parallel, "archive_policies", "parallel.archive")
    tracer.wrap(parallel, "lease_pool", "parallel.spawn")
    tracer.wrap(parallel.EvaluationPool, "__init__", "parallel.spawn")
    tracer.wrap(parallel.EvaluationPool, "warm_up", "parallel.spawn")
    tracer.wrap(
        parallel.EvaluationPool, "run_chunks_reliably", "parallel.run_chunks",
        after=chunk_results,
    )

    def parsed(request, obj):
        tracer.parsed[id(request)] = (obj.get("id"), time.perf_counter())

    def batch_started(service_self, requests):
        tracer.batches.append({
            "start": time.perf_counter(),
            "ids": [tracer.parsed.pop(id(request), (None, None)) for request in requests],
        })

    def batch_ended(result, service_self, requests):
        tracer.batches[-1]["end"] = time.perf_counter()

    tracer.wrap(server, "request_from_json", "jsonl.parse", after=parsed,
                tag=lambda obj: obj.get("id"))
    tracer.wrap(server, "response_to_json", "jsonl.serialize",
                tag=lambda result, request_id=None: request_id)
    tracer.wrap(service.EvaluationService, "serve", "service.serve",
                before=batch_started, after=batch_ended)

    tracer.wrap(ResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put")
    tracer.wrap(ResultCache, "lane_key", "cache.key")

    tracer.wrap(training, "build_baseline_dataset", "training.dataset")
    tracer.wrap(training, "build_corki_dataset", "training.dataset")
    tracer.wrap(training, "deployment_slot_pattern", "training.mask")
    tracer.wrap(training, "clip_gradients", "training.clip")
    tracer.wrap(training, "train_baseline", "training.loop")
    tracer.wrap(training, "train_corki", "training.loop")
    tracer.wrap(Module, "__call__", "training.forward")
    tracer.wrap(Tensor, "backward", "training.backward")

    def optimised(result, *args, **kwargs):
        counts["training.batches"] += 1

    tracer.wrap(Adam, "step", "training.optim", after=optimised)
    tracer.time_gc()
