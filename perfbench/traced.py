"""Traced runs (``--trace 1``): per-layer self times and counts.

Each traced run does one fixed unit of its workload's work twice on the
same inputs, first untraced and then with the public functions wrapped
(:func:`tracer.install_program_wrappers`), so ``trace.overhead`` -- traced
over untraced wall time, minus one -- is measured in the run itself, and
the two passes' outputs must be byte-identical (tracing is invisible).
Set-up work a layer owns (the pool's archive and spawn, demonstration
collection) is traced too.  Self times plus ``trace.unattributed.s`` add up
to the traced wall time -- for serve-open, the time its servers had a span
open or a request in hand, from parse to serialization -- and a run whose
self times exceed that time is invalid.  Spans are written to
``.perfbench/`` at the end.
"""

from __future__ import annotations

import json
import time

from common import OUT_DIR, Checks, Outcome, SetupError, load_policies, percentile
from tracer import INCLUSIVE_METRICS, LAYER_METRICS, SELF_TIME_METRICS, Tracer, install_program_wrappers

LIGHT_RPS = 10.0
BUSY_RPS = 25.0
"""serve-open's fixed rates: about 20% and 50% of the capacity this
benchmark was calibrated on (a server that sustains ~50 requests/s)."""


def units() -> dict[str, str]:
    return dict(LAYER_METRICS)


def run(workload: str, seed: int, seconds: float) -> Outcome:
    runner = {
        "eval-sweep": _eval_sweep,
        "eval-sharded": _eval_sharded,
        "serve-open": _serve_open,
        "train": _train,
    }[workload]
    checks = Checks()
    tracer = Tracer()
    attempted, failed, metrics = runner(tracer, seed, seconds, checks)
    if tracer.spans:  # serve-open's spans live in its servers' dumps
        tracer.dump(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")
    return Outcome(checks, attempted, failed, metrics)


def _layer_metrics(self_times, total_times, counts, gc_seconds, gc_collections) -> dict[str, float]:
    """One tracer's self times, inclusive times, counts and GC time, by metric."""
    metrics = {name: 0.0 for name in LAYER_METRICS}
    for span, seconds in self_times.items():
        metrics[SELF_TIME_METRICS[span]] += seconds
    for span, seconds in total_times.items():
        if span in INCLUSIVE_METRICS:
            metrics[INCLUSIVE_METRICS[span]] += seconds
    for name, value in counts.items():
        metrics[name] += value
    metrics["py.gc.s"] = gc_seconds
    metrics["py.gc.collections"] = gc_collections
    return metrics


def _whole(metrics: dict[str, float], wall_s: float, overhead: float) -> dict[str, float]:
    """Add the ratios and the unattributed rest of ``wall_s``.

    The self times of spans on one thread cannot exceed the time they
    cover; a negative rest means spans overlapped across threads beyond
    the idle time in ``wall_s``, and the breakdown would not add up.
    """
    ticks = metrics["fleet.ticks"]
    metrics["fleet.lanes_per_tick"] = metrics["sim.lane_frames"] / ticks if ticks else 0.0
    attributed = sum(metrics[name] for name in set(SELF_TIME_METRICS.values()))
    metrics["trace.unattributed.s"] = wall_s - attributed
    if metrics["trace.unattributed.s"] < 0:
        raise SetupError(f"invalid traced run: self times {attributed:.6f} s exceed "
                         f"the traced wall time {wall_s:.6f} s")
    metrics["trace.overhead"] = overhead
    return metrics


def _timed(function, *args):
    started = time.perf_counter()
    result = function(*args)
    return result, time.perf_counter() - started


def _traced(tracer: Tracer, function, *args):
    """``function(*args)`` with the program's public functions wrapped."""
    install_program_wrappers(tracer)
    try:
        return _timed(function, *args)
    finally:
        tracer.restore()


def _same_outputs(label: str, untraced, traced, checks: Checks) -> None:
    for index, (before, after) in enumerate(zip(untraced, traced)):
        checks.compare(f"{label} {index}: traced equals untraced", after, before)


# -- eval ------------------------------------------------------------------------


def _call_outputs(calls) -> list[bytes]:
    from evaluate import lane_outputs

    return [b"".join(lane_outputs(call.evaluation)) if call.evaluation else b"" for call in calls]


def _eval_sweep(tracer, seed, seconds, checks):
    import evaluate

    policies = load_policies()
    roll = evaluate.roll_round
    roll(policies, evaluate.SWEEP_SYSTEMS, 2, 1, seed, 99)  # warm-up, untimed
    args = (policies, evaluate.SWEEP_SYSTEMS, evaluate.SWEEP_JOBS, 1, seed, 0, True)
    untraced, plain_s = _timed(roll, *args)
    traced, traced_s = _traced(tracer, roll, *args)
    _same_outputs("eval-sweep call", _call_outputs(untraced), _call_outputs(traced), checks)
    evaluate.check_against_fleet_of_one(policies, traced, seed, checks)
    metrics = _whole(_layer_metrics(**tracer.summary()), traced_s, traced_s / plain_s - 1.0)
    return _lanes(traced), _failed_lanes(traced), metrics


def _eval_sharded(tracer, seed, seconds, checks):
    import evaluate

    from repro.analysis.parallel import lease_pool, release_pool

    policies = load_policies()
    pool, setup_s = _traced(tracer, lambda: lease_pool(policies, evaluate.WORKERS).warm_up())
    try:
        evaluate.roll_round(policies, evaluate.SHARDED_SYSTEMS[:1], evaluate.WORKERS,
                            evaluate.WORKERS, seed, 99)
        args = (policies, evaluate.SHARDED_SYSTEMS, evaluate.SHARDED_JOBS, evaluate.WORKERS,
                seed, 0, True)
        untraced, plain_s = _timed(evaluate.roll_round, *args)
        traced, traced_s = _traced(tracer, evaluate.roll_round, *args)
    finally:
        release_pool(policies, evaluate.WORKERS)
    _same_outputs("eval-sharded call", _call_outputs(untraced), _call_outputs(traced), checks)
    evaluate.check_against_in_process(policies, traced, seed, checks)
    metrics = _whole(_layer_metrics(**tracer.summary()), setup_s + traced_s, traced_s / plain_s - 1.0)
    # Set-up dispatches no chunks, so these are the traced calls' spans.
    chunk_walls = [span[2] - span[1] for span in tracer.spans if span[0] == "parallel.run_chunks"]
    metrics["parallel.overhead.s"] = sum(
        wall - evaluate.slowest_chunk_seconds(policies, call)
        for wall, call in zip(chunk_walls, traced)
    )
    return _lanes(traced), _failed_lanes(traced), metrics


def _lanes(calls) -> int:
    return sum(call.jobs for call in calls)


def _failed_lanes(calls) -> int:
    return sum(call.failed_lanes for call in calls)


# -- train -----------------------------------------------------------------------


def _train(tracer, seed, seconds, checks):
    import numpy as np

    import train

    demos, demos_s = _traced(tracer, train.collect_demos, seed)
    untraced, plain_s = _timed(train.train_round, demos, seed, 0)
    traced, traced_s = _traced(tracer, train.train_round, demos, seed, 0)
    checks.compare(
        "train losses: traced equals untraced",
        np.array(traced.losses).tobytes(), np.array(untraced.losses).tobytes(),
    )
    train.check_round(demos, traced, seed, 0, checks)
    metrics = _whole(
        _layer_metrics(**tracer.summary()), demos_s + traced_s, traced.seconds / untraced.seconds - 1.0,
    )
    return len(traced.losses), train.non_finite_losses([traced]), metrics


# -- serve-open ------------------------------------------------------------------


def _serve_open(tracer, seed, seconds, checks):
    import serve_open
    from serve_open import check_served, say_phase, serve_phase, server_argv

    from repro.sim.tasks import TASKS

    policies = load_policies()  # a policy-cache miss fails here, before any server starts
    instructions = [task.instruction for task in TASKS]
    schedules = {
        label: serve_open.build_schedule(
            seed, phase, rate, serve_open.rate_point_requests(rate, seconds), instructions,
        )
        for phase, (label, rate) in enumerate((("light", LIGHT_RPS), ("busy", BUSY_RPS)), start=1)
    }
    rates = {"light": LIGHT_RPS, "busy": BUSY_RPS}
    serve_open.start_server(server_argv()).stop()  # untimed warm start
    plain, traced, summaries = {}, {}, []
    for label, requests in schedules.items():
        # Each rate runs untraced and then traced, back to back, so the
        # overhead compares runs minutes apart at most.
        plain[label], _, _ = serve_phase(server_argv(), requests, rates[label], instructions)
        say_phase(f"{label} untraced", serve_open.summarize(requests, plain[label]))
        path = OUT_DIR / f"serve-open-seed{seed}-{label}.trace.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        traced[label], _, _ = serve_phase(server_argv(path), requests, rates[label], instructions)
        say_phase(f"{label} traced", serve_open.summarize(requests, traced[label]))
        summaries.append((requests, traced[label], json.loads(path.read_text())))

    phases = [(schedules[label], result) for label, result in list(plain.items()) + list(traced.items())]
    for requests, result in phases:
        if not result.valid():
            raise SetupError(f"invalid run: generator lateness p99 {result.late_p99():.1f} ms")
    # max_rps, on untraced servers like the fixed-rate latencies above: it
    # moves with each schedule's bursts too much to gate as an end-to-end
    # metric, so it is reported here, beside the layers that set it.
    ladder, rungs = serve_open.climb_ladder(seed, seconds, instructions)
    phases += rungs
    for label, requests in schedules.items():
        _same_outputs(
            f"serve-open {label}",
            [_strip(plain[label].responses.get(r.id)) for r in requests],
            [_strip(traced[label].responses.get(r.id)) for r in requests],
            checks,
        )
    check_served(policies, phases, seed, checks)

    per_server = [_layer_metrics(**summary["layers"]) for _, _, summary in summaries]
    metrics = {name: sum(layers[name] for layers in per_server) for name in LAYER_METRICS}
    queue_ms, residual_ms, batch_sizes = [], [], []
    stats = {"batches": 0, "shed": 0, "hits": 0, "misses": 0}
    for requests, result, summary in summaries:
        waits, residuals, sizes = _server_boundaries(requests, result, summary["batches"])
        queue_ms += waits
        residual_ms += residuals
        batch_sizes += sizes
        for key in stats:
            stats[key] += result.stats.get(key, 0)
        metrics["gen.late_ms.p99"] = max(metrics["gen.late_ms.p99"], result.late_p99())
    metrics["server.queue_wait_ms.p50"] = percentile(queue_ms, 50)
    metrics["server.queue_wait_ms.p95"] = percentile(queue_ms, 95)
    metrics["server.residual_ms.p50"] = percentile(residual_ms, 50)
    metrics["server.batch_size.mean"] = sum(batch_sizes) / len(batch_sizes)
    metrics["server.batches"] = stats["batches"]
    metrics["server.shed"] = stats["shed"]
    metrics["cache.hits"] = stats["hits"]
    metrics["cache.misses"] = stats["misses"]
    metrics["cache.hit_frac"] = stats["hits"] / max(1, stats["hits"] + stats["misses"])

    hit_latencies = []
    for label, requests in schedules.items():
        latencies = plain[label].latencies(requests)
        metrics[f"serve.p50_ms.{label}"] = percentile(latencies, 50)
        metrics[f"serve.p95_ms.{label}"] = percentile(latencies, 95)
        hit_latencies += [
            plain[label].latency_ms[r.id] for r in requests
            if plain[label].responses.get(r.id, {}).get("cached")
        ]
    metrics["cache.hit_latency_ms.p50"] = percentile(hit_latencies, 50)
    metrics["serve.max_rps"] = ladder.max_rps()
    overhead = sum(
        sum(traced[label].latencies(requests)) for label, requests in schedules.items()
    ) / sum(
        sum(plain[label].latencies(requests)) for label, requests in schedules.items()
    ) - 1.0
    attempted = sum(len(requests) for requests, _ in phases)
    failed = sum(result.failures(requests) for requests, result in phases)
    wall_s = sum(summary["wall_s"] for _, _, summary in summaries)
    return attempted, failed, _whole(metrics, wall_s, overhead)


def _strip(response: dict | None) -> bytes:
    if response is None:
        return b""
    return json.dumps({k: v for k, v in response.items() if k != "cached"}).encode()


def _server_boundaries(requests, result, batches):
    """Queue waits (parse to batch start), residual latency (due-time
    latency minus queue wait minus the batch's drain) and batch sizes, all
    from the server's own clock."""
    phase_ids = {request.id for request in requests}
    waits, residuals, sizes = [], [], []
    for batch in batches:
        sizes.append(len(batch["ids"]))
        drain_ms = (batch["end"] - batch["start"]) * 1000.0
        for request_id, parsed_at in batch["ids"]:
            if parsed_at is None or request_id not in phase_ids:
                continue  # a warm-up request or an unparsed frame
            wait_ms = (batch["start"] - parsed_at) * 1000.0
            waits.append(wait_ms)
            if request_id in result.latency_ms:
                residuals.append(result.latency_ms[request_id] - wait_ms - drain_ms)
    return waits, residuals, sizes

