#!/usr/bin/env python3
"""perfbench: the repository's benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Workloads (see ``BENCHMARK.json`` for why each exists): ``eval-sweep``,
``eval-sharded``, ``serve-open`` and ``train``.  Every input is generated
from ``--seed``; every timing is of a call into the program's public API,
taken from outside; a seeded sample of outputs is compared byte for byte
with the program's reference path off the clock.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run (public functions
wrapped, spans kept in memory and written to ``.perfbench/`` at the end).
Human-readable detail goes to the lines before it.  A checkout without the
program's sources exits with code 2, and so does a workload that loads the
quick-profile policies when they are not cached (the benchmark never trains
them).  Before it exits, on every path, the run waits for every process it
started, grandchildren included, to end.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import prepare_environment  # noqa: E402

prepare_environment()  # before anything loads numpy's BLAS

from common import (  # noqa: E402
    Checks,
    Outcome,
    SetupError,
    adopt_orphans,
    child_pids,
    load_policies,
    median,
    process_peak_rss_mb,
    python_command,
    reap_children,
    require_checkout,
    result_line,
    say,
    self_peak_rss_mb,
    time_cold_start,
)

COLD_STARTS = 7
"""Timed cold starts per run; ``setup_s`` is their median."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "correct_frac": "ratio",
    "ok_frac": "ratio",
}


def end_to_end(checks: Checks, attempted: int, failed: int, **metrics: float) -> Outcome:
    metrics["correct_frac"] = checks.fraction
    metrics["ok_frac"] = (attempted - failed) / attempted if attempted else 0.0
    return Outcome(checks, attempted, failed, metrics)


class ColdStarts:
    """``setup_s`` samples of one workload.

    One untimed start comes first (page cache, ``.pyc`` files).  The timed
    starts follow one after each round of timed work, so that they sample
    the host across the run instead of in one burst, and are topped up to
    :data:`COLD_STARTS` at the end.
    """

    def __init__(self, kind: str, seed: int):
        self.argv = python_command("coldstart.py", kind, str(seed))
        time_cold_start(self.argv)
        self.times: list[float] = []

    def between_rounds(self) -> None:
        if len(self.times) < COLD_STARTS:
            self.times.append(time_cold_start(self.argv))

    def setup_s(self) -> float:
        while len(self.times) < COLD_STARTS:
            self.between_rounds()
        say(f"setup_s samples: {' '.join(f'{t:.3f}' for t in self.times)}")
        return median(self.times)


# -- eval-sweep / eval-sharded -------------------------------------------------


def run_eval_sweep(seed: int, seconds: float) -> Outcome:
    import evaluate

    cold = ColdStarts("eval", seed)
    policies = load_policies()
    calls = evaluate.roll_for(
        policies, evaluate.SWEEP_SYSTEMS, evaluate.SWEEP_JOBS, 1, seed, seconds, cold.between_rounds,
    )
    report_calls(calls)
    checks = Checks()
    evaluate.check_against_fleet_of_one(policies, calls, seed, checks)
    return end_to_end(
        checks,
        attempted=sum(call.jobs for call in calls),
        failed=sum(call.failed_lanes for call in calls),
        setup_s=cold.setup_s(),
        throughput_per_s=evaluate.frames_per_s(calls),
        peak_rss_mb=self_peak_rss_mb(),
    )


def run_eval_sharded(seed: int, seconds: float) -> Outcome:
    import evaluate

    from repro.analysis.parallel import lease_pool, release_pool

    cold = ColdStarts("sharded", seed)
    policies = load_policies()
    lease_pool(policies, evaluate.WORKERS).warm_up()
    try:
        # One small untimed roll per worker so the timed calls start warm.
        evaluate.roll_round(policies, evaluate.SHARDED_SYSTEMS[:1], evaluate.WORKERS,
                            evaluate.WORKERS, seed, round_index=99)
        calls = evaluate.roll_for(
            policies, evaluate.SHARDED_SYSTEMS, evaluate.SHARDED_JOBS, evaluate.WORKERS,
            seed, seconds, cold.between_rounds,
        )
        rss = self_peak_rss_mb() + sum(process_peak_rss_mb(pid) for pid in child_pids())
    finally:
        release_pool(policies, evaluate.WORKERS)
    report_calls(calls)
    checks = Checks()
    evaluate.check_against_in_process(policies, calls, seed, checks)
    return end_to_end(
        checks,
        attempted=sum(call.jobs for call in calls),
        failed=sum(call.failed_lanes for call in calls),
        setup_s=cold.setup_s(),
        throughput_per_s=evaluate.frames_per_s(calls),
        peak_rss_mb=rss,
    )


def report_calls(calls) -> None:
    for call in calls:
        note = f"  ERROR {call.error}" if call.error else ""
        say(f"  {call.system:<13} seed {call.seed:<9} {call.seconds:7.3f} s "
            f"{call.episodes:4d} episodes {call.frames:6d} frames "
            f"{call.frames / call.seconds:8.1f} frames/s{note}")
    seconds = sum(call.seconds for call in calls)
    say(f"episodes/s {sum(call.episodes for call in calls) / seconds:.2f}, "
        f"frames/s {sum(call.frames for call in calls) / seconds:.1f}")


# -- train -----------------------------------------------------------------------


def run_train(seed: int, seconds: float) -> Outcome:
    import train

    cold = ColdStarts("train", seed)
    demos = train.collect_demos(seed)
    rounds = train.train_for(demos, seed, seconds, cold.between_rounds)
    for index, trained in enumerate(rounds):
        say(f"  round {index}: {trained.seconds:.3f} s, {trained.samples} samples, "
            f"{trained.samples / trained.seconds:.1f}/s")
    checks = Checks()
    train.check_round(demos, rounds[0], seed, 0, checks)
    return end_to_end(
        checks,
        attempted=sum(len(r.losses) for r in rounds),
        failed=train.non_finite_losses(rounds),
        setup_s=cold.setup_s(),
        throughput_per_s=train.samples_per_s(rounds),
        peak_rss_mb=self_peak_rss_mb(),
    )


# -- serve-open ------------------------------------------------------------------


def run_serve_open(seed: int, seconds: float) -> Outcome:
    import serve_open
    from serve_open import check_served, serve_phase, server_argv

    from repro.sim.tasks import TASKS

    policies = load_policies()  # a policy-cache miss fails here, before any server starts
    instructions = [task.instruction for task in TASKS]
    serve_open.start_server(server_argv()).stop()  # untimed warm start
    setups: list[float] = []
    rss: list[float] = []
    phases: list[tuple[list, object]] = []
    answered = busy_s = 0.0
    while busy_s < seconds:
        requests = serve_open.build_schedule(
            seed, serve_open.SATURATE_PHASE + len(phases), serve_open.SATURATE_RPS,
            serve_open.SATURATE_REQUESTS, instructions,
        )
        result, setup_s, peak = serve_phase(server_argv(), requests, serve_open.SATURATE_RPS, instructions)
        setups.append(setup_s)
        rss.append(peak)
        phases.append((requests, result))
        serve_open.require_valid(f"overload {serve_open.SATURATE_RPS:.0f}/s", requests, result)
        count, span = serve_open.busy_span(requests, result)
        say(f"    {count} answered in {span:.3f} s: {count / span:.2f} requests/s")
        answered += count
        busy_s += span
    while len(setups) < COLD_STARTS:
        server = serve_open.start_server(server_argv())
        server.stop()
        setups.append(server.setup_s)
    say(f"setup_s samples: {' '.join(f'{t:.3f}' for t in setups)}")
    checks = Checks()
    check_served(policies, phases, seed, checks)
    return end_to_end(
        checks,
        attempted=sum(len(requests) for requests, _ in phases),
        failed=sum(result.failures(requests) for requests, result in phases),
        setup_s=median(setups),
        throughput_per_s=answered / busy_s,
        peak_rss_mb=max(rss),
    )


WORKLOADS = {
    "eval-sweep": run_eval_sweep,
    "eval-sharded": run_eval_sharded,
    "serve-open": run_serve_open,
    "train": run_train,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run the benchmark's own checks")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        require_checkout()
        if args.self_test:
            import selftest

            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        started = time.perf_counter()
        if args.trace:
            import traced

            outcome = traced.run(args.workload, args.seed, args.seconds)
            units = traced.units()
        else:
            outcome = WORKLOADS[args.workload](args.seed, args.seconds)
            units = END_TO_END_UNITS
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    checks = outcome.checks
    if checks.mismatches:
        say(f"mismatched outputs: {', '.join(checks.mismatches)}")
    say(f"correct {checks.passed}/{checks.total}, failed {outcome.failed}/{outcome.attempted}, "
        f"run took {time.perf_counter() - started:.1f} s")
    metrics = {name: (outcome.metrics[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        say(f"  {name:<28} {value:14.6g} {unit}")
    print(result_line(
        checks.passed == checks.total and checks.total > 0,
        outcome.attempted, outcome.failed, metrics,
    ), flush=True)
    return 0


if __name__ == "__main__":
    adopt_orphans()
    try:
        code = main()
    finally:
        reap_children()
    raise SystemExit(code)
