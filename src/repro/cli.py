"""Command-line front-end: regenerate any of the paper's tables and figures.

Usage::

    repro-experiments all            # every experiment, in paper order
    repro-experiments tbl1 fig13     # a subset
    repro-experiments --list
    repro-experiments --fleet-size 64 tbl1   # wider evaluation fleets
    repro-experiments --workers 4 tbl1       # shard fleets across 4 processes
    repro-experiments bench                  # fleet + serving throughput measurement
    repro-experiments bench --json artifacts/BENCH_fleet.json
    repro-experiments suite                  # expert-oracle task-suite health gate
    repro-experiments suite --episodes 1 --layout seen --workers 2
    repro-experiments serve --workers 2      # JSONL service; takes repro-serve's flags
    repro-experiments lint                   # determinism-contract static analysis
    repro-experiments --result-cache tbl1    # rerun served from the result cache
    REPRO_PROFILE=full repro-experiments tbl1
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.experiments import EXPERIMENTS, get_profile

_ORDER = [
    "fig2", "fig9", "tbl1", "tbl2", "families", "fig11", "fig12", "fig13",
    "fig14", "fig15", "tbl3", "tbl4", "resources", "ablation", "ablation-algo",
    "power",
]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["serve"]:
        from repro.serving.__main__ import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the DaDu-Corki paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (see --list); 'all' runs everything",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids and exit")
    parser.add_argument(
        "--profile", choices=("quick", "full"), default=None,
        help="evaluation scale (default: REPRO_PROFILE env var or 'quick')",
    )
    parser.add_argument(
        "--save", action="store_true",
        help="also write each report to artifacts/<id>-<profile>.txt",
    )
    parser.add_argument(
        "--fleet-size", type=int, default=None, metavar="N",
        help="jobs rolled out in lock-step per evaluation fleet "
             "(default: the profile's fleet_size; 1 disables batching)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard each evaluation's fleet lanes across N OS processes; "
             "results are byte-identical to --workers 1 (default: the "
             "profile's workers; for 'bench', measures the sharded axis at "
             "exactly N workers)",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="('bench' only) also write the measurement as a machine-readable "
             "JSON artifact (the BENCH_fleet.json schema the CI gate reads)",
    )
    parser.add_argument(
        "--result-cache", action="store_true",
        help="serve repeated evaluation lanes from a content-addressed result "
             "cache persisted under artifacts/result-cache; cached lanes are "
             "byte-identical to fresh rolls, so reports are unchanged -- "
             "reruns just skip the rolling",
    )
    parser.add_argument(
        "--result-cache-dir", default=None, metavar="DIR",
        help="like --result-cache, but persist the cache under DIR",
    )
    parser.add_argument(
        "--episodes", type=int, default=2, metavar="N",
        help="('suite' only) expert-oracle episodes per registry task",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="('lint' only) also run the whole-program passes (LANE-SHAPE, "
             "RNG-PROVENANCE, LAYER-SAFE, SPAWN-SAFE)",
    )
    parser.add_argument(
        "--layout", choices=("seen", "unseen", "both"), default="both",
        help="('suite' only) which layout(s) the oracle sweep covers",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:", ", ".join(_ORDER), "(plus: bench, suite, serve, lint)")
        return 0

    if args.workers is not None and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2

    if "serve" in args.experiments:
        print(
            "'serve' runs alone and comes first: repro-experiments serve "
            "[repro-serve flags]",
            file=sys.stderr,
        )
        return 2

    if "lint" in args.experiments:
        if len(args.experiments) > 1:
            print(
                "'lint' runs alone; invoke other experiments in a separate call",
                file=sys.stderr,
            )
            return 2
        return _run_lint(deep=args.deep)

    if "bench" in args.experiments:
        if len(args.experiments) > 1:
            print(
                "'bench' runs alone; invoke other experiments in a separate call",
                file=sys.stderr,
            )
            return 2
        return _run_bench(args.json, args.workers)

    if "suite" in args.experiments:
        if len(args.experiments) > 1:
            print(
                "'suite' runs alone; invoke other experiments in a separate call",
                file=sys.stderr,
            )
            return 2
        suite_workers = (
            args.workers
            if args.workers is not None
            else get_profile(args.profile).workers
        )
        return _run_suite(args.episodes, args.layout, suite_workers)

    requested = _ORDER if args.experiments == ["all"] else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print("available:", ", ".join(_ORDER), file=sys.stderr)
        return 2

    profile = get_profile(args.profile)
    if args.fleet_size is not None:
        if args.fleet_size < 1:
            print("--fleet-size must be >= 1", file=sys.stderr)
            return 2
        profile = dataclasses.replace(profile, fleet_size=args.fleet_size)
    if args.workers is not None:
        profile = dataclasses.replace(profile, workers=args.workers)
    cache_dir = args.result_cache_dir or (
        "artifacts/result-cache" if args.result_cache else None
    )
    if cache_dir is not None:
        profile = dataclasses.replace(profile, result_cache_dir=cache_dir)
    for name in requested:
        started = time.perf_counter()
        print(f"=== {name} (profile: {profile.name}) ===")
        report = EXPERIMENTS[name](profile)
        print(report)
        if args.save:
            from repro.analysis.export import save_report

            path = save_report(name, report, profile.name)
            print(f"[saved {path}]")
        print(f"--- {name} done in {time.perf_counter() - started:.1f}s ---\n")
    return 0


def _run_suite(episodes: int, layout_choice: str, workers: int = 1) -> int:
    """Expert-oracle task-suite health gate (the CI smoke job's entry point).

    Rolls the jitter-free scripted expert over every registry task and fails
    (exit 1) if any family's success rate drops below 1.0 -- the cheap,
    training-free way to catch a predicate, expert script or scene mechanic
    drifting apart.  ``workers > 1`` shards the sweep across processes (CI
    runs it that way so the sharded path is exercised on every push);
    episode seeding is keyed on (task, episode), so the matrix is identical
    for any worker count.
    """
    from repro.analysis.evaluation import expert_oracle_families
    from repro.analysis.reporting import format_table
    from repro.sim.tasks import TASK_FAMILIES, TASKS, tasks_by_family
    from repro.sim.world import SEEN_LAYOUT, UNSEEN_LAYOUT

    if episodes < 1:
        print("--episodes must be >= 1", file=sys.stderr)
        return 2
    layouts = {
        "seen": [SEEN_LAYOUT],
        "unseen": [UNSEEN_LAYOUT],
        "both": [SEEN_LAYOUT, UNSEEN_LAYOUT],
    }[layout_choice]

    started = time.perf_counter()
    print("=== suite (expert-oracle task-suite gate) ===")
    failures: list[str] = []
    for layout in layouts:
        cells = expert_oracle_families(
            layout, episodes_per_task=episodes, workers=workers
        )
        rows = [
            [
                family,
                len(tasks_by_family(family)),
                f"{cells[family].successes}/{cells[family].episodes}",
                f"{cells[family].success_rate * 100:.0f}%",
            ]
            for family in TASK_FAMILIES
        ]
        print(format_table(
            ["family", "tasks", "episodes", "oracle success"],
            rows,
            title=f"{layout.name} layout ({len(TASKS)} instructions, "
                  f"{episodes} episodes/task)",
        ))
        for family in TASK_FAMILIES:
            cell = cells[family]
            if cell.success_rate < 1.0:
                failures.extend(
                    f"{layout.name}: {instruction}"
                    for instruction in cell.failed_instructions
                )
    print(f"--- suite done in {time.perf_counter() - started:.1f}s ---")
    if failures:
        print("expert oracle failed on:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


def _run_lint(deep: bool = False) -> int:
    """``repro-experiments lint``: the static-analysis gate.

    Runs reprolint (the determinism-contract checker in
    ``repro.contracts``, see docs/contracts.md) over the installed package
    and folds in ruff and mypy when they are installed -- the same passes
    the CI static-analysis job enforces.  ``--deep`` adds the
    whole-program passes.  Exit 1 on any diagnostic.
    """
    from repro.contracts.__main__ import main as lint_main

    flags = ["--external"] + (["--deep"] if deep else [])
    return lint_main(flags, prog="repro-experiments lint")


def _run_bench(json_path: str | None, workers: int | None = None) -> int:
    """Measure fleet throughput: episodes/sec across fleet sizes plus the
    sharded workers axis (``--workers N`` narrows the axis to exactly N)."""
    from repro.analysis.fleet_bench import (
        SHARDED_WORKERS,
        format_report,
        measure_fleet_throughput,
        write_bench_json,
    )

    started = time.perf_counter()
    print("=== bench (fleet throughput) ===")
    axis = SHARDED_WORKERS if workers is None else (workers,)
    report = measure_fleet_throughput(workers=axis)
    print(format_report(report))
    if json_path:
        path = write_bench_json(json_path, report)
        print(f"[saved {path}]")
    print(f"--- bench done in {time.perf_counter() - started:.1f}s ---")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
