#!/usr/bin/env python3
"""Steadiness report: two sets of seeded runs, spreads and medians against the bounds.

Usage::

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Runs ``run.py --workload W --seed S --seconds <run_seconds> --trace 0`` for
seeds 1 to ``--runs`` per workload, one run at a time, as two sets (A, then
B) of the same code.  For every end-to-end metric it reports each set's
median, quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
spread ``(Q3 - Q1) / median`` against the metric's bound in
``BENCHMARK.json`` -- steady below a third of the bound -- and how much
worse set B's median is than set A's, which must stay within the bound.
The report is Markdown, written to ``.perfbench/steadiness.md`` (the raw
results beside it as ``steadiness.json``) and echoed to stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = ("A", "B")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    result["log"] = lines[:-1]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def values(runs: list[dict], metric: str) -> list[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def spread_table(spec: dict, results: dict[str, list[dict]]) -> list[str]:
    lines = [
        "| workload | metric | median | Q1 | Q3 | spread | bound | steady (< bound/3) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, runs in results.items():
        for metric in spec["end_to_end"]:
            q1, q2, q3, share = spread(values(runs, metric["name"]))
            bound = metric["bound"]
            steady = "yes" if share <= bound / 3 else ("within bound" if share <= bound else "NO")
            lines.append(
                f"| {workload} | {metric['name']} | {q2:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {share:.4f} | {bound} | {steady} |"
            )
        walls = [run["wall_s"] for run in runs]
        correct = all(run["correct"] for run in runs)
        lines.append(
            f"| {workload} | (run wall s) | {statistics.median(walls):.1f} | {min(walls):.1f} "
            f"| {max(walls):.1f} | | | all correct: {correct} |"
        )
    return lines


def median_table(spec: dict, first: dict[str, list[dict]], second: dict[str, list[dict]]) -> list[str]:
    lines = [
        "| workload | metric | median A | median B | B worse than A by | bound | within |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload in first:
        for metric in spec["end_to_end"]:
            a = statistics.median(values(first[workload], metric["name"]))
            b = statistics.median(values(second[workload], metric["name"]))
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            within = "yes" if worse <= metric["bound"] else "NO"
            lines.append(
                f"| {workload} | {metric['name']} | {a:.6g} | {b:.6g} | {worse:+.4f} "
                f"| {metric['bound']} | {within} |"
            )
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets: dict[str, dict[str, list[dict]]] = {}
    for label in SETS:
        sets[label] = {}
        for workload in workloads:
            sets[label][workload] = []
            for seed in range(1, args.runs + 1):
                run = run_once(workload, seed, spec["run_seconds"])
                sets[label][workload].append(run)
                metrics = {name: round(m["value"], 4) for name, m in run["metrics"].items()}
                print(f"set {label} {workload} seed {seed}: {metrics} ({run['wall_s']:.1f} s)", flush=True)
    lines = []
    for label, results in sets.items():
        lines += [f"## Set {label}", ""] + spread_table(spec, results) + [""]
    lines += ["## Medians, set B against set A", ""] + median_table(spec, *sets.values())
    text = "\n".join(lines) + "\n"
    out = ROOT / ".perfbench" / "steadiness.md"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    out.with_suffix(".json").write_text(json.dumps(sets, indent=1))
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
