"""Per-family success matrix over the 34-instruction task suite.

A Tbl. 2-style view the paper aggregates away: success rate by task family,
for the scripted-expert oracle (which must sit at 1.0 -- the task-suite
health gate) and each evaluated execution model.  Policy rows roll through
:class:`repro.core.fleet.FleetRunner` with one family-tagged lane per
episode, so the matrix inherits the fleet engine's determinism and
fleet-size invariance.
"""

from __future__ import annotations

from repro.analysis.evaluation import (
    evaluate_system_families,
    expert_oracle_families,
)
from repro.analysis.reporting import format_table
from repro.experiments.context import shared_context
from repro.experiments.profiles import Profile
from repro.sim.tasks import TASK_FAMILIES, TASKS, tasks_by_family
from repro.sim.world import SEEN_LAYOUT, UNSEEN_LAYOUT

__all__ = ["run", "family_table"]

_SYSTEMS = ("roboflamingo", "corki-5", "corki-adap")


def family_table(scenario: str, profile: Profile | None = None) -> str:
    context = shared_context(profile)
    resolved = context.profile
    layout = SEEN_LAYOUT if scenario == "seen" else UNSEEN_LAYOUT
    oracle = expert_oracle_families(layout, episodes_per_task=resolved.family_episodes)
    systems = {}
    estimates = {}
    for name in _SYSTEMS:
        systems[name], estimates[name] = evaluate_system_families(
            context.policies(),
            name,
            layout,
            episodes_per_task=resolved.family_episodes,
            seed=resolved.eval_seed,
            fleet_size=resolved.fleet_size,
            workers=resolved.workers,
        )
    rows = []
    for family in TASK_FAMILIES:
        count = len(tasks_by_family(family))
        rows.append(
            [family, count, f"{oracle[family].success_rate * 100:.0f}%"]
            + [f"{systems[name][family].success_rate * 100:.1f}%" for name in _SYSTEMS]
        )
    headers = ["family", "tasks", "expert oracle", *_SYSTEMS]
    episodes = resolved.family_episodes
    table = format_table(
        headers,
        rows,
        title=(
            f"Per-family success on {scenario} tasks "
            f"({len(TASKS)} instructions, {episodes} episodes/task)"
        ),
    )
    footer = ["estimated pipeline cost per frame (lane-batched latency/energy model):"]
    for name in _SYSTEMS:
        lanes = estimates[name]
        if not lanes:
            continue
        latency = sum(e.mean_latency_ms for e in lanes) / len(lanes)
        energy = sum(e.mean_energy_j for e in lanes) / len(lanes)
        footer.append(
            f"  {name}: {latency:.1f} ms ({1000.0 / latency:.1f} Hz), {energy:.2f} J"
        )
    return table + "\n" + "\n".join(footer)


def run(profile: Profile | None = None) -> str:
    return family_table("seen", profile)


if __name__ == "__main__":
    print(run())
