"""Fig. 13: runtime frame latency and energy per system.

Fixed-step variations execute exactly T steps per inference; Corki-ADAP's
execution lengths come from its measured accuracy rollouts, which is how the
paper couples the two evaluations.

Every system's jitter stream is keyed ``(seed, system name)`` through
:func:`repro.pipeline.system_jitter_rng` -- the figure's systems used to
share one sequential ``default_rng(3)`` stream, so adding or removing a
system silently shifted every later system's numbers.  With keyed streams
the figure evaluates all systems as one :func:`repro.pipeline.simulate_lanes`
batch, byte-identical to simulating each system alone through the scalar
reference (the differential harness asserts both properties).
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.experiments.context import shared_context
from repro.experiments.profiles import Profile
from repro.pipeline import PipelineLane, SystemStages, simulate_lanes, system_jitter_rng

__all__ = ["run", "system_lanes", "system_traces"]

_JITTER_SEED = 3

_PAPER_SPEEDUP = {
    "corki-1": "1.2x", "corki-3": "~3x", "corki-5": "(26.9 Hz)", "corki-7": "~7x",
    "corki-9": "9.1x", "corki-adap": "5.9x", "corki-sw": "(18.7 Hz)",
}


# repro: allow[BATCH-REF] reason=builds lane *specifications*, not a batched kernel; simulate_lanes consumes them
def system_lanes(frames: int, adap_steps: list[int]) -> list[PipelineLane]:
    """The figure's lane specifications, pure in ``(frames, adap_steps)``.

    One lane per system, each with its own ``(seed, name)``-keyed jitter
    generator, so any subset of the systems simulates to the same bytes.
    """
    lanes = [
        PipelineLane(
            "roboflamingo",
            frames=frames,
            rng=system_jitter_rng(_JITTER_SEED, "roboflamingo"),
        )
    ]
    for steps_taken in (1, 3, 5, 7, 9):
        name = f"corki-{steps_taken}"
        lanes.append(
            PipelineLane(
                name,
                executed_steps=tuple([steps_taken] * max(1, frames // steps_taken)),
                rng=system_jitter_rng(_JITTER_SEED, name),
            )
        )
    lanes.append(
        PipelineLane(
            "corki-adap",
            executed_steps=tuple(adap_steps),
            rng=system_jitter_rng(_JITTER_SEED, "corki-adap"),
        )
    )
    lanes.append(
        PipelineLane(
            "corki-sw",
            executed_steps=tuple([5] * max(1, frames // 5)),
            stages=SystemStages.corki(control="cpu"),
            rng=system_jitter_rng(_JITTER_SEED, "corki-sw"),
        )
    )
    return lanes


def system_traces(profile: Profile | None = None):
    """Pipeline traces for the baseline and every Corki variation.

    All systems evaluate in one :func:`simulate_lanes` call, returning
    per-system :class:`~repro.pipeline.TraceView` lanes; jitter is keyed per
    system, so the bytes equal the scalar reference executors'.
    """
    context = shared_context(profile)
    frames = context.profile.pipeline_frames
    adap_steps = context.evaluations("seen")["corki-adap"].executed_steps
    if not adap_steps:
        adap_steps = [5]
    return {view.name: view for view in simulate_lanes(system_lanes(frames, adap_steps))}


def run(profile: Profile | None = None) -> str:
    traces = system_traces(profile)
    baseline = traces["roboflamingo"]
    rows = []
    for name, trace in traces.items():
        rows.append(
            [
                name,
                f"{trace.mean_latency_ms:.1f}",
                f"{trace.frequency_hz:.1f}",
                f"{trace.speedup_vs(baseline):.2f}x",
                f"{trace.mean_energy_j:.2f}",
                f"{trace.energy_reduction_vs(baseline):.2f}x",
                _PAPER_SPEEDUP.get(name, "-"),
            ]
        )
    return format_table(
        ("system", "latency ms", "Hz", "speedup", "energy J", "energy red.", "paper"),
        rows,
        title="Fig. 13 -- runtime latency and energy per frame",
    )


if __name__ == "__main__":
    print(run())
