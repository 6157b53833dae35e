"""Fig. 14: frame-by-frame latency/energy and the long-tail analysis.

One 100-frame sequence is simulated for RoboFlamingo, Corki-5 and
Corki-ADAP.  Corki's series shows the paper's crest/trough structure
(inference at trajectory boundaries, execution in between); sorting the
latencies exposes Corki's heavier tail relative to its mean, quantified by
the coefficient-of-variation comparison the paper reports (the baseline's
relative variation is 56.0% lower than Corki's).

Like Fig. 13, jitter streams are keyed ``(seed, system name)`` (the three
systems used to share one sequential generator) and the three sequences
evaluate as one :func:`repro.pipeline.simulate_lanes` batch.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.reporting import format_series
from repro.experiments.context import shared_context
from repro.experiments.profiles import Profile
from repro.pipeline import PipelineLane, simulate_lanes, system_jitter_rng

__all__ = ["run", "frame_lanes", "frame_traces"]

_SEQUENCE_FRAMES = 100
_JITTER_SEED = 14


# repro: allow[BATCH-REF] reason=builds lane *specifications*, not a batched kernel; simulate_lanes consumes them
def frame_lanes(adap_steps: list[int]) -> list[PipelineLane]:
    """The figure's lane specifications: baseline, Corki-5, Corki-ADAP."""
    steps: list[int] = []
    for value in adap_steps:
        steps.append(value)
        if sum(steps) >= _SEQUENCE_FRAMES:
            break
    if not steps:
        steps = [5] * (_SEQUENCE_FRAMES // 5)
    return [
        PipelineLane(
            "roboflamingo",
            frames=_SEQUENCE_FRAMES,
            rng=system_jitter_rng(_JITTER_SEED, "roboflamingo"),
        ),
        PipelineLane(
            "corki-5",
            executed_steps=tuple([5] * (_SEQUENCE_FRAMES // 5)),
            rng=system_jitter_rng(_JITTER_SEED, "corki-5"),
        ),
        PipelineLane(
            "corki-adap",
            executed_steps=tuple(steps),
            rng=system_jitter_rng(_JITTER_SEED, "corki-adap"),
        ),
    ]


def frame_traces(profile: Profile | None = None):
    """Per-frame traces for one sequence: baseline, Corki-5, Corki-ADAP."""
    context = shared_context(profile)
    adap_eval = context.evaluations("seen")["corki-adap"]
    lanes = frame_lanes(list(adap_eval.executed_steps))
    return {view.name: view for view in simulate_lanes(lanes)}


def run(profile: Profile | None = None) -> str:
    traces = frame_traces(profile)
    blocks = ["Fig. 14 -- frame-by-frame latency/energy and long tail"]
    # Stride 3 over the first 45 frames: coprime with the crest periods, so
    # the crest/trough structure is visible instead of aliasing away.
    stride, window = 3, 45
    for name, trace in traces.items():
        latencies = trace.latencies_ms()
        frames = np.arange(0, min(window, len(latencies)), stride)
        blocks.append(format_series(f"{name} latency", frames, latencies[frames], unit="ms"))
    tail_stride = 10
    for name, trace in traces.items():
        tail = trace.sorted_latencies_ms()
        frames = np.arange(0, len(tail), tail_stride)
        blocks.append(format_series(f"{name} sorted tail", frames, tail[frames], unit="ms"))

    base_cv = traces["roboflamingo"].latency_variation
    corki_cv = traces["corki-5"].latency_variation
    reduction = 100.0 * (1.0 - base_cv / corki_cv)
    blocks.append(
        f"relative latency variation: baseline {base_cv:.3f} vs corki-5 {corki_cv:.3f}; "
        f"baseline is {reduction:.1f}% lower (paper: 56.0% lower)"
    )
    mean_energy = {name: round(trace.mean_energy_j, 2) for name, trace in traces.items()}
    blocks.append(f"mean frame energy (J): {mean_energy}")
    return "\n".join(blocks)


if __name__ == "__main__":
    print(run())
