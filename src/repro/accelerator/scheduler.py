"""Latency schedules: baseline, data reuse, and reuse + link pipelining.

This reproduces the paper's architecture ablation (Sec. 4.2): starting from
a naive implementation where each of the five key computing blocks (Fig. 6)
independently recomputes its dependency chain, data reuse centralises the
shared per-link quantities (-54.0% in the paper), and pipelining the
per-link units on top overlaps links in flight (-86.0% total).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.datapath import ALL_UNITS, CLOCK_MHZ, DATAFLOW_UNITS

__all__ = [
    "ScheduleReport",
    "baseline_cycles",
    "reuse_cycles",
    "pipelined_cycles",
    "ablation",
]

_UNIT = {unit.name: unit for unit in ALL_UNITS}

# Which chains each key computing block (paper Fig. 6/7) needs when nothing
# is shared.  FK needs poses; the Jacobian block recomputes poses; the
# task-space mass matrix needs poses, the Jacobian and the CRBA/inversion
# circuit; the task-space bias force needs the Jacobian, the mass matrix
# (for Lambda), a full RNEA pass for h, and a second velocity/acceleration
# sweep for Jdot*qd; the Jacobian-transpose path recomputes the Jacobian and
# feeds the torque circuit.
_BASELINE_BLOCK_CHAINS: dict[str, tuple[str, ...]] = {
    "forward-kinematics": ("pose",),
    "jacobian": ("pose", "jacobian"),
    "mass-matrix-block": ("pose", "jacobian", "mass-matrix"),
    "bias-force-block": (
        "pose", "jacobian", "velocity", "acceleration", "force", "torque",
        "mass-matrix", "bias-force",
        # the Jdot*qd sweep
        "pose", "velocity", "acceleration",
    ),
    "jacobian-transpose": ("pose", "jacobian", "joint-torque"),
}

# With data reuse every per-link chain is computed exactly once and shared.
_REUSED_CHAIN = ("pose", "jacobian", "velocity", "acceleration", "force", "torque")
_REUSED_CUSTOM = ("mass-matrix", "bias-force", "joint-torque")


@dataclass(frozen=True)
class ScheduleReport:
    """Cycle counts and derived statistics for one schedule."""

    name: str
    cycles: int

    @property
    def microseconds(self) -> float:
        return self.cycles / CLOCK_MHZ

    def reduction_vs(self, other: "ScheduleReport") -> float:
        """Fractional latency reduction relative to ``other``."""
        return 1.0 - self.cycles / other.cycles


def baseline_cycles(links: int) -> ScheduleReport:
    """No reuse, no pipelining: every block walks its own chain, sequentially."""
    total = 0
    for chain in _BASELINE_BLOCK_CHAINS.values():
        for unit_name in chain:
            total += _UNIT[unit_name].cycles(links)
    return ScheduleReport("baseline", total)


def reuse_cycles(links: int) -> ScheduleReport:
    """Shared per-link quantities computed once; units still run sequentially."""
    total = 0
    for unit_name in _REUSED_CHAIN:
        total += _UNIT[unit_name].cycles(links)
    for unit_name in _REUSED_CUSTOM:
        total += _UNIT[unit_name].cycles(links)
    return ScheduleReport("data-reuse", total)


def pipelined_cycles(links: int) -> ScheduleReport:
    """Reuse plus link-level pipelining of the dataflow half.

    Different links occupy different dataflow stages simultaneously ("while
    computing link 1's force we can compute link 2's acceleration and link
    3's velocity"), so the dataflow latency collapses to the fill time plus
    ``links`` initiations of the slowest stage.  The customized circuits
    consume the dataflow results and overlap partially: the mass-matrix unit
    starts once poses stream in, so only its drain tail adds latency; the
    bias-force and torque units are serialised behind it.
    """
    dataflow_fill = sum(unit.pipeline_depth for unit in DATAFLOW_UNITS)
    slowest = max(unit.initiation_interval for unit in DATAFLOW_UNITS)
    dataflow = dataflow_fill + slowest * links

    mass, bias, torque = (_UNIT[name] for name in _REUSED_CUSTOM)
    # Overlap: the mass-matrix unit consumes poses as they stream out of the
    # dataflow, so only its drain tail stays exposed; the bias-force unit
    # likewise starts on the first forces and exposes roughly half its
    # standalone latency.  The joint-torque unit closes the cycle serially.
    custom = mass.cycles(links) // 3 + bias.cycles(links) // 2 + torque.cycles(links)
    return ScheduleReport("reuse+pipeline", dataflow + custom)


def ablation(links: int = 7) -> dict[str, ScheduleReport]:
    """All three schedules for an ``links``-link arm (paper uses the 7-DoF Panda)."""
    return {
        report.name: report
        for report in (baseline_cycles(links), reuse_cycles(links), pipelined_cycles(links))
    }
