"""Functional + cycle-level model of the Corki control accelerator."""

from repro.accelerator.accelerator import (
    CPU_CONTROL_LATENCY_MS,
    FPGA_CONTROL_LATENCY_MS,
    CorkiAccelerator,
    TickResult,
)
from repro.accelerator.approx import (
    DESIGN_THRESHOLD,
    FULL_MOTION_SCORE,
    AceUnit,
    JointImpactModel,
    jacobian_joint_sensitivity,
    mass_matrix_joint_sensitivity,
)
from repro.accelerator.datapath import ALL_UNITS, CLOCK_MHZ, CUSTOM_UNITS, DATAFLOW_UNITS, UnitSpec
from repro.accelerator.fifo import BufferOverflow, BufferUnderflow, Fifo, LineBuffer, Scratchpad
from repro.accelerator.lanes import AcceleratorLanes, LaneTickResult
from repro.accelerator.microcontroller import Instruction, MicroController, Opcode, TrajectoryRun
from repro.accelerator.resources import ZC706, ResourceReport, resource_report
from repro.accelerator.scheduler import (
    ScheduleReport,
    ablation,
    baseline_cycles,
    pipelined_cycles,
    reuse_cycles,
)

__all__ = [
    "ALL_UNITS",
    "AcceleratorLanes",
    "AceUnit",
    "BufferOverflow",
    "BufferUnderflow",
    "CLOCK_MHZ",
    "CPU_CONTROL_LATENCY_MS",
    "CUSTOM_UNITS",
    "CorkiAccelerator",
    "DATAFLOW_UNITS",
    "DESIGN_THRESHOLD",
    "FPGA_CONTROL_LATENCY_MS",
    "FULL_MOTION_SCORE",
    "Fifo",
    "Instruction",
    "JointImpactModel",
    "LaneTickResult",
    "LineBuffer",
    "MicroController",
    "Opcode",
    "ResourceReport",
    "ScheduleReport",
    "Scratchpad",
    "TickResult",
    "TrajectoryRun",
    "UnitSpec",
    "ZC706",
    "ablation",
    "baseline_cycles",
    "jacobian_joint_sensitivity",
    "mass_matrix_joint_sensitivity",
    "pipelined_cycles",
    "resource_report",
    "reuse_cycles",
]
