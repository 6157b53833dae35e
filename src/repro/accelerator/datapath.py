"""Datapath units of the Corki accelerator and their cycle model.

Paper Fig. 8: the accelerator has a *dataflow* half -- pose, velocity,
acceleration and force units chained by FIFOs, plus a torque unit behind a
line buffer -- and a *customized circuit* half for the task-space mass
matrix, task-space bias force and joint torque computations.

The cycle model is derived from operation counts of the actual algorithms
(spatial-algebra RNEA/CRBA, the same math :mod:`repro.robot.dynamics` runs):
each unit processes one link per initiation interval, with the interval set
by the unit's multiply-accumulate width.  The schedule variants in
:mod:`repro.accelerator.scheduler` compose these units with and without
data reuse and pipelining, reproducing the paper's ablation
(-54.0% from reuse, -86.0% total with pipelining).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["UnitSpec", "DATAFLOW_UNITS", "CUSTOM_UNITS", "ALL_UNITS", "CLOCK_MHZ"]

CLOCK_MHZ = 143.0
"""Accelerator clock; the ZC706 designs the paper cites close near 143 MHz."""


@dataclass(frozen=True)
class UnitSpec:
    """One hardware unit.

    ``flops_per_link``: multiply+add operations the unit performs per robot
    link (or per control cycle for the customized circuits, with
    ``per_link=False``).
    ``mac_width``: parallel multiply-accumulate lanes; one MAC retires two
    flops per cycle.
    ``pipeline_depth``: register stages from input to first output.
    ``dsp_per_mac`` and the LUT/FF figures feed the resource model.
    """

    name: str
    flops_per_link: int
    mac_width: int
    pipeline_depth: int
    per_link: bool = True
    dsp_per_mac: int = 1  # single-precision fused MAC maps onto one DSP48 slice
    lut: int = 2600
    ff: int = 2100

    @property
    def initiation_interval(self) -> int:
        """Cycles between accepting consecutive links."""
        return max(1, -(-self.flops_per_link // (2 * self.mac_width)))

    def cycles(self, links: int) -> int:
        """Latency to stream ``links`` items through this unit alone."""
        count = links if self.per_link else 1
        return self.pipeline_depth + self.initiation_interval * count

    @property
    def dsp(self) -> int:
        return self.mac_width * self.dsp_per_mac


# Dataflow half (paper Fig. 8, blue).  Operation counts follow the
# spatial-algebra recursions in repro.robot.dynamics:
#   pose:     MDH transform build + 3x3 compose            ~66 flops
#   jacobian: z x (p_ee - p_i) column build                ~18 flops
#   velocity: Xup @ v_parent + S*qd                        ~78 flops
#   accel:    Xup @ a_parent + crm(v) @ S*qd + S*qdd       ~144 flops
#   force:    I @ a + crf(v) @ (I @ v)                     ~216 flops
#   torque:   S^T f + Xup^T f accumulation                 ~84 flops
DATAFLOW_UNITS = (
    UnitSpec("pose", flops_per_link=66, mac_width=6, pipeline_depth=4),
    UnitSpec("jacobian", flops_per_link=18, mac_width=6, pipeline_depth=3, lut=1400, ff=1100),
    UnitSpec("velocity", flops_per_link=78, mac_width=6, pipeline_depth=4),
    UnitSpec("acceleration", flops_per_link=144, mac_width=12, pipeline_depth=5),
    UnitSpec("force", flops_per_link=216, mac_width=16, pipeline_depth=5),
    UnitSpec("torque", flops_per_link=84, mac_width=6, pipeline_depth=4),
)

# Customized-circuit half (paper Fig. 8, yellow).  These run once per control
# cycle on whole matrices:
#   mass matrix:  CRBA composites + J M^-1 J^T + 6x6 inverse  ~4200 flops
#   bias force:   J M^-1 h and Lambda (J M^-1 h - Jdot qd)    ~1100 flops
#   joint torque: J^T F, PD terms, clamping                   ~420 flops
CUSTOM_UNITS = (
    UnitSpec(
        "mass-matrix", flops_per_link=4200, mac_width=24, pipeline_depth=12,
        per_link=False, lut=6800, ff=5200,
    ),
    UnitSpec(
        "bias-force", flops_per_link=1100, mac_width=16, pipeline_depth=8,
        per_link=False, lut=4200, ff=3300,
    ),
    UnitSpec(
        "joint-torque", flops_per_link=420, mac_width=12, pipeline_depth=6,
        per_link=False, lut=3000, ff=2400,
    ),
)

ALL_UNITS = DATAFLOW_UNITS + CUSTOM_UNITS
