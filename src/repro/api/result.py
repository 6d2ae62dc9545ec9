"""The unified end-to-end result of :meth:`Session.run`.

One object carries everything the paper's Fig. 1b flow produces: the SAGE
decision, MINT's per-operand conversion reports, and the cycle-level
simulator's run report, plus the simulated output itself — replacing the
predict/convert/simulate glue every example used to hand-roll.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.report import RunReport
from repro.mint.engine import ConversionReport
from repro.sage.predictor import SageDecision
from repro.workloads.spec import MatrixWorkload

__all__ = ["RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Decision + conversion reports + cycle/energy report, in one object.

    Attributes
    ----------
    workload:
        The workload as requested.
    sim_workload:
        The workload actually executed: equal to ``workload`` at exact
        scale, or a density-preserving proxy when the operands exceed
        the run options' simulation cap.
    decision:
        SAGE's choice (identical to what :meth:`Session.predict` returns
        for the same workload and options).
    conversion_a, conversion_b:
        MINT's MCF→ACF cost reports per operand (zero-cycle identity
        reports when SAGE picked matching formats).
    report:
        The simulator's cycle/energy report for the chosen ACFs.
    output:
        The simulated ``A @ B`` (at ``sim_workload`` scale).
    sim_scale:
        Fraction of the workload's ``m*k*n`` volume that was simulated;
        ``1.0`` means exact scale.
    verified:
        ``True`` when the operands the simulator computed with were
        checked to hold exactly the input nonzeros (``RunOptions.verify``),
        ``None`` when verification was disabled.

    Example
    -------
    >>> from repro import Session, MatrixWorkload, Kernel
    >>> wl = MatrixWorkload("doc", Kernel.SPMM, m=96, k=96, n=48,
    ...                     nnz_a=500, nnz_b=96 * 48)
    >>> result = Session().run(wl)
    >>> result.sim_scale == 1.0 and result.verified
    True
    >>> result.conversion_cycles == (result.conversion_a.cycles
    ...                              + result.conversion_b.cycles)
    True
    >>> "measured EDP" in result.summary()
    True
    """

    workload: MatrixWorkload
    sim_workload: MatrixWorkload
    decision: SageDecision
    conversion_a: ConversionReport
    conversion_b: ConversionReport
    report: RunReport
    output: np.ndarray
    sim_scale: float = 1.0
    verified: bool | None = None

    @property
    def conversions(self) -> tuple[ConversionReport, ConversionReport]:
        """Both operands' conversion reports, A first."""
        return (self.conversion_a, self.conversion_b)

    @property
    def conversion_cycles(self) -> int:
        """Total MINT cycles across both operands."""
        return self.conversion_a.cycles + self.conversion_b.cycles

    @property
    def cycles(self) -> int:
        """Simulator total cycles (at ``sim_workload`` scale)."""
        return self.report.cycles.total_cycles

    @property
    def energy_j(self) -> float:
        """Simulator on-chip energy (at ``sim_workload`` scale)."""
        return self.report.energy.total_j

    @property
    def edp(self) -> float:
        """Measured compute EDP (at ``sim_workload`` scale)."""
        return self.report.edp

    def summary(self) -> str:
        """Human-readable end-to-end report."""
        best = self.decision.best
        scale = (
            ""
            if self.sim_scale >= 1.0
            else f" [proxy at {self.sim_scale:.1e}x volume]"
        )
        c = self.report.cycles
        lines = [
            f"Run of {self.workload.name}{scale}:",
            f"  SAGE [{self.decision.fidelity}]: "
            f"MCF=({best.mcf[0]},{best.mcf[1]}) "
            f"ACF=({best.acf[0]},{best.acf[1]}) "
            f"predicted EDP={best.edp:.3e} J*s",
            f"  MINT: A {self.conversion_a.source}->{self.conversion_a.target} "
            f"in {self.conversion_a.cycles} cycles via "
            f"{self.conversion_a.path or ('identity',)}",
            f"  MINT: B {self.conversion_b.source}->{self.conversion_b.target} "
            f"in {self.conversion_b.cycles} cycles via "
            f"{self.conversion_b.path or ('identity',)}",
            f"  simulator: load={c.load_cycles} stream={c.stream_cycles} "
            f"drain={c.drain_cycles} compute={c.compute_cycles} "
            f"-> total={c.total_cycles} "
            f"(utilization {c.utilization:.1%})",
            f"  on-chip energy {self.energy_j:.3e} J, measured EDP "
            f"{self.edp:.3e} J*s",
        ]
        if self.verified is not None:
            lines.append(
                "  output verified: its operands held exactly the input "
                "nonzeros"
                if self.verified
                else "  output NOT verified"
            )
        return "\n".join(lines)
