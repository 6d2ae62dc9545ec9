"""Roofline-style GPU device model (cuBLAS / cuSPARSE stand-in).

Replaces the paper's NVIDIA Titan RTX measurements (Sec. VII-B: 4608 CUDA
cores at 1.77 GHz, 672 GB/s, 280 W TDP, PCIe-attached).  The model prices
each matrix-multiplication algorithm of Fig. 5 by its dominant resource:

* Dense GEMM — compute-bound at high efficiency (cuBLAS);
* CSR SpMM — sparse-kernel compute throughput (irregular gather limits it
  to a small fraction of peak);
* CSR x CSR SpGEMM — "often latency bound" (Sec. III-B): multi-pass kernel
  launches plus per-metadata-element processing plus low-efficiency flops;
* format conversions — bandwidth-bound passes at cuSPARSE's (modest)
  effective conversion bandwidth, plus H2D/D2H transfers over PCIe, which
  is what Fig. 11 shows consuming ~50% (up to 75%) of wall time.

Efficiency constants are model parameters chosen so the Fig. 5 crossovers
land where the paper reports them (Dense best at >= 10% density, CSR-CSR
best below ~0.1%); they are not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.accelerator.perf_model import expected_output_nnz


class MMAlgorithm(Enum):
    """The four Fig. 5 matrix-multiplication ACF algorithms."""

    DENSE_DENSE_DENSE = "Dense(A)-Dense(B)-Dense(O)"  # cuBLAS GEMM
    CSR_DENSE_DENSE = "CSR(A)-Dense(B)-Dense(O)"  # cuSPARSE csrmm
    DENSE_CSC_DENSE = "Dense(A)-CSC(B)-Dense(O)"  # cuSPARSE gemmi-style
    CSR_CSR_CSR = "CSR(A)-CSR(B)-CSR(O)"  # cuSPARSE csrgemm


@dataclass(frozen=True)
class KernelEstimate:
    """Time and utilization estimate for one GPU kernel invocation."""

    seconds: float
    sm_utilization: float
    mem_utilization: float
    energy_j: float


@dataclass(frozen=True)
class GpuModel:
    """Titan RTX-class device parameters."""

    name: str = "Titan RTX (model)"
    cuda_cores: int = 4608
    clock_hz: float = 1.77e9
    mem_bw_bytes: float = 672.0e9
    pcie_bw_bytes: float = 16.0e9
    tdp_w: float = 280.0
    kernel_launch_s: float = 10.0e-6
    # Achievable-fraction constants (model parameters, see module docstring).
    dense_efficiency: float = 0.85
    spmm_efficiency: float = 0.08
    spgemm_efficiency: float = 0.01
    metadata_rate: float = 2.0e9  # metadata elements processed per second
    conversion_bw_bytes: float = 40.0e9  # effective cuSPARSE conversion b/w

    @property
    def peak_flops(self) -> float:
        """fp32 peak: 2 FLOPs per core per cycle."""
        return 2.0 * self.cuda_cores * self.clock_hz

    # ----------------------------------------------------------- transfers --
    def transfer_seconds(self, bytes_moved: float) -> float:
        """H2D or D2H time over PCIe."""
        return bytes_moved / self.pcie_bw_bytes

    # ------------------------------------------------------ Fig. 5 kernels --
    def mm_time(
        self, algorithm: MMAlgorithm, m: int, k: int, n: int, density: float,
        dtype_bytes: int = 4,
    ) -> KernelEstimate:
        """Execution-time estimate for one MM algorithm at one density.

        Both operands share *density*, as in Fig. 5's sweep.
        """
        nnz_a = density * m * k
        nnz_b = density * k * n
        dense_flops = 2.0 * m * k * n
        if algorithm is MMAlgorithm.DENSE_DENSE_DENSE:
            t_compute = dense_flops / (self.dense_efficiency * self.peak_flops)
            bytes_moved = dtype_bytes * (m * k + k * n + m * n)
            t = max(t_compute, bytes_moved / self.mem_bw_bytes) + self.kernel_launch_s
            achieved = dense_flops / t
            return KernelEstimate(
                seconds=t,
                sm_utilization=min(1.0, achieved / self.peak_flops),
                mem_utilization=min(1.0, bytes_moved / t / self.mem_bw_bytes),
                energy_j=self.tdp_w * t,
            )
        if algorithm in (MMAlgorithm.CSR_DENSE_DENSE, MMAlgorithm.DENSE_CSC_DENSE):
            nnz_sparse = nnz_a if algorithm is MMAlgorithm.CSR_DENSE_DENSE else nnz_b
            other = n if algorithm is MMAlgorithm.CSR_DENSE_DENSE else m
            flops = 2.0 * nnz_sparse * other
            bytes_moved = dtype_bytes * (2 * nnz_sparse + k * n + m * n)
            t = (
                max(
                    flops / (self.spmm_efficiency * self.peak_flops),
                    bytes_moved / self.mem_bw_bytes,
                )
                + self.kernel_launch_s
            )
            return KernelEstimate(
                seconds=t,
                sm_utilization=min(1.0, (flops / t) / self.peak_flops),
                mem_utilization=min(1.0, bytes_moved / t / self.mem_bw_bytes),
                energy_j=self.tdp_w * t,
            )
        # CSR x CSR SpGEMM: latency + metadata + low-efficiency flops.
        flops = 2.0 * nnz_a * nnz_b / k if k else 0.0
        nnz_o = expected_output_nnz(m, n, k, int(nnz_a), int(nnz_b))
        metadata = nnz_a + nnz_b + nnz_o
        bytes_moved = dtype_bytes * (2 * nnz_a + 2 * nnz_b + 2 * nnz_o)
        t = (
            3.0 * self.kernel_launch_s  # symbolic + numeric + compaction passes
            + metadata / self.metadata_rate
            + max(
                flops / (self.spgemm_efficiency * self.peak_flops),
                bytes_moved / self.mem_bw_bytes,
            )
        )
        return KernelEstimate(
            seconds=t,
            sm_utilization=min(1.0, (flops / t) / self.peak_flops),
            mem_utilization=min(1.0, bytes_moved / t / self.mem_bw_bytes),
            energy_j=self.tdp_w * t,
        )

    # ------------------------------------------- Fig. 10/11 conversions -----
    def conversion_time(
        self,
        bytes_in: float,
        bytes_out: float,
        passes: int = 2,
    ) -> tuple[float, float, float]:
        """(device seconds, h2d seconds, d2h seconds) for a conversion.

        The device part streams the operand ``passes`` times at the
        effective conversion bandwidth; transfers move the source in and the
        result out over PCIe.  Fig. 11's transfer-dominance follows from
        ``pcie_bw << conversion_bw`` not holding strongly — cuSPARSE's
        conversion kernels are far from streaming speed.
        """
        device = (
            passes * (bytes_in + bytes_out) / self.conversion_bw_bytes
            + 2.0 * self.kernel_launch_s
        )
        return device, self.transfer_seconds(bytes_in), self.transfer_seconds(
            bytes_out
        )

    def conversion_energy(self, total_seconds: float) -> float:
        """TDP-based energy for a conversion (device busy the whole time)."""
        return self.tdp_w * total_seconds
