"""Canonical workload fingerprints: the cache key of the serve layer.

A fingerprint summarizes exactly the inputs SAGE's decision depends on —
kernel, dimensions, nonzero counts, datatype, and the accelerator
configuration (Sec. VI: "the inputs to SAGE are workload size, datatype,
density region ... and accelerator hardware parameters").  Two workloads
with equal fingerprints are guaranteed the same decision, so the service
may answer the second from cache.

Two key granularities are exposed:

* :meth:`WorkloadFingerprint.exact_key` — every statistic verbatim; a hit
  is bit-for-bit the decision SAGE would have computed.
* :meth:`WorkloadFingerprint.band_key` — nonzero counts replaced by their
  power-of-two density band.  Workloads in the same band share
  DRAM-footprint ordering to within a factor of two, so serving a banded
  neighbour's decision is the "near-hit" mode of
  :class:`~repro.serve.cache.DecisionCache`.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, fields
from typing import Mapping

from repro.accelerator.config import AcceleratorConfig
from repro.workloads.spec import MatrixWorkload, TensorWorkload

__all__ = [
    "WorkloadFingerprint",
    "config_digest",
    "density_band",
    "fingerprint_of",
]


def density_band(nnz: int) -> int:
    """Power-of-two nonzero bucket: operands within 2x share a band.

    A band is the bit length of the count, so every count in
    ``[2**(b-1), 2**b)`` lands in band ``b`` (and 0 shares band 1 with 1).
    """
    return max(1, int(nnz)).bit_length()


@functools.lru_cache(maxsize=64)
def config_digest(config: AcceleratorConfig) -> str:
    """Stable short digest of every accelerator-config field.

    Memoized (configs are frozen dataclasses) — a server fingerprints
    every request against the same config, so the field walk + hash runs
    once per distinct configuration, not once per request.
    """
    payload = ",".join(
        f"{f.name}={getattr(config, f.name)!r}" for f in fields(config)
    )
    return hashlib.blake2s(payload.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class WorkloadFingerprint:
    """Canonical identity of one (workload, accelerator) prediction.

    ``dims`` carries every extent the cost model reads: ``(m, k, n)`` for
    matrices, ``(x, y, z, rank)`` for tensors.  ``nnz`` is per-operand
    (``(nnz_a, nnz_b)`` / ``(nnz,)``).
    """

    kind: str  # "matrix" | "tensor"
    kernel: str
    dims: tuple[int, ...]
    nnz: tuple[int, ...]
    dtype_bits: int
    config: str  # accelerator-config digest

    def __post_init__(self) -> None:
        if self.kind not in ("matrix", "tensor"):
            raise ValueError(f"unknown workload kind {self.kind!r}")

    @property
    def bands(self) -> tuple[int, ...]:
        """Per-operand density band (power-of-two nnz bucket)."""
        return tuple(density_band(n) for n in self.nnz)

    @property
    def dim_bands(self) -> tuple[int, ...]:
        """Per-extent power-of-two bucket (same coarsening as nnz bands)."""
        return tuple(density_band(d) for d in self.dims)

    def exact_key(self) -> tuple:
        """Hashable key with exact statistics (lossless cache hits)."""
        return (
            self.kind, self.kernel, self.dims, self.nnz, self.dtype_bits,
            self.config,
        )

    def band_key(self) -> tuple:
        """Hashable key with dims *and* nnz coarsened to power-of-two bands.

        Exact dims used to be part of this key, which made near hits
        unobservable in practice: real suites (Table III) have no two
        workloads with identical extents, so the banded tier never
        collided and ``near_hits`` stayed 0.  Workloads within 2x on
        every extent and every nonzero count share DRAM-footprint
        ordering, which is the contract the near-hit mode needs.
        """
        return (
            self.kind, self.kernel, self.dim_bands, self.bands,
            self.dtype_bits, self.config,
        )


def fingerprint_of(
    workload: MatrixWorkload | TensorWorkload | Mapping,
    config: AcceleratorConfig | None = None,
) -> WorkloadFingerprint:
    """Fingerprint a workload (object or wire dict) under *config*.

    The workload *name* is deliberately excluded: it does not influence
    the decision, and keying on it would defeat cross-caller caching.
    """
    if isinstance(workload, Mapping):
        from repro.workloads.spec import workload_from_dict

        workload = workload_from_dict(workload)
    digest = config_digest(config or AcceleratorConfig.paper_default())
    if isinstance(workload, TensorWorkload):
        return WorkloadFingerprint(
            kind="tensor",
            kernel=workload.kernel.value,
            dims=(*workload.shape, workload.rank),
            nnz=(workload.nnz,),
            dtype_bits=workload.dtype_bits,
            config=digest,
        )
    return WorkloadFingerprint(
        kind="matrix",
        kernel=workload.kernel.value,
        dims=(workload.m, workload.k, workload.n),
        nnz=(workload.nnz_a, workload.nnz_b),
        dtype_bits=workload.dtype_bits,
        config=digest,
    )
