"""Seeded input generation for every benchmark workload.

The program under test only ever sees what these functions build: the
same seed gives the same request sequence, byte for byte (pinned by
``perfbench/tests/test_inputs.py``).  String seeds are used with
:class:`random.Random` because their hashing is stable across processes
(unlike ``hash()`` under ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Iterator

from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload
from repro.workloads.suite import MATRIX_SUITE, TENSOR_SUITE

MATRIX_KERNELS = (Kernel.SPMM, Kernel.SPGEMM)
TENSOR_KERNELS = (Kernel.SPTTM, Kernel.MTTKRP)

#: predict_fresh: per Table III matrix row and kernel, the tiers asked in
#: one round.  Analytical appears twice so the search-bound class holds
#: enough samples for its p90 within two rounds.
MATRIX_TIERS = ("analytical", "analytical", "calibrated", "cycle")
#: Offsets drawn per round and slot come from disjoint windows of this
#: width, so no fingerprint repeats within a run.
OFFSET_WINDOW = 8

#: run_sweep: 512x512x256 over the octave ladder 0.75 * 2^-i.
SWEEP_DIMS = (512, 512, 256)
SWEEP_STEPS = 14

#: serve_zipf traffic mix: Zipf exponent and the fixed shares of
#: same-band variants (near hits) and new-size workloads (misses).  The
#: shares are assumed, not measured: perfbench/README.md gives the reason
#: and how the hit latencies respond to the miss share.
ZIPF_S = 1.1
NEAR_SHARE = 0.05
MISS_SHARE = 0.03
#: Share of hits and misses whose served decision is kept for the
#: local-parity check, and the cap per connection.
CHECK_SHARE = 0.01
CHECK_CAP = 12


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def table3_matrix() -> list[MatrixWorkload]:
    """The 20 Table III matrix workloads (10 rows x SpMM/SpGEMM)."""
    return [e.matrix_workload(k) for e in MATRIX_SUITE for k in MATRIX_KERNELS]


def table3_tensor() -> list[TensorWorkload]:
    """The 6 Table III tensor workloads (3 rows x SpTTM/MTTKRP)."""
    return [e.tensor_workload(k) for e in TENSOR_SUITE for k in TENSOR_KERNELS]


def _with_nnz_offset(wl, offset: int, tag: str):
    """*wl* with its (first) nonzero count moved by *offset*, renamed."""
    if isinstance(wl, MatrixWorkload):
        nnz, size = wl.nnz_a, wl.m * wl.k
        new = nnz + offset if nnz + offset <= size else nnz - offset
        return replace(wl, name=f"{wl.name}+{tag}", nnz_a=new)
    nnz, size = wl.nnz, wl.shape[0] * wl.shape[1] * wl.shape[2]
    new = nnz + offset if nnz + offset <= size else nnz - offset
    return replace(wl, name=f"{wl.name}+{tag}", nnz=new)


# --------------------------------------------------------------- predict_fresh
@dataclass(frozen=True)
class PredictOp:
    """One predict of a never-seen fingerprint at one tier."""

    slot: tuple  # (workload index, tier slot): the op's place in a round
    tier: str  # analytical | calibrated | cycle | tensor
    workload: MatrixWorkload | TensorWorkload

    @property
    def fidelity(self) -> str:
        return "analytical" if self.tier == "tensor" else self.tier


def predict_round(seed: int, rnd: int) -> list[PredictOp]:
    """Round *rnd* of the predict_fresh stream, shuffled by the seed.

    Every Table III matrix workload appears at each tier of
    :data:`MATRIX_TIERS`, every tensor workload once at the analytical
    tier.  Each op moves the workload's nonzero count by an offset from
    a window no other (round, slot) uses, so every fingerprint is new.
    """
    rng = _rng("predict_fresh", seed, rnd)
    ops: list[PredictOp] = []
    slots = len(MATRIX_TIERS)
    for w, wl in enumerate(table3_matrix()):
        for s, tier in enumerate(MATRIX_TIERS):
            window = (rnd * slots + s) * OFFSET_WINDOW
            offset = 1 + window + rng.randrange(OFFSET_WINDOW)
            ops.append(PredictOp((w, s), tier, _with_nnz_offset(
                wl, offset, f"r{rnd}s{s}")))
    for w, wl in enumerate(table3_tensor()):
        offset = 1 + rnd * slots * OFFSET_WINDOW + rng.randrange(OFFSET_WINDOW)
        ops.append(PredictOp(("t", w), "tensor", _with_nnz_offset(
            wl, offset, f"r{rnd}")))
    rng.shuffle(ops)
    return ops


def predict_warmup() -> list[PredictOp]:
    """Unmodified Table III rows (offset 0, never in a round) per tier."""
    wl = table3_matrix()[0]
    ops = [PredictOp(("w", t), t, wl) for t in ("analytical", "calibrated",
                                                "cycle")]
    return ops + [PredictOp(("w", "t"), "tensor", table3_tensor()[0])]


def predict_pairs(seed: int) -> list[tuple[PredictOp, PredictOp]]:
    """Round 0 ops paired with round 1's op of the same slot.

    The traced pass runs one op of each pair traced and the other
    untraced, so both sides of the overhead ratio price the same mix.
    """
    partner = {op.slot: op for op in predict_round(seed, 1)}
    return [(op, partner[op.slot]) for op in predict_round(seed, 0)]


# ------------------------------------------------------------------ run_sweep
@dataclass(frozen=True)
class RunOp:
    """One ``Session.run`` of a ladder workload with a fixed operand seed."""

    workload: MatrixWorkload
    seed: int


def sweep_ops(seed: int) -> list[RunOp]:
    """The 28 ladder workloads (SpMM, SpGEMM x 14 densities), seeded."""
    rng = _rng("run_sweep", seed)
    m, k, n = SWEEP_DIMS
    ops = []
    for kernel in MATRIX_KERNELS:
        for i in range(SWEEP_STEPS):
            density = 0.75 * 2.0 ** -i
            nnz_b = k * n if kernel is Kernel.SPMM else max(
                1, round(density * k * n))
            wl = MatrixWorkload(
                name=f"ladder-{kernel.value}-{i}", kernel=kernel, m=m, k=k,
                n=n, nnz_a=max(1, round(density * m * k)), nnz_b=nnz_b,
            )
            ops.append(RunOp(wl, rng.randrange(2**31)))
    return ops


def sweep_pass(seed: int, index: int) -> list[RunOp]:
    """Pass *index*: the ladder in a seeded order (operands unchanged)."""
    ops = sweep_ops(seed)
    _rng("run_sweep", seed, index).shuffle(ops)
    return ops


# ----------------------------------------------------------------- serve_zipf
@dataclass(frozen=True)
class ServeOp:
    """One request: a population hit, a same-band near hit, or a miss."""

    kind: str  # hit | near | miss
    workload: MatrixWorkload | TensorWorkload
    check: bool = False  # keep the reply for the local-parity check


def _band(value: int) -> tuple[int, int]:
    """Power-of-two band ``[lo, hi)`` holding *value* (serve's banding)."""
    lo = 1 << (max(1, value).bit_length() - 1)
    return lo, 2 * lo


def serve_population() -> list[MatrixWorkload | TensorWorkload]:
    """The fixed population: every Table III row, matrix and tensor."""
    return table3_matrix() + table3_tensor()


def _near_variant(wl, j: int):
    """A same-band variant of *wl*: new nonzero count in its nnz band."""
    if isinstance(wl, MatrixWorkload):
        nnz, size = wl.nnz_a, wl.m * wl.k
    else:
        nnz, size = wl.nnz, wl.shape[0] * wl.shape[1] * wl.shape[2]
    lo, hi = _band(nnz)
    width = min(hi, size + 1) - lo
    new = lo + (nnz - lo + 1 + j) % width
    if isinstance(wl, MatrixWorkload):
        return replace(wl, name=f"{wl.name}~{j}", nnz_a=new)
    return replace(wl, name=f"{wl.name}~{j}", nnz=new)


def _miss_bands(seed: int) -> list[tuple]:
    """Seeded order of (kernel, m, k, n, density) band combinations.

    Each combination is a distinct serve band key; the caller skips any
    that equals a population band.
    """
    combos = list(itertools.product(
        MATRIX_KERNELS, range(7, 13), range(7, 13), range(6, 11),
        range(2, 12),
    ))
    _rng("serve_zipf", "miss", seed).shuffle(combos)
    return combos


def _miss_workload(combo: tuple, rng: random.Random, index: int):
    kernel, mb, kb, nb, db = combo
    m = rng.randrange(1 << mb, 1 << (mb + 1))
    k = rng.randrange(1 << kb, 1 << (kb + 1))
    n = rng.randrange(1 << nb, 1 << (nb + 1))
    # Nonzero bands fixed by the combination (density ~ 2^-db), so two
    # combinations never share a band key.
    lo = 1 << (mb + kb - db)
    nnz_a = rng.randrange(lo, 2 * lo)
    if kernel is Kernel.SPMM:
        nnz_b = k * n
    else:
        lo_b = 1 << max(0, kb + nb - db)
        nnz_b = rng.randrange(lo_b, 2 * lo_b)
    return MatrixWorkload(
        name=f"miss-{index}", kernel=kernel, m=m, k=k, n=n,
        nnz_a=nnz_a, nnz_b=nnz_b,
    )


def serve_stream(seed: int, conn: int, conns: int = 2) -> Iterator[ServeOp]:
    """The endless request stream of connection *conn* of *conns*.

    Hits follow Zipf(:data:`ZIPF_S`) over the population, ranked in
    population order.  Near variants and misses use indexes striped across
    connections (``j * conns + conn``), so no two requests of the run
    share a fingerprint unless they are hits.
    """
    from repro.accelerator.config import AcceleratorConfig
    from repro.serve.fingerprint import fingerprint_of

    config = AcceleratorConfig.paper_default()
    population = serve_population()
    taken = {fingerprint_of(wl, config).band_key() for wl in population}
    # Zipf ranks follow the population order: which rows are hot is part
    # of the fixed traffic model, the seed draws the sequence.
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(population))]
    combos = _miss_bands(seed)
    miss_rng = _rng("serve_zipf", "miss-dims", seed, conn)
    rng = _rng("serve_zipf", seed, conn)
    near_j = combo_j = checks = 0
    while True:
        draw = rng.random()
        if draw < MISS_SHARE:
            while True:
                slot = combo_j * conns + conn
                combo_j += 1
                if slot >= len(combos):
                    raise RuntimeError("serve_zipf ran out of miss bands")
                wl = _miss_workload(combos[slot], miss_rng, slot)
                if fingerprint_of(wl, config).band_key() not in taken:
                    break
            op_kind = "miss"
        elif draw < MISS_SHARE + NEAR_SHARE:
            base = rng.choices(population, weights)[0]
            wl = _near_variant(base, near_j * conns + conn)
            near_j += 1
            op_kind = "near"
        else:
            wl = rng.choices(population, weights)[0]
            op_kind = "hit"
        check = (
            op_kind != "near" and checks < CHECK_CAP
            and rng.random() < CHECK_SHARE
        )
        checks += check
        yield ServeOp(op_kind, wl, check)


# ----------------------------------------------------------------- batch_grid
def experiment_order(names: list[str], seed: int, iteration: int) -> list[str]:
    """The registered experiments in a seeded order (the flat cell order)."""
    order = list(names)
    _rng("batch_grid", seed, iteration).shuffle(order)
    return order
