"""The menu pricers are wire-identical to per-combo pricing.

``price_matrix_menu`` / ``price_tensor_menu`` price each separable cost
term once per distinct key; ``_percombo_oracle`` prices every candidate
from scratch.  Every ranking SAGE ships, and every policy's best candidate,
must match the oracle's field for field (floats included), and the
feasible/infeasible candidate counts must be unchanged.
"""

from __future__ import annotations

import dataclasses
import pickle
from itertools import product

import pytest

from _percombo_oracle import (
    evaluate_matrix_combo,
    evaluate_tensor_combo,
    matrix_combos,
    tensor_combos,
)
from repro.baselines import ALL_POLICIES, evaluate_policy
from repro.baselines.cpu import CpuModel
from repro.baselines.evaluate import sw_provider_factory
from repro.baselines.policies import ConverterKind
from repro.hardware.dram import DramChannel
from repro.obs import registry
from repro.sage import Sage
from repro.sage.cost_model import mint_provider
from repro.sage.spaces import (
    MATRIX_ACF_STATIONARY,
    MATRIX_ACF_STREAMED,
    MATRIX_MCF,
    TENSOR_ACF,
    TENSOR_MCF,
)
from repro.tune.space import TunePoint
from repro.workloads import MATRIX_SUITE, TENSOR_SUITE, Kernel

#: Added to the streamed operand's nnz (clamped to its size), so the
#: parity also holds off the suite's exact statistics.
NNZ_OFFSETS = (0, -1, 7, -1000)

MATRIX_KERNELS = (Kernel.SPMM, Kernel.SPGEMM)
TENSOR_KERNELS = (Kernel.SPTTM, Kernel.MTTKRP)


def _matrix_workloads():
    for entry, kernel, offset in product(
        MATRIX_SUITE, MATRIX_KERNELS, NNZ_OFFSETS
    ):
        wl = entry.matrix_workload(kernel)
        nnz_a = min(wl.m * wl.k, max(0, wl.nnz_a + offset))
        yield pytest.param(
            dataclasses.replace(wl, nnz_a=nnz_a),
            id=f"{entry.name}-{kernel.value}-{offset:+d}",
        )


def _tensor_workloads():
    for entry, kernel, offset in product(
        TENSOR_SUITE, TENSOR_KERNELS, NNZ_OFFSETS
    ):
        wl = entry.tensor_workload(kernel)
        nnz = min(wl.size, max(0, wl.nnz + offset))
        yield pytest.param(
            dataclasses.replace(wl, nnz=nnz),
            id=f"{entry.name}-{kernel.value}-{offset:+d}",
        )


def _oracle(price, workload, combos, **kwargs):
    """(ranking wire, feasible, infeasible) of per-combo pricing."""
    costs = [price(workload, mcf, acf, **kwargs) for mcf, acf in combos]
    feasible = [cost for cost in costs if cost is not None]
    ranking = sorted(feasible, key=lambda cost: cost.edp)
    return (
        [cost.to_wire() for cost in ranking],
        len(feasible),
        len(costs) - len(feasible),
    )


def _candidate_counts(kind):
    counter = registry().counter("repro_sage_candidates_total")
    return (
        counter.value(kind=kind, feasible="yes"),
        counter.value(kind=kind, feasible="no"),
    )


def _predicted(kind, predict, *args, **kwargs):
    """(ranking wire, feasible delta, infeasible delta) of one predict."""
    yes0, no0 = _candidate_counts(kind)
    decision = predict(*args, **kwargs)
    yes1, no1 = _candidate_counts(kind)
    return (
        [cost.to_wire() for cost in decision.ranking],
        yes1 - yes0,
        no1 - no0,
    )


SAGE = Sage()
#: A realizable non-paper design: smaller array, narrower bus, slower DRAM.
TUNED = TunePoint(
    num_pes=1024, vector_lanes=4, pe_buffer_bytes=256, bus_bits=256,
    dram_gbps=32.0,
)
TUNED_SAGE = Sage(config=TUNED.accelerator_config(), dram=TUNED.dram_channel())


class TestMatrixMenu:
    @pytest.mark.parametrize("workload", list(_matrix_workloads()))
    def test_full_search(self, workload):
        expected = _oracle(evaluate_matrix_combo, workload, matrix_combos())
        got = _predicted("matrix", SAGE.predict_matrix, workload)
        assert got == expected

    @pytest.mark.parametrize(
        "fixed_mcf", list(product(MATRIX_MCF, MATRIX_MCF)),
        ids=lambda pair: f"{pair[0].value}-{pair[1].value}",
    )
    def test_fixed_mcf(self, fixed_mcf):
        workload = MATRIX_SUITE[3].matrix_workload(Kernel.SPGEMM)
        expected = _oracle(
            evaluate_matrix_combo, workload, matrix_combos(fixed_mcf=fixed_mcf)
        )
        got = _predicted(
            "matrix", SAGE.predict_matrix, workload, fixed_mcf=fixed_mcf
        )
        assert got == expected

    @pytest.mark.parametrize("fmt", MATRIX_MCF, ids=lambda f: f.value)
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_singleton_operand_space(self, side, fmt):
        workload = MATRIX_SUITE[0].matrix_workload(Kernel.SPMM)
        space = {f"mcf_{side}": (fmt,)}
        expected = _oracle(
            evaluate_matrix_combo, workload, matrix_combos(**space)
        )
        got = _predicted(
            "matrix", SAGE.predict_matrix, workload,
            **{f"mcf_{side}_space": (fmt,)},
        )
        assert got == expected

    @pytest.mark.parametrize("entry", MATRIX_SUITE[:4], ids=lambda e: e.name)
    def test_no_provider(self, entry):
        workload = entry.matrix_workload(Kernel.SPGEMM)
        sage = Sage(provider=None)
        expected = _oracle(
            evaluate_matrix_combo, workload, matrix_combos(), provider=None
        )
        got = _predicted("matrix", sage.predict_matrix, workload)
        assert got == expected

    @pytest.mark.parametrize("entry", MATRIX_SUITE[:4], ids=lambda e: e.name)
    def test_tuned_config(self, entry):
        workload = entry.matrix_workload(Kernel.SPMM)
        expected = _oracle(
            evaluate_matrix_combo, workload, matrix_combos(),
            config=TUNED_SAGE.config, dram=TUNED_SAGE.dram,
        )
        got = _predicted("matrix", TUNED_SAGE.predict_matrix, workload)
        assert got == expected


class TestTensorMenu:
    @pytest.mark.parametrize("workload", list(_tensor_workloads()))
    def test_full_search(self, workload):
        expected = _oracle(evaluate_tensor_combo, workload, tensor_combos())
        got = _predicted("tensor", SAGE.predict_tensor, workload)
        assert got == expected

    @pytest.mark.parametrize(
        "fixed_mcf", list(product(TENSOR_MCF, MATRIX_MCF)),
        ids=lambda pair: f"{pair[0].value}-{pair[1].value}",
    )
    def test_fixed_mcf(self, fixed_mcf):
        workload = TENSOR_SUITE[0].tensor_workload(Kernel.MTTKRP)
        expected = _oracle(
            evaluate_tensor_combo, workload, tensor_combos(fixed_mcf=fixed_mcf)
        )
        got = _predicted(
            "tensor", SAGE.predict_tensor, workload, fixed_mcf=fixed_mcf
        )
        assert got == expected

    @pytest.mark.parametrize("kernel", TENSOR_KERNELS, ids=lambda k: k.value)
    def test_no_provider(self, kernel):
        workload = TENSOR_SUITE[1].tensor_workload(kernel)
        sage = Sage(provider=None)
        expected = _oracle(
            evaluate_tensor_combo, workload, tensor_combos(), provider=None
        )
        got = _predicted("tensor", sage.predict_tensor, workload)
        assert got == expected

    @pytest.mark.parametrize("kernel", TENSOR_KERNELS, ids=lambda k: k.value)
    def test_tuned_config(self, kernel):
        workload = TENSOR_SUITE[2].tensor_workload(kernel)
        expected = _oracle(
            evaluate_tensor_combo, workload, tensor_combos(),
            config=TUNED_SAGE.config, dram=TUNED_SAGE.dram,
        )
        got = _predicted("tensor", TUNED_SAGE.predict_tensor, workload)
        assert got == expected


def _oracle_policy_best(workload, policy):
    """The pre-menu evaluate_policy scan: first candidate of least EDP."""
    dram = DramChannel(clock_hz=SAGE.config.clock_hz)
    if policy.converter is ConverterKind.NONE:
        provider = None
    elif policy.converter is ConverterKind.HW:
        provider = mint_provider
    else:
        provider = sw_provider_factory(CpuModel(), SAGE.config.clock_hz)
    best = None
    for mcf, acf in policy.candidates():
        cost = evaluate_matrix_combo(
            workload, mcf, acf, dram=dram, provider=provider,
            flexible_noc=policy.zero_skipping,
        )
        if cost is not None and (best is None or cost.edp < best.edp):
            best = cost
    return best


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("kernel", MATRIX_KERNELS, ids=lambda k: k.value)
def test_policy_best_matches_per_combo_scan(policy, kernel):
    for entry in MATRIX_SUITE:
        workload = entry.matrix_workload(kernel)
        expected = _oracle_policy_best(workload, policy)
        got = evaluate_policy(workload, policy).best
        assert got.to_wire() == expected.to_wire(), entry.name


def test_combos_keep_flat_product_order():
    """Tie order in a ranking follows enumeration order, so pin it."""
    assert list(matrix_combos()) == [
        ((a, b), (x, y))
        for a, b, x, y in product(
            MATRIX_MCF, MATRIX_MCF, MATRIX_ACF_STREAMED, MATRIX_ACF_STATIONARY
        )
    ]
    assert list(tensor_combos()) == [
        ((t, f), (x, y))
        for t, f, x, y in product(
            TENSOR_MCF, MATRIX_MCF, TENSOR_ACF, MATRIX_ACF_STATIONARY
        )
    ]


def test_ranking_survives_pickle_with_shared_pairs():
    """xp pool workers ship results by pickle."""
    decision = SAGE.predict_matrix(MATRIX_SUITE[0].matrix_workload(Kernel.SPMM))
    shipped = pickle.loads(pickle.dumps(decision))
    assert [c.to_wire() for c in shipped.ranking] == [
        c.to_wire() for c in decision.ranking
    ]
    assert shipped == decision
    assert len({id(c.mcf) for c in shipped.ranking}) == len(
        {c.mcf for c in shipped.ranking}
    )
