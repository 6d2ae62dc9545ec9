"""Seeded generation: the same seed gives the same request sequence."""

from __future__ import annotations

import itertools

from perfbench import inputs
from repro.accelerator.config import AcceleratorConfig
from repro.serve.fingerprint import fingerprint_of
from repro.workloads.spec import Kernel


def _wire(ops):
    return [(getattr(op, "tier", getattr(op, "kind", None)),
             getattr(op, "seed", None), op.workload.to_dict())
            for op in ops]


def _serve(seed, conn, n=3000):
    return list(itertools.islice(inputs.serve_stream(seed, conn), n))


def test_every_workload_repeats_for_one_seed_and_moves_with_it():
    for make in (
        lambda s: inputs.predict_round(s, 0) + inputs.predict_round(s, 1),
        lambda s: inputs.sweep_pass(s, 0) + inputs.sweep_pass(s, 3),
        lambda s: _serve(s, 0) + _serve(s, 1),
    ):
        assert _wire(make(7)) == _wire(make(7))
        assert _wire(make(7)) != _wire(make(8))
    names = ["a", "b", "c", "d", "e"]
    assert (inputs.experiment_order(names, 7, 0)
            == inputs.experiment_order(names, 7, 0))
    assert sorted(inputs.experiment_order(names, 7, 1)) == names


def test_predict_fresh_never_repeats_a_fingerprint():
    config = AcceleratorConfig.paper_default()
    ops = [op for r in range(4) for op in inputs.predict_round(3, r)]
    keys = [(op.fidelity, fingerprint_of(op.workload, config).exact_key())
            for op in ops + inputs.predict_warmup()]
    assert len(keys) == len(set(keys))
    assert len(inputs.predict_round(3, 0)) == 20 * 4 + 6
    for a, b in inputs.predict_pairs(3):
        assert (a.slot, a.tier) == (b.slot, b.tier)
        assert a.workload != b.workload


def test_sweep_ladder_is_the_octave_ladder_in_both_kernels():
    ops = inputs.sweep_ops(0)
    assert len(ops) == 28
    spmm = [op.workload for op in ops if op.workload.kernel is Kernel.SPMM]
    assert [w.nnz_a for w in spmm][:3] == [196608, 98304, 49152]
    assert all((w.m, w.k, w.n) == (512, 512, 256) for w in spmm)
    assert {op.seed for op in inputs.sweep_pass(0, 1)} == {
        op.seed for op in ops}


def test_serve_kinds_hold_by_construction():
    config = AcceleratorConfig.paper_default()
    population = inputs.serve_population()
    exact = {fingerprint_of(w, config).exact_key() for w in population}
    bands = {fingerprint_of(w, config).band_key() for w in population}
    assert len(bands) == len(population)  # no population near-hits itself
    seen_new = set()
    ops = _serve(5, 0) + _serve(5, 1)
    for op in ops:
        fp = fingerprint_of(op.workload, config)
        if op.kind == "hit":
            assert fp.exact_key() in exact
        elif op.kind == "near":
            assert fp.band_key() in bands and fp.exact_key() not in exact
            assert fp.exact_key() not in seen_new
            seen_new.add(fp.exact_key())
        else:
            assert fp.band_key() not in bands
            assert fp.band_key() not in seen_new
            seen_new.add(fp.band_key())
    kinds = [op.kind for op in ops]
    assert kinds.count("miss") > 0 and kinds.count("near") > 0
    assert 0 < sum(op.check for op in ops) <= 2 * inputs.CHECK_CAP
    assert not any(op.check for op in ops if op.kind == "near")
