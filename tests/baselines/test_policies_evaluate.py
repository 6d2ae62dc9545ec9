"""Table II policies and the Fig. 12/13 policy evaluation."""

from __future__ import annotations

import pytest

from repro.baselines import (
    ALL_POLICIES,
    ConverterKind,
    CpuModel,
    GpuModel,
    evaluate_all,
    evaluate_policy,
)
from repro.formats.registry import Format
from repro.workloads import Kernel, suite_by_name

POLICY = {policy.name: policy for policy in ALL_POLICIES}


class TestPolicies:
    def test_seven_table2_rows(self):
        assert len(ALL_POLICIES) == 7
        names = {p.name for p in ALL_POLICIES}
        assert names == {
            "Fix_Fix_None",
            "Fix_Fix_None2",
            "Fix_Flex_HW",
            "Flex_Flex_None",
            "Flex_Fix_HW",
            "Flex_Flex_SW",
            "Flex_Flex_HW",
        }

    def test_tpu_single_candidate(self):
        tpu = POLICY["Fix_Fix_None"]
        cands = list(tpu.candidates())
        assert cands == [((Format.DENSE, Format.DENSE), (Format.DENSE, Format.DENSE))]
        assert not tpu.zero_skipping

    def test_none_converter_forces_mcf_equals_acf(self):
        extensor = POLICY["Flex_Flex_None"]
        for mcf, acf in extensor.candidates():
            assert mcf == acf

    def test_sigma_fixed_zvc_mcf(self):
        sigma = POLICY["Fix_Flex_HW"]
        for mcf, _acf in sigma.candidates():
            assert mcf == (Format.ZVC, Format.ZVC)

    def test_this_work_has_largest_space(self):
        sizes = {p.name: len(list(p.candidates())) for p in ALL_POLICIES}
        assert sizes["Flex_Flex_HW"] == max(sizes.values())


class TestEvaluation:
    @pytest.fixture(scope="class")
    def speech2_results(self):
        wl = suite_by_name("speech2").matrix_workload(Kernel.SPGEMM)
        return evaluate_all(wl)

    def test_this_work_never_loses(self, speech2_results):
        """SAGE searches a superset of every baseline's space on the same
        hardware, so Flex_Flex_HW must be the (weak) minimum."""
        ours = speech2_results["Flex_Flex_HW"].edp
        for name, result in speech2_results.items():
            assert ours <= result.edp * 1.0001, name

    def test_tpu_worst_on_sparse_workload(self, speech2_results):
        tpu = speech2_results["Fix_Fix_None"].edp
        for name, result in speech2_results.items():
            if name != "Fix_Fix_None":
                assert result.edp <= tpu, name

    def test_mint_beats_software_conversion(self):
        """Fig. 10's system-level consequence: HW conversion >= SW conversion."""
        wl = suite_by_name("speech1").matrix_workload(Kernel.SPMM)
        hw = evaluate_policy(wl, POLICY["Flex_Flex_HW"])
        sw_cpu = evaluate_policy(
            wl, POLICY["Flex_Flex_SW"], sw_device=CpuModel()
        )
        sw_gpu = evaluate_policy(
            wl, POLICY["Flex_Flex_SW"], sw_device=GpuModel()
        )
        assert hw.edp <= sw_cpu.edp
        assert hw.edp <= sw_gpu.edp

    def test_journals_prefers_dense_over_eie(self):
        """Fig. 12a: on the 78.5%-dense journals, Fix_Fix_None2 (EIE) is
        beaten by plain dense (Fix_Fix_None)."""
        wl = suite_by_name("journals").matrix_workload(Kernel.SPGEMM)
        res = evaluate_all(wl)
        assert res["Fix_Fix_None"].edp < res["Fix_Fix_None2"].edp

    def test_m3plates_flexibility_gap(self):
        """Fig. 12c: on the extremely sparse m3plates, flexible designs are
        far ahead of the fixed-dense ones."""
        wl = suite_by_name("m3plates").matrix_workload(Kernel.SPGEMM)
        res = evaluate_all(wl)
        assert res["Flex_Flex_HW"].edp * 10 < res["Fix_Fix_None"].edp

    def test_result_records_choice(self, speech2_results):
        best = speech2_results["Flex_Flex_HW"].best
        assert best.mcf[0] in tuple(Format)
        assert best.edp > 0
