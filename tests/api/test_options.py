"""PredictOptions / RunOptions: validation, merging, wire round trips."""

from __future__ import annotations

import json

import pytest

from repro.api.options import (
    FIDELITIES,
    PredictOptions,
    RunOptions,
    SUPPORTED_WIRE_SCHEMAS,
    WIRE_SCHEMA_VERSION,
    resolve_options,
)
from repro.errors import PredictionError
from repro.formats.registry import Format


class TestPredictOptionsValidation:
    def test_defaults_are_unrestricted(self):
        opts = PredictOptions()
        # fidelity=None defers to the backend's default tier (analytical
        # in-process, the server's configured tier remotely).
        assert opts.fidelity is None
        assert opts.local_fidelity == "analytical"
        assert not opts.restricts_search

    def test_explicit_fidelity_sticks(self):
        assert PredictOptions(fidelity="cycle").local_fidelity == "cycle"

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(PredictionError, match="unknown fidelity"):
            PredictOptions(fidelity="oracular")

    def test_fixed_mcf_coerced_from_values(self):
        opts = PredictOptions(fixed_mcf=("CSR", "Dense"))
        assert opts.fixed_mcf == (Format.CSR, Format.DENSE)
        assert opts.restricts_search

    def test_fixed_mcf_wrong_arity_rejected(self):
        with pytest.raises(PredictionError, match="exactly two"):
            PredictOptions(fixed_mcf=(Format.CSR,))

    def test_unknown_format_rejected(self):
        with pytest.raises(PredictionError, match="unknown format"):
            PredictOptions(mcf_a_space=("CSR", "Quux"))

    def test_empty_space_rejected(self):
        with pytest.raises(PredictionError, match="must not be empty"):
            PredictOptions(mcf_b_space=())

    @pytest.mark.parametrize("field,value", [("top_k", 0), ("processes", 0)])
    def test_nonpositive_counts_rejected(self, field, value):
        with pytest.raises(PredictionError):
            PredictOptions(**{field: value})

    def test_spaces_mark_restriction(self):
        assert PredictOptions(mcf_a_space=(Format.CSR,)).restricts_search
        assert PredictOptions(mcf_b_space=(Format.DENSE,)).restricts_search
        assert not PredictOptions(top_k=3, processes=2).restricts_search


class TestHardwareOverrides:
    def test_defaults_do_not_override(self):
        opts = PredictOptions()
        assert opts.config is None and opts.dram_gbps is None
        assert not opts.overrides_hardware

    def test_config_marks_override(self):
        from repro.accelerator.config import AcceleratorConfig

        opts = PredictOptions(config=AcceleratorConfig.paper_default())
        assert opts.overrides_hardware
        assert not opts.restricts_search  # orthogonal to search narrowing

    def test_dram_marks_override(self):
        assert PredictOptions(dram_gbps=32.0).overrides_hardware

    def test_config_dict_coerced(self):
        from repro.accelerator.config import AcceleratorConfig

        data = AcceleratorConfig.paper_default().to_dict()
        opts = PredictOptions(config=data)
        assert opts.config == AcceleratorConfig.paper_default()

    def test_nonpositive_dram_rejected(self):
        with pytest.raises(PredictionError, match="dram_gbps"):
            PredictOptions(dram_gbps=0.0)

    def test_wire_omits_unset_override_keys(self):
        # Wire shape must stay identical for non-tuning clients so that
        # old servers keep accepting new clients (and vice versa).
        wire = PredictOptions(fidelity="cycle").to_wire()
        assert "config" not in wire and "dram_gbps" not in wire

    def test_wire_round_trip_with_overrides(self):
        from repro.accelerator.config import AcceleratorConfig

        opts = PredictOptions(
            config=AcceleratorConfig.paper_default(), dram_gbps=256.0
        )
        rebuilt = PredictOptions.from_wire(json.loads(json.dumps(opts.to_wire())))
        assert rebuilt == opts
        assert rebuilt.overrides_hardware

    def test_legacy_wire_still_parses(self):
        # Payloads emitted before the override fields existed carry
        # neither key; they must decode to non-overriding options.
        legacy = {"fidelity": "analytical", "top_k": 1}
        opts = PredictOptions.from_wire(legacy)
        assert not opts.overrides_hardware


class TestResolveOptions:
    def test_none_yields_defaults(self):
        assert resolve_options() == PredictOptions()

    def test_overrides_win(self):
        base = PredictOptions(fidelity="analytical", top_k=5)
        merged = resolve_options(base, fidelity="cycle")
        assert merged.fidelity == "cycle"
        assert merged.top_k == 5

    def test_none_overrides_keep_base(self):
        base = PredictOptions(fixed_mcf=(Format.CSR, Format.DENSE))
        assert resolve_options(base, fixed_mcf=None) == base

    def test_unknown_fidelity_override_rejected_naming_tiers(self):
        # Caught at resolution time, naming the registered tiers — not
        # deep inside the predictor after the search already ran.
        with pytest.raises(PredictionError, match="registered tiers"):
            resolve_options(PredictOptions(), fidelity="oracular")

    def test_calibrated_is_a_registered_tier(self):
        assert resolve_options(fidelity="calibrated").fidelity == "calibrated"


class TestPredictOptionsWire:
    @pytest.mark.parametrize(
        "opts",
        [
            PredictOptions(),
            PredictOptions(fidelity="cycle", top_k=3, processes=2),
            PredictOptions(
                fixed_mcf=(Format.CSR, Format.DENSE),
                mcf_a_space=(Format.CSR, Format.COO),
                mcf_b_space=(Format.DENSE,),
            ),
        ],
    )
    def test_round_trip(self, opts):
        assert PredictOptions.from_wire(opts.to_wire()) == opts

    def test_wire_is_json_safe(self):
        opts = PredictOptions(fixed_mcf=(Format.RLC, Format.ZVC), top_k=2)
        rebuilt = PredictOptions.from_wire(json.loads(json.dumps(opts.to_wire())))
        assert rebuilt == opts

    def test_unknown_wire_field_rejected(self):
        with pytest.raises(PredictionError, match="unknown PredictOptions"):
            PredictOptions.from_wire({"fidelity": "analytical", "mcf": ["CSR"]})

    def test_schema_constants_consistent(self):
        assert WIRE_SCHEMA_VERSION in SUPPORTED_WIRE_SCHEMAS
        assert set(FIDELITIES) == {"analytical", "calibrated", "cycle"}


class TestRunOptions:
    def test_round_trip(self):
        opts = RunOptions(
            predict=PredictOptions(fidelity="cycle", top_k=2),
            seed=7,
            verify=False,
            max_sim_elements=1 << 12,
        )
        assert RunOptions.from_wire(json.loads(json.dumps(opts.to_wire()))) == opts

    @pytest.mark.parametrize(
        "data",
        [{"sim_cap": 4}, {"engine": "reference"}, {"engine": "vectorized"}],
    )
    def test_unknown_wire_field_rejected(self, data):
        (name,) = data
        with pytest.raises(PredictionError, match="unknown RunOptions") as err:
            RunOptions.from_wire(data)
        assert name in str(err.value)

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(PredictionError, match="max_sim_elements"):
            RunOptions(max_sim_elements=0)
