"""Typed request options for the :class:`~repro.api.session.Session` facade.

One option object replaces the four differently-shaped ``Sage.predict*``
keyword sets: :class:`PredictOptions` consolidates every search knob the
predictor understands (fidelity tier, search-space restrictions, ranking
truncation, hardware overrides), and :class:`RunOptions` adds the
convert+simulate knobs of the end-to-end :meth:`Session.run` pipeline.

Both are frozen dataclasses with JSON-safe ``to_wire``/``from_wire`` forms.
The wire form is **versioned** (:data:`WIRE_SCHEMA_VERSION`) and shared
with :mod:`repro.serve`: a serve request that carries ``options`` must
declare ``schema_version >= 2``; requests without a ``schema_version`` are
treated as the PR-2-era legacy schema (version 1, plain workload dicts)
and keep working unchanged.

This module sits below both ``repro.sage`` and ``repro.serve`` in the
import graph (it only needs the format registry and the error hierarchy),
so the predictor, the server and the client all share one schema
definition instead of three ad-hoc dict shapes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.accelerator.config import AcceleratorConfig
from repro.errors import PredictionError
from repro.formats.registry import Format

__all__ = [
    "FIDELITIES",
    "ensure_fidelity",
    "PredictOptions",
    "RunOptions",
    "SUPPORTED_WIRE_SCHEMAS",
    "WIRE_SCHEMA_VERSION",
    "resolve_options",
]

#: Recognized prediction fidelity tiers (see ``repro.sage.predictor``):
#: the full ladder is analytical (closed-form search), calibrated
#: (analytical candidates corrected by measured per-cell factors, see
#: ``repro.sage.calibrate``), and cycle (simulator re-ranking).
FIDELITIES = ("analytical", "calibrated", "cycle")


def ensure_fidelity(fidelity: str | None) -> str | None:
    """Validate a fidelity string against the registered tiers.

    Every entry point that accepts a fidelity funnels through this (the
    ``PredictOptions`` constructor and :func:`resolve_options`), so an
    unknown tier fails at option-resolution time with an error naming
    the ladder — never deep inside the predictor or, worse, silently
    answered at the wrong tier.
    """
    if fidelity is not None and fidelity not in FIDELITIES:
        raise PredictionError(
            f"unknown fidelity {fidelity!r} (registered tiers: "
            f"{', '.join(FIDELITIES)})"
        )
    return fidelity

#: The wire schema this build writes.  Version 1 is the PR-2 legacy shape
#: (a bare workload dict, no ``schema_version`` / ``options`` keys).
WIRE_SCHEMA_VERSION = 2

#: Schema versions the serve layer still answers.
SUPPORTED_WIRE_SCHEMAS = (1, 2)


def _as_format(value: Any, *, name: str) -> Format:
    if isinstance(value, Format):
        return value
    try:
        return Format(value)
    except ValueError:
        raise PredictionError(
            f"{name}: unknown format {value!r} (choose from "
            f"{', '.join(f.value for f in Format)})"
        ) from None


def _format_pair(value: Any, *, name: str) -> tuple[Format, Format]:
    pair = tuple(_as_format(v, name=name) for v in value)
    if len(pair) != 2:
        raise PredictionError(f"{name} must name exactly two formats")
    return pair  # type: ignore[return-value]


def _format_space(value: Any, *, name: str) -> tuple[Format, ...]:
    space = tuple(_as_format(v, name=name) for v in value)
    if not space:
        raise PredictionError(f"{name} must not be empty")
    return space


@dataclass(frozen=True)
class PredictOptions:
    """Every knob of one SAGE prediction, in one typed object.

    Attributes
    ----------
    fidelity:
        ``"analytical"`` (closed-form search), ``"calibrated"`` (the
        analytical candidates corrected by measured per-(kernel, ACF,
        density-band) factors — analytical latency, near-cycle ranking;
        needs a table built by ``repro calibrate``), ``"cycle"``
        (analytical top-k re-ranked on the cycle-level simulator), or
        ``None`` — the backend's default tier: analytical in-process,
        the server's configured ``ServeConfig.fidelity`` remotely.
        Naming a tier explicitly against a server running a different
        one bypasses the server's (tier-consistent) decision cache.
    fixed_mcf:
        Restrict the search to ACFs: the programmer has already committed
        both storage formats (Sec. VI's predetermined-MCF scenario).
    mcf_a_space, mcf_b_space:
        Restrict one operand's MCF candidates (used by the pipeline
        planner, where a stage inherits its predecessor's output format).
        Matrix workloads only.
    top_k:
        Ranking prefix kept on the returned decision (``None`` = full
        ranking).  ``best`` is always retained.
    config:
        Evaluate against this :class:`~repro.accelerator.config.\
AcceleratorConfig` instead of the backend's resident one (accepts the
        ``to_dict`` form too).  The ``repro.tune`` autotuner rides this to
        make every (workload, hardware) pair a servable query; like the
        search restrictions it bypasses decision caches, whose fingerprints
        assume the resident config.
    dram_gbps:
        Override the DRAM channel bandwidth (GB/s) alongside ``config``;
        ``None`` keeps the backend's channel.

    Example
    -------
    >>> from repro import Format, PredictOptions
    >>> opts = PredictOptions(fixed_mcf=("CSR", "Dense"), top_k=4)
    >>> opts.fixed_mcf == (Format.CSR, Format.DENSE)  # coerced to Format
    True
    >>> opts.restricts_search  # restricted searches bypass decision caches
    True
    >>> PredictOptions.from_wire(opts.to_wire()) == opts
    True
    """

    fidelity: str | None = None
    fixed_mcf: tuple[Format, Format] | None = None
    mcf_a_space: tuple[Format, ...] | None = None
    mcf_b_space: tuple[Format, ...] | None = None
    top_k: int | None = None
    config: AcceleratorConfig | None = None
    dram_gbps: float | None = None

    def __post_init__(self) -> None:
        ensure_fidelity(self.fidelity)
        if self.fixed_mcf is not None:
            object.__setattr__(
                self, "fixed_mcf", _format_pair(self.fixed_mcf, name="fixed_mcf")
            )
        for name in ("mcf_a_space", "mcf_b_space"):
            space = getattr(self, name)
            if space is not None:
                object.__setattr__(self, name, _format_space(space, name=name))
        if self.top_k is not None and self.top_k < 1:
            raise PredictionError("top_k must be a positive ranking length")
        if self.config is not None and not isinstance(self.config, AcceleratorConfig):
            object.__setattr__(
                self, "config", AcceleratorConfig.from_dict(self.config)
            )
        if self.dram_gbps is not None:
            object.__setattr__(self, "dram_gbps", float(self.dram_gbps))
            if self.dram_gbps <= 0:
                raise PredictionError("dram_gbps must be positive")

    @property
    def restricts_search(self) -> bool:
        """True when any search-space restriction is active.

        Restricted decisions are workload-dependent in a way fingerprints
        do not capture, so caches (local and serve-side) must not answer
        them with unrestricted entries — both backends bypass their
        decision caches when this is set.
        """
        return (
            self.fixed_mcf is not None
            or self.mcf_a_space is not None
            or self.mcf_b_space is not None
        )

    @property
    def overrides_hardware(self) -> bool:
        """True when the request names its own accelerator/DRAM config.

        Decision caches fingerprint against the backend's resident config,
        so hardware-override traffic must bypass them exactly like
        restricted searches do; the predictor answers it on a derived
        :class:`~repro.sage.predictor.Sage` instead.
        """
        return self.config is not None or self.dram_gbps is not None

    def search_kwargs(self) -> dict[str, Any]:
        """The restriction kwargs in ``matrix_grid`` vocabulary."""
        kwargs: dict[str, Any] = {"fixed_mcf": self.fixed_mcf}
        if self.mcf_a_space is not None:
            kwargs["mcf_a"] = self.mcf_a_space
        if self.mcf_b_space is not None:
            kwargs["mcf_b"] = self.mcf_b_space
        return kwargs

    @property
    def local_fidelity(self) -> str:
        """The tier this resolves to in-process (``None`` → analytical)."""
        return self.fidelity or "analytical"

    def to_wire(self) -> dict:
        """JSON-safe wire form (inverse of :meth:`from_wire`).

        The hardware-override keys are omitted when unset so requests
        without them keep the exact PR-7 wire shape.
        """
        wire: dict[str, Any] = {
            "fidelity": self.fidelity,
            "fixed_mcf": (
                None
                if self.fixed_mcf is None
                else [f.value for f in self.fixed_mcf]
            ),
            "mcf_a_space": (
                None
                if self.mcf_a_space is None
                else [f.value for f in self.mcf_a_space]
            ),
            "mcf_b_space": (
                None
                if self.mcf_b_space is None
                else [f.value for f in self.mcf_b_space]
            ),
            "top_k": self.top_k,
        }
        if self.config is not None:
            wire["config"] = self.config.to_dict()
        if self.dram_gbps is not None:
            wire["dram_gbps"] = self.dram_gbps
        return wire

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "PredictOptions":
        """Rebuild options from their :meth:`to_wire` form.

        Unknown keys are rejected so schema typos fail loudly instead of
        silently running an unrestricted search (the exact failure mode
        this object exists to eliminate).  The one exception is
        ``processes``, a batch fan-out width that earlier schema-2
        clients always sent: it is accepted and ignored.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known - {"processes"})
        if unknown:
            raise PredictionError(
                f"unknown PredictOptions field(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        fidelity = data.get("fidelity")
        return cls(
            fidelity=None if fidelity is None else str(fidelity),
            fixed_mcf=data.get("fixed_mcf"),
            mcf_a_space=data.get("mcf_a_space"),
            mcf_b_space=data.get("mcf_b_space"),
            top_k=(None if data.get("top_k") is None else int(data["top_k"])),
            config=data.get("config"),
            dram_gbps=(
                None if data.get("dram_gbps") is None else float(data["dram_gbps"])
            ),
        )


def resolve_options(
    options: PredictOptions | None = None, **overrides: Any
) -> PredictOptions:
    """Merge an option object with per-call keyword overrides.

    ``None``-valued overrides mean "keep the option object's value", so the
    legacy keyword style (``fidelity="cycle"``, ``fixed_mcf=...``) and the
    new typed style compose instead of conflicting.
    """
    if "fidelity" in overrides:
        # Fail here, at resolution time, naming the registered tiers —
        # not deep inside the predictor (dataclasses.replace would also
        # catch it via __post_init__, but only when updates are non-None).
        ensure_fidelity(overrides["fidelity"])
    base = options if options is not None else PredictOptions()
    updates = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(base, **updates) if updates else base


@dataclass(frozen=True)
class RunOptions:
    """Knobs of the end-to-end predict→convert→simulate pipeline.

    Attributes
    ----------
    predict:
        The SAGE stage's :class:`PredictOptions`.
    seed:
        RNG seed for materializing operands from workload statistics
        (ignored when the caller supplies concrete operands).
    verify:
        Check the simulator's output against a numpy matmul of the
        materialized operands (raises ``SimulationError`` on mismatch).

    Example
    -------
    >>> from repro import PredictOptions, RunOptions
    >>> opts = RunOptions(predict=PredictOptions(top_k=3), seed=7)
    >>> RunOptions.from_wire(opts.to_wire()) == opts
    True
    """

    predict: PredictOptions = field(default_factory=PredictOptions)
    seed: int = 0
    verify: bool = True

    def to_wire(self) -> dict:
        """JSON-safe wire form (inverse of :meth:`from_wire`)."""
        return {
            "predict": self.predict.to_wire(),
            "seed": self.seed,
            "verify": self.verify,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "RunOptions":
        """Rebuild run options from their :meth:`to_wire` form."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise PredictionError(
                f"unknown RunOptions field(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(
            predict=PredictOptions.from_wire(data.get("predict", {})),
            seed=int(data.get("seed", 0)),
            verify=bool(data.get("verify", True)),
        )
