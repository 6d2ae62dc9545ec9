"""The one front door: ``Session`` — predict, convert, execute, anywhere.

The paper's value proposition is a single coherent flow — pick formats
(SAGE, Sec. VI), convert (MINT, Sec. V), execute (the multi-ACF
accelerator, Sec. IV).  ``Session`` is that flow as one object::

    from repro import Session, PredictOptions

    with Session() as session:                      # in-process
        decision = session.predict(workload)
        decisions = session.predict(suite)          # batch-first: list in,
                                                    # list out
        result = session.run(workload)              # the whole Fig. 1b
                                                    # pipeline

    with Session("tcp://127.0.0.1:7342") as session:  # same code, served
        decision = session.predict(workload)

Backends are pluggable (:class:`~repro.api.backends.Backend`): the string
``"local"`` builds an in-process :class:`LocalBackend`, a ``tcp://host:port``
URL connects a :class:`RemoteBackend` to a running
:class:`~repro.serve.server.SageServer`, and any object satisfying the
protocol slots straight in.  Decisions are wire-identical across backends
for the same workload and options.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.simulator import WeightStationarySimulator
from repro.api.backends import Backend, LocalBackend, RemoteBackend, Workload
from repro.api.options import PredictOptions, RunOptions, resolve_options
from repro.api.result import RunResult
from repro.errors import ConfigError, PredictionError, SimulationError
from repro.formats.base import coords_to_dense, dense_to_coords
from repro.formats.registry import matrix_class
from repro.mint.engine import MintEngine
from repro.obs import span
from repro.sage.predictor import SIM_CAP_ELEMENTS, Sage, SageDecision, _proxy_workload
from repro.workloads.spec import (
    MatrixWorkload,
    TensorWorkload,
    workload_from_dict,
)
from repro.workloads.synthetic import random_sparse_coords

__all__ = ["Session"]


def _parse_workload(workload) -> Workload:
    if isinstance(workload, (MatrixWorkload, TensorWorkload)):
        return workload
    if isinstance(workload, Mapping):
        return workload_from_dict(workload)
    raise TypeError(
        f"expected a MatrixWorkload, TensorWorkload or wire dict, "
        f"got {type(workload).__name__}"
    )


class Session:
    """One facade over predict → convert → simulate, local or remote.

    Parameters
    ----------
    backend:
        ``"local"`` (default), a ``"tcp://host:port"`` URL of a running
        :class:`~repro.serve.server.SageServer`, or any object satisfying
        the :class:`~repro.api.backends.Backend` protocol.
    config:
        Accelerator configuration for the local predictor and for the
        execute stage of :meth:`run`.  With a remote backend the server
        owns the prediction config; this one drives the local simulator
        (keep them consistent for meaningful :meth:`run` reports).
    options:
        Session-wide default :class:`PredictOptions`; per-call options
        override.

    Example
    -------
    >>> from repro import Session, MatrixWorkload, Kernel
    >>> wl = MatrixWorkload("doc", Kernel.SPMM, m=256, k=256, n=128,
    ...                     nnz_a=3_000, nnz_b=256 * 128)
    >>> with Session() as session:
    ...     decision = session.predict(wl)
    >>> decision.best.mcf[0].value in {"CSR", "COO", "RLC", "ZVC"}
    True
    """

    def __init__(
        self,
        backend: str | Backend = "local",
        *,
        config: AcceleratorConfig | None = None,
        options: PredictOptions | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig.paper_default()
        self.options = options or PredictOptions()
        if isinstance(backend, str):
            if backend == "local":
                self._backend: Backend = LocalBackend(Sage(config=config))
            elif backend.startswith("tcp://"):
                host, _, port = backend[len("tcp://"):].partition(":")
                if not host or not port.isdigit():
                    raise ConfigError(
                        f"malformed backend URL {backend!r} "
                        f"(expected tcp://host:port)"
                    )
                self._backend = RemoteBackend(host, int(port))
            else:
                raise ConfigError(
                    f"unknown backend {backend!r} (expected 'local', a "
                    f"'tcp://host:port' URL, or a Backend object)"
                )
        else:
            self._backend = backend

    @property
    def backend(self) -> Backend:
        """The live backend (for its stats/cache introspection hooks)."""
        return self._backend

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session(backend={self._backend.describe()!r})"

    # -------------------------------------------------------------- predict
    def predict(
        self,
        workload_or_workloads,
        options: PredictOptions | None = None,
        **overrides,
    ) -> SageDecision | list[SageDecision]:
        """One decision, or a batch — routed uniformly.

        A single workload (object or wire dict) returns one
        :class:`SageDecision`; a sequence returns a list in input order,
        each workload answered in-process exactly as a single predict
        would be, or the whole list coalesced into one server round trip,
        depending on the backend.  ``overrides`` are
        :class:`PredictOptions` fields (``fidelity="cycle"``,
        ``fixed_mcf=...``, ...) applied on top of *options*.

        Example
        -------
        >>> from repro import Format, Session, MatrixWorkload, Kernel
        >>> wl = MatrixWorkload("doc", Kernel.SPMM, m=256, k=256, n=128,
        ...                     nnz_a=3_000, nnz_b=256 * 128)
        >>> with Session() as session:
        ...     one = session.predict(wl)
        ...     many = session.predict([wl, wl])
        ...     pinned = session.predict(
        ...         wl, fixed_mcf=(Format.CSR, Format.DENSE))
        >>> [d.to_wire() for d in many] == [one.to_wire()] * 2
        True
        >>> pinned.best.mcf == (Format.CSR, Format.DENSE)
        True
        """
        opts = resolve_options(options or self.options, **overrides)
        if isinstance(workload_or_workloads, (Mapping, MatrixWorkload,
                                              TensorWorkload)):
            wl = _parse_workload(workload_or_workloads)
            with span("api.predict", workload=wl.name, batch=1):
                return self._backend.predict_one(wl, opts)
        if isinstance(workload_or_workloads, Sequence):
            workloads = [_parse_workload(wl) for wl in workload_or_workloads]
            with span("api.predict", batch=len(workloads)):
                return self._backend.predict_batch(workloads, opts)
        raise TypeError(
            f"expected a workload or a sequence of workloads, got "
            f"{type(workload_or_workloads).__name__}"
        )

    # ------------------------------------------------------------------ run
    def run(
        self,
        workload,
        options: RunOptions | None = None,
        *,
        a: np.ndarray | None = None,
        b: np.ndarray | None = None,
    ) -> RunResult:
        """The end-to-end Fig. 1b pipeline on one matrix workload.

        SAGE decision (via this session's backend) → operands encoded in
        the chosen MCFs → MINT conversion along the planned route to the
        chosen ACFs → cycle-level simulation → one :class:`RunResult`.

        Operands are drawn from the workload statistics as coordinates
        (deterministic in ``options.seed``) unless concrete dense arrays
        *a* and *b* are supplied, and each MCF is encoded from its
        operand's nonzeros; a generated operand becomes a dense array only
        for the ``options.verify`` check, which compares the output with
        numpy's dense ``a @ b``.  Workloads larger than the simulation cap
        execute through a density-preserving proxy whose scale is recorded
        on the result.

        Example
        -------
        >>> from repro import Session, MatrixWorkload, Kernel
        >>> wl = MatrixWorkload("doc", Kernel.SPMM, m=96, k=96, n=48,
        ...                     nnz_a=500, nnz_b=96 * 48)
        >>> with Session() as session:
        ...     result = session.run(wl)
        >>> result.verified and result.cycles > 0
        True
        """
        opts = options or RunOptions()
        wl = _parse_workload(workload)
        if isinstance(wl, TensorWorkload):
            raise PredictionError(
                "Session.run executes matrix workloads only (the cycle "
                "simulator does not stream 3-D tensors); use "
                "Session.predict for tensor decisions"
            )
        with span("api.run", workload=wl.name):
            return self._run(wl, opts, a, b)

    def _run(self, wl, opts, a, b) -> RunResult:
        with span("api.predict", workload=wl.name, batch=1):
            decision = self._backend.predict_one(wl, opts.predict)

        if a is not None or b is not None:
            if a is None or b is None:
                raise SimulationError(
                    "supply both operands or neither (a and b)"
                )
            if a.shape != (wl.m, wl.k) or b.shape != (wl.k, wl.n):
                raise SimulationError(
                    f"operand shapes {a.shape} @ {b.shape} disagree with "
                    f"the workload ({wl.m}x{wl.k} @ {wl.k}x{wl.n})"
                )
            sim_wl = wl
            a_dense, b_dense = np.asarray(a, float), np.asarray(b, float)
            a_coords, b_coords = dense_to_coords(a_dense), dense_to_coords(b_dense)
        else:
            sim_wl = _proxy_workload(wl, SIM_CAP_ELEMENTS)
            a_dense = b_dense = None
            a_coords = random_sparse_coords(
                sim_wl.m, sim_wl.k, sim_wl.nnz_a, opts.seed
            )
            b_coords = random_sparse_coords(
                sim_wl.k, sim_wl.n, sim_wl.nnz_b, opts.seed + 1
            )
        a_shape, b_shape = (sim_wl.m, sim_wl.k), (sim_wl.k, sim_wl.n)

        engine = MintEngine(clock_hz=self.config.clock_hz)
        a_mem = matrix_class(decision.mcf[0]).from_coords(a_shape, *a_coords)
        a_acf, conv_a = engine.convert(a_mem, decision.acf[0])
        b_mem = matrix_class(decision.mcf[1]).from_coords(b_shape, *b_coords)
        b_acf, conv_b = engine.convert(b_mem, decision.acf[1])

        sim = WeightStationarySimulator(self.config)
        out, report = sim.run_gemm(
            a_acf, decision.acf[0], b_acf, decision.acf[1]
        )
        verified: bool | None = None
        if opts.verify:
            if a_dense is None:  # generated operands are densified only here
                a_dense = coords_to_dense(a_shape, *a_coords)
                b_dense = coords_to_dense(b_shape, *b_coords)
            if not np.allclose(out, a_dense @ b_dense):
                raise SimulationError(
                    f"simulated output of {wl.name} disagrees with numpy "
                    f"(ACF=({decision.acf[0]},{decision.acf[1]}))"
                )
            verified = True
        return RunResult(
            workload=wl,
            sim_workload=sim_wl,
            decision=decision,
            conversion_a=conv_a,
            conversion_b=conv_b,
            report=report,
            output=out,
            sim_scale=(
                (sim_wl.m * sim_wl.k * sim_wl.n) / (wl.m * wl.k * wl.n)
            ),
            verified=verified,
        )

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the backend (a remote connection)."""
        self._backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
