"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
``sage``
    Run SAGE on a workload described by its statistics and print the
    decision ranking (``--tensor`` for 3-D workloads, ``--fidelity cycle``
    to validate the analytical top-k on the cycle-level simulator,
    ``--backend tcp://host:port`` to answer from a running server).
``run``
    The end-to-end pipeline on one matrix workload: SAGE decision, MINT
    conversion along the planned route, cycle-level simulation — one
    :class:`~repro.api.result.RunResult` report.
``serve``
    Run the cached SAGE prediction server (``repro.serve``).
``sweep``
    Print the Fig. 4-style compactness sweep for a matrix shape.
``walkthrough``
    Render the Fig. 6 bus traces (Dense / CSR / COO) cycle by cycle.
``suite``
    Run the Table II policy comparison on one Table III workload.
``xp``
    The experiment orchestrator (``repro.xp``): ``xp list`` the
    registered paper figure/table/ablation experiments, ``xp run`` a
    selection (or ``--all``) across the fork pool with artifact-store
    caching (``--resume`` / ``--force`` / ``--smoke``), ``xp report``
    re-renders the markdown reports from the store.
``calibrate``
    Build (or ``--inspect``) the calibrated-fidelity factor table: the
    SAGE analytical cost model regressed against the cycle simulator
    over a named training grid (``--suite tiny|smoke|full``), persisted
    in the artifact store keyed on the accelerator-config digest.
``stats``
    Pretty-print a running server's ``stats`` RPC — request, cache and
    coalescing counters, latency percentiles, and the merged metrics
    registry (the server process's spans and counters plus its ledger).
``paths``
    Print the registered conversion graph and the cost-aware route the
    planner chooses for a given operand size.

``sage``, ``suite``, ``sweep`` and ``stats`` accept ``--json``, emitting
one machine-readable JSON document on stdout instead of the human
tables.  Prediction commands go through the
:class:`~repro.api.session.Session` facade, so ``--backend`` swaps
in-process search for a remote server without changing anything else.

Observability (``repro.obs``) hooks: the global ``--log-level`` flag
configures stdlib logging (same levels as the ``REPRO_LOG`` env var);
``run --trace out.json`` and ``xp run --trace`` export Chrome
trace-event JSON of the spans the pipeline recorded (open in
``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Sequence

import numpy as np


def _emit_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cli_matrix_workload(args: argparse.Namespace):
    from repro.workloads.spec import Kernel, MatrixWorkload

    name = args.kernel or "spmm"
    nnz_a = int(args.density * args.m * args.k)
    nnz_b = (
        args.k * args.n
        if name == "spmm"
        else max(1, int(args.density * args.k * args.n))
    )
    return MatrixWorkload(
        name="cli",
        kernel=Kernel.SPMM if name == "spmm" else Kernel.SPGEMM,
        m=args.m,
        k=args.k,
        n=args.n,
        nnz_a=max(1, nnz_a),
        nnz_b=nnz_b,
    )


def _cmd_sage(args: argparse.Namespace) -> int:
    from repro.api import PredictOptions, Session
    from repro.workloads.spec import Kernel, MatrixWorkload, TensorWorkload

    if args.tensor:
        if args.fidelity != "analytical":
            raise SystemExit(
                f"--fidelity {args.fidelity} needs a matrix workload "
                "(3-D tensor kernels are analytical-only)"
            )
        name = args.kernel or "spttm"
        if name == "spttm":
            kernel = Kernel.SPTTM
        elif name == "mttkrp":
            kernel = Kernel.MTTKRP
        else:
            raise SystemExit("--tensor supports --kernel spttm or mttkrp")
        shape = (args.i, args.j, args.k)
        nnz = max(1, int(args.density * shape[0] * shape[1] * shape[2]))
        wl: MatrixWorkload | TensorWorkload = TensorWorkload(
            name="cli",
            kernel=kernel,
            shape=shape,
            nnz=nnz,
            # Sec. VII-A default: rank = first mode / 2.
            rank=args.rank if args.rank else max(1, args.i // 2),
        )
    elif args.kernel in ("spttm", "mttkrp"):
        raise SystemExit(f"--kernel {args.kernel} needs --tensor")
    else:
        wl = _cli_matrix_workload(args)
    with Session(args.backend) as session:
        decision = session.predict(
            wl, PredictOptions(fidelity=args.fidelity)
        )
    if args.json:
        _emit_json(decision.to_wire(top=args.top))
    else:
        print(decision.summary(top=args.top))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import PredictOptions, RunOptions, Session

    wl = _cli_matrix_workload(args)
    opts = RunOptions(
        predict=PredictOptions(fidelity=args.fidelity),
        seed=args.seed,
    )
    if args.trace:
        from repro.obs import export_chrome_trace, start_trace, stop_trace

        start_trace()
        try:
            with Session(args.backend) as session:
                result = session.run(wl, opts)
        finally:
            events = stop_trace()
        export_chrome_trace(events, args.trace)
        print(f"trace: {len(events)} span(s) -> {args.trace}",
              file=sys.stderr)
    else:
        with Session(args.backend) as session:
            result = session.run(wl, opts)
    if args.json:
        _emit_json(
            {
                "decision": result.decision.to_wire(top=args.top),
                "sim_scale": result.sim_scale,
                "conversion_cycles": result.conversion_cycles,
                "cycles": result.cycles,
                "energy_j": result.energy_j,
                "edp": result.edp,
                "verified": result.verified,
            }
        )
    else:
        print(result.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import SageServer, ServeConfig

    serve_config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        near_hit=not args.exact,
        ranking_top=args.top,
        fidelity=args.fidelity,
        warm_bands=args.warm_bands,
    )
    mode = "exact-only" if args.exact else "near-hit"
    warm = (
        f"warming {args.warm_bands} band(s)" if args.warm_bands else
        "no warming"
    )
    server = SageServer(serve=serve_config)
    host, port = server.start()
    print(
        f"repro serve listening on {host}:{port} "
        f"({mode} cache, {args.fidelity} fidelity, {warm}; Ctrl-C or a "
        f'{{"op": "shutdown"}} request stops it)',
        flush=True,  # supervisors watching a pipe need the banner now
    )
    # SIGTERM (``kill``, process supervisors) takes the Ctrl-C path, so
    # close() stops the server and the process exits 0.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.compactness import transfer_energy_sweep
    from repro.formats.registry import Format

    fmts = [Format.DENSE, Format.COO, Format.CSR, Format.CSC, Format.RLC,
            Format.ZVC]
    densities = [10.0 ** e for e in range(-8, 0)] + [0.25, 0.5, 0.75, 1.0]
    sweep = transfer_energy_sweep(
        (args.m, args.k), densities, fmts, args.bits
    )
    if args.json:
        _emit_json(
            {
                "shape": [args.m, args.k],
                "dtype_bits": args.bits,
                "formats": [f.value for f in fmts],
                "rows": [
                    {
                        "density": d,
                        "relative_energy": {
                            f.value: sweep[f][i] for f in fmts
                        },
                        "best": min(fmts, key=lambda f: sweep[f][i]).value,
                    }
                    for i, d in enumerate(densities)
                ],
            }
        )
        return 0
    print(f"{'density':>9} | " + " ".join(f"{f.value:>7}" for f in fmts) + " | best")
    for i, d in enumerate(densities):
        vals = {f: sweep[f][i] for f in fmts}
        best = min(vals, key=vals.get)
        print(
            f"{d:>9.0e} | "
            + " ".join(f"{vals[f]:>7.3f}" for f in fmts)
            + f" | {best.value}"
        )
    return 0


def _cmd_walkthrough(args: argparse.Namespace) -> int:
    from repro.accelerator.trace import render_stream_trace
    from repro.formats import CooMatrix, CsrMatrix, DenseMatrix
    from repro.formats.registry import Format

    a = np.zeros((4, 8))
    a[0, 0], a[0, 2], a[0, 4], a[3, 5] = 1.0, 2.0, 3.0, 4.0
    for fmt, cls in [
        (Format.DENSE, DenseMatrix),
        (Format.CSR, CsrMatrix),
        (Format.COO, CooMatrix),
    ]:
        print(render_stream_trace(cls.from_dense(a), fmt, args.bus))
        print()
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.baselines import evaluate_all
    from repro.workloads import Kernel, suite_by_name

    entry = suite_by_name(args.workload)
    kernel = Kernel.SPMM if args.kernel == "spmm" else Kernel.SPGEMM
    results = evaluate_all(entry.matrix_workload(kernel))
    ours = results["Flex_Flex_HW"].edp
    ranked = sorted(results.items(), key=lambda kv: kv[1].edp)
    if args.json:
        _emit_json(
            {
                "workload": entry.name,
                "kernel": kernel.value,
                "density_pct": entry.density_pct,
                "baseline": "Flex_Flex_HW",
                "policies": [
                    {
                        "policy": name,
                        "edp_vs_baseline": result.edp / ours,
                        "best": result.best.to_wire(),
                    }
                    for name, result in ranked
                ],
            }
        )
        return 0
    print(f"{entry.name} ({entry.density_pct:g}% dense, {kernel.value}):")
    for name, result in ranked:
        b = result.best
        print(
            f"  {name:>15}: {result.edp / ours:9.2f}x  "
            f"MCF=({b.mcf[0].value},{b.mcf[1].value}) "
            f"ACF=({b.acf[0].value},{b.acf[1].value})"
        )
    return 0


def _cmd_xp(args: argparse.Namespace) -> int:
    from repro.xp import (
        RunConfig,
        all_experiments,
        default_out_dir,
        run_experiments,
    )

    if args.xp_command == "list":
        experiments = all_experiments(kind=args.kind)
        if args.json:
            _emit_json(
                {
                    "experiments": [
                        {
                            "name": e.name,
                            "kind": e.kind,
                            "anchor": e.anchor,
                            "title": e.title,
                            "cells": len(e.scenarios()),
                            "smoke_cells": len(e.scenarios(smoke=True)),
                        }
                        for e in experiments
                    ]
                }
            )
            return 0
        print(f"{'experiment':<24} {'kind':<9} {'anchor':<16} "
              f"{'cells':>5} {'smoke':>5}  title")
        for e in experiments:
            print(
                f"{e.name:<24} {e.kind:<9} {e.anchor:<16} "
                f"{len(e.scenarios()):>5} {len(e.scenarios(smoke=True)):>5}"
                f"  {e.title}"
            )
        return 0

    if args.xp_command == "report":
        # Pure re-render: answer from the store only, never execute —
        # uncached cells are skipped and reported, not measured.
        names = args.experiments or None
        summary = run_experiments(
            names,
            RunConfig(
                backend=args.backend,  # remote grids key on the server spec
                smoke=args.smoke,
                cached_only=True,
                store_root=args.store,
                out_dir=args.out,
                record=False,
            ),
        )
        out = args.out or default_out_dir()
        print(f"wrote {out}/report.md ({summary.cached_cells} cells from "
              f"cache, {summary.skipped_cells} not cached — "
              f"run 'repro xp run' to measure them)")
        return 0 if summary.ok else 1

    # xp run
    if not args.experiments and not args.all:
        raise SystemExit("name experiments to run, or pass --all")
    names = None if args.all else args.experiments
    config = RunConfig(
        backend=args.backend,
        processes=1 if args.serial else args.processes,
        smoke=args.smoke,
        resume=args.resume,
        force=args.force,
        store_root=args.store,
        out_dir=args.out,
        report=not args.no_report,
    )
    if args.trace:
        from repro.obs import export_chrome_trace, start_trace, stop_trace
        from pathlib import Path

        start_trace()
        try:
            summary = run_experiments(names, config)
        finally:
            events = stop_trace()
        trace_path = Path(args.out or default_out_dir()) / "trace.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        export_chrome_trace(events, trace_path)
        print(f"trace: {len(events)} span(s) -> {trace_path}",
              file=sys.stderr)
    else:
        summary = run_experiments(names, config)
    if args.json:
        _emit_json(summary.record())
        return 0 if summary.ok else 1
    for run in summary.experiments:
        print(
            f"{run.experiment.name:<24} {len(run.cells):>4} cells "
            f"({run.cached} cached, {run.executed} measured) "
            f"{run.elapsed_s:7.2f}s  {run.status}"
        )
    print(
        f"\n{summary.total_cells} cells in {summary.wall_s:.2f}s wall "
        f"({summary.executed_cells} measured, {summary.cached_cells} from "
        f"cache, {summary.failed_cells} failed; summed cell time "
        f"{summary.serial_cell_s:.2f}s)"
    )
    if not args.no_report:
        out = args.out or default_out_dir()
        print(f"report: {out}/report.md")
    return 0 if summary.ok else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tune import TuneConfig, TunePoint, run_tune, space
    from repro.xp import default_out_dir

    space_name = args.space or "smoke"
    suite = args.suite or "smoke"
    if args.smoke:
        # The CI entry point: pin the CI-sized space and suite.
        space_name, suite = "smoke", "smoke"
    config = TuneConfig(
        suite=suite,
        strategy=args.strategy,
        budget=args.budget,
        seed=args.seed,
        backend=args.backend,
        processes=1 if args.serial else args.processes,
        resume=args.resume,
        force=args.force,
        include_seeds=not args.no_seeds,
        store_root=args.store,
        out_dir=args.out or default_out_dir(),
        report=not args.no_report,
    )
    result = run_tune(space(space_name), config)
    if args.json:
        _emit_json(result.record())
        return 0 if result.ok else 1
    print(
        f"swept {len(result.entries)} configs "
        f"({result.executed} executed, {result.cached} from cache, "
        f"{result.pruned} pruned, {result.failed} failed) "
        f"in {result.wall_s:.2f}s — front {len(result.front)}, "
        f"hypervolume {result.hypervolume:.3f}"
    )
    anchor = result.anchor
    if anchor is not None and anchor.ok:
        marker = (
            "on the front"
            if any(result.entries[i].is_anchor for i in result.front)
            else "dominated"
        )
        print(
            f"anchor paper_default: cycles {anchor.result['cycles']} "
            f"energy {anchor.result['energy_j']:.4g} J "
            f"area {anchor.result['area_mm2']:.4g} mm2 ({marker})"
        )
    shown = result.front_entries()[: args.top]
    for entry in shown:
        extra = " (paper_default)" if entry.is_anchor else ""
        print(
            f"  * {entry.point.label()}{extra}: "
            f"cycles {entry.result['cycles']} "
            f"energy {entry.result['energy_j']:.4g} J "
            f"area {entry.result['area_mm2']:.4g} mm2 "
            f"edp {entry.result['edp']:.3e}"
        )
    if len(result.front) > len(shown):
        print(f"  ... and {len(result.front) - len(shown)} more front points")
    for entry in result.entries:
        if entry.error is not None:
            print(f"  ! {entry.point.label()}: {entry.error}", file=sys.stderr)
    if not args.no_report:
        out = args.out or default_out_dir()
        print(f"report: {out}/xp/tune_pareto.md")
    return 0 if result.ok else 1


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.sage.calibrate import GRIDS, build_table, load_table
    from repro.xp.artifacts import ArtifactStore

    store = ArtifactStore(args.store) if args.store else ArtifactStore()
    if args.inspect:
        table = load_table(store)
        if table is None:
            print(
                "no (non-stale) calibration table for this accelerator "
                "config — build one with 'repro calibrate'",
                file=sys.stderr,
            )
            return 1
        if args.json:
            _emit_json(table.to_dict())
        else:
            print(table.summary())
        return 0
    suite = "smoke" if args.smoke else (args.suite or "smoke")
    build = build_table(
        GRIDS[suite], store=store, resume=args.resume, force=args.force
    )
    record = build.record()
    if args.json:
        _emit_json(record)
        return 0
    print(
        f"calibrated {build.workloads} workloads on grid {build.grid!r} "
        f"({build.executed} executed, {build.cached} from cache) "
        f"in {build.wall_s:.2f}s -> {len(build.table.cells)} cells"
    )
    print(f"table: {build.table_path}")
    print(
        f"worst per-cell p95 relative error: {record['worst_p95_rel_err']:.4f}"
    )
    return 0


def _render_stats(stats: dict) -> str:
    """Human form of the ``stats`` RPC payload, metrics section included."""
    from repro.obs.metrics import snapshot_quantile

    req = stats.get("requests", {})
    cache = stats.get("cache", {})
    lines = [
        f"uptime {stats.get('uptime_s', 0.0):.1f}s, "
        f"fidelity {stats.get('fidelity', '?')}",
        "requests: "
        + ", ".join(f"{k}={req.get(k, 0)}"
                    for k in ("submitted", "served", "errors", "bypassed",
                              "fast_path")),
        f"cache: {cache.get('hits', 0)} hits, "
        f"{cache.get('near_hits', 0)} near, {cache.get('misses', 0)} miss "
        f"({100.0 * cache.get('hit_rate', 0.0):.1f}% hit rate, "
        f"{cache.get('currsize', 0)}/{cache.get('maxsize', 0)} entries, "
        f"{cache.get('evictions', 0)} evicted)",
        f"coalesced misses: {stats.get('batches', {}).get('coalesced', 0)}",
    ]
    warming = stats.get("warming")
    if warming:
        lines.append(
            "warming: "
            + ", ".join(f"{k}={warming.get(k, 0)}"
                        for k in ("queued", "warmed", "skipped", "dropped",
                                  "failed", "depth"))
        )
    latencies = [("latency", stats.get("latency_ms", {}))] + [
        (f"latency[{outcome}]", pct)
        for outcome, pct in stats.get("latency_by_outcome_ms", {}).items()
    ]
    for title, pct in latencies:
        if pct.get("count"):
            # Log2-bucket estimates, hence the ``~`` of the metrics section.
            lines.append(
                f"{title}: "
                + ", ".join(
                    f"{k}~{pct[k]:.2f}ms"
                    for k in ("p50", "p90", "p99")
                    if pct.get(k) is not None
                )
                + f" over {pct['count']} request(s)"
            )
    snapshot = stats.get("metrics", {}).get("registry", {})
    if snapshot:
        lines.append("metrics:")
        for name in sorted(snapshot):
            entry = snapshot[name]
            kind = entry.get("type")
            for key in sorted(entry.get("values", {})):
                label = f"{name}{{{key}}}" if key else name
                if kind == "histogram":
                    state = entry["values"][key]
                    parts = [f"count={state['count']}",
                             f"sum={state['sum']:.4g}"]
                    p50 = snapshot_quantile(entry, key, 0.50)
                    p99 = snapshot_quantile(entry, key, 0.99)
                    if p50 is not None:
                        parts.append(f"p50~{p50:.4g}")
                    if p99 is not None:
                        parts.append(f"p99~{p99:.4g}")
                    lines.append(f"  {label}  " + " ".join(parts))
                else:
                    value = entry["values"][key]
                    lines.append(f"  {label}  {value:g}")
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    spec = args.server
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://"):]
    host, _, port = spec.partition(":")
    if not host or not port.isdigit():
        raise SystemExit(
            f"invalid server spec {args.server!r} (expected tcp://host:port)"
        )
    with ServeClient(host, int(port), timeout=args.timeout) as client:
        stats = client.stats()
    if args.json:
        _emit_json(stats)
    else:
        print(_render_stats(stats))
    return 0


def _parse_format(name: str):
    from repro.formats.registry import Format

    for fmt in Format:
        if fmt.value.lower() == name.lower() or fmt.name.lower() == name.lower():
            return fmt
    raise SystemExit(
        f"unknown format {name!r}; choose from "
        + ", ".join(f.value for f in Format)
    )


def _cmd_paths(args: argparse.Namespace) -> int:
    from repro.formats.registry import MATRIX_FORMATS, TENSOR_FORMATS
    from repro.mint.graph import HopStats, conversion_graph

    tensor = args.tensor
    graph = conversion_graph(tensor=tensor)
    catalog = TENSOR_FORMATS if tensor else MATRIX_FORMATS
    size = args.m * args.k * (args.l if tensor else 1)
    nnz = max(1, int(args.density * size))
    stats = HopStats(
        size=size, nnz=nnz, major_dim=args.m, dtype_bits=args.bits,
        tensor=tensor,
    )
    kind = "tensor" if tensor else "matrix"
    shape = f"{args.m}x{args.k}" + (f"x{args.l}" if tensor else "")
    pairs = (
        [(_parse_format(args.src), _parse_format(args.dst))]
        if args.src and args.dst
        else [(s, t) for s in catalog for t in catalog if s is not t]
    )
    print(
        f"conversion graph ({kind}): {len(catalog)} formats, "
        f"{len(graph)} registered datapaths"
    )
    for dp in sorted(graph, key=lambda d: (d.source.value, d.target.value)):
        extra = f"  kwargs: {', '.join(dp.accepts)}" if dp.accepts else ""
        print(f"  {dp.source.value:>6} -> {dp.target.value:<6} {dp.name}{extra}")
    print()
    print(f"planned routes for {shape} @ density {args.density:g} (nnz {nnz}):")
    from repro.errors import ConversionError

    for src, dst in pairs:
        try:
            route = graph.find_path(src, dst, stats)
        except ConversionError as exc:
            print(f"  {src.value} -> {dst.value}: {exc}")
            continue
        cycles = graph.path_cycles(route, stats)
        hub = graph.hub_heuristic_path(src, dst)
        hub_cycles = graph.path_cycles(hub, stats)
        hops = " -> ".join([src.value] + [dp.target.value for dp in route])
        note = "" if route == hub else f"  (hub heuristic: ~{hub_cycles:,.0f})"
        print(f"  {hops:<28} ~{cycles:,.0f} cycles{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` / ``python -m repro`` argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-format sparse tensor accelerator reproduction "
        "(Qin et al., IPDPS 2021)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="stdlib logging level for repro.* loggers "
        "(default: the REPRO_LOG env var, else silent)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend", default="local",
            help="prediction backend: 'local' (in-process, default) or "
            "tcp://host:port of a running 'repro serve'",
        )

    p = sub.add_parser("sage", help="run the SAGE format predictor")
    p.add_argument("--m", type=int, default=4096)
    p.add_argument("--k", type=int, default=4096,
                   help="matrix inner dim, or 3rd tensor extent with --tensor")
    p.add_argument("--n", type=int, default=2048)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--kernel",
                   choices=["spmm", "spgemm", "spttm", "mttkrp"],
                   default=None,
                   help="default: spmm, or spttm with --tensor")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--tensor", action="store_true",
                   help="3-D tensor workload (--i --j --k extents)")
    p.add_argument("--i", type=int, default=256, help="1st tensor extent")
    p.add_argument("--j", type=int, default=256, help="2nd tensor extent")
    p.add_argument("--rank", type=int, default=0,
                   help="factor rank (default: i // 2, Sec. VII-A)")
    p.add_argument("--fidelity",
                   choices=["analytical", "calibrated", "cycle"],
                   default="analytical",
                   help="calibrated: correct the analytical candidates "
                   "with a measured factor table (see 'repro calibrate'); "
                   "cycle: re-rank the analytical top-k on the "
                   "cycle-level simulator (matrix workloads)")
    p.add_argument("--json", action="store_true",
                   help="emit the decision as JSON (to_wire form)")
    add_backend(p)
    p.set_defaults(fn=_cmd_sage)

    p = sub.add_parser(
        "run",
        help="end-to-end pipeline: SAGE decision -> MINT conversion -> "
        "cycle-level simulation",
    )
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--kernel", choices=["spmm", "spgemm"], default=None)
    p.add_argument("--top", type=int, default=5,
                   help="ranking prefix in --json output")
    p.add_argument("--fidelity",
                   choices=["analytical", "calibrated", "cycle"],
                   default="analytical")
    p.add_argument("--seed", type=int, default=0,
                   help="operand materialization seed")
    p.add_argument("--json", action="store_true",
                   help="emit the run result as JSON")
    p.add_argument("--trace", metavar="OUT.JSON", default=None,
                   help="export Chrome trace-event JSON of the run's "
                   "spans (open in chrome://tracing or Perfetto)")
    add_backend(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "serve", help="run the cached SAGE prediction server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7342,
                   help="TCP port (0 picks an ephemeral one)")
    p.add_argument("--cache-size", type=int, default=4096)
    p.add_argument("--exact", action="store_true",
                   help="disable density-band near-hit cache answers")
    p.add_argument("--top", type=int, default=8,
                   help="ranking prefix shipped per decision")
    p.add_argument("--fidelity",
                   choices=["analytical", "calibrated", "cycle"],
                   default="analytical",
                   help="prediction tier the server answers with "
                   "(calibrated needs a built table, see 'repro calibrate')")
    p.add_argument("--warm-bands", type=int, default=1,
                   help="speculative warming depth on cache misses "
                   "(adjacent density bands per direction; 0 disables)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("sweep", help="Fig. 4-style compactness sweep")
    p.add_argument("--m", type=int, default=11_000)
    p.add_argument("--k", type=int, default=11_000)
    p.add_argument("--bits", type=int, default=32)
    p.add_argument("--json", action="store_true",
                   help="emit the sweep as JSON")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("walkthrough", help="render the Fig. 6 bus traces")
    p.add_argument("--bus", type=int, default=5, help="bus slots per cycle")
    p.set_defaults(fn=_cmd_walkthrough)

    p = sub.add_parser("suite", help="Table II policies on a Table III workload")
    p.add_argument("workload", help="e.g. speech2, m3plates, journals")
    p.add_argument("--kernel", choices=["spmm", "spgemm"], default="spgemm")
    p.add_argument("--json", action="store_true",
                   help="emit the policy comparison as JSON")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser(
        "xp",
        help="experiment orchestrator: the paper's figures/tables/ablations",
    )
    xp_sub = p.add_subparsers(dest="xp_command", required=True)

    q = xp_sub.add_parser("list", help="registered experiments")
    q.add_argument("--kind", choices=["figure", "table", "ablation"],
                   default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_xp)

    q = xp_sub.add_parser(
        "run",
        help="run experiments: expand grids, fan out, cache, check, report",
    )
    q.add_argument("experiments", nargs="*",
                   help="experiment names (see 'repro xp list')")
    q.add_argument("--all", action="store_true",
                   help="run every registered experiment")
    q.add_argument("--smoke", action="store_true",
                   help="CI-sized scenario grids")
    q.add_argument("--resume", action="store_true",
                   help="skip cells already in the artifact store")
    q.add_argument("--force", action="store_true",
                   help="invalidate cached cells first")
    q.add_argument("--serial", action="store_true",
                   help="single-process execution (no fork pool)")
    q.add_argument("--processes", type=int, default=None,
                   help="fork-pool width (default: one per CPU)")
    q.add_argument("--store", default=None,
                   help="artifact store root "
                   "(default: benchmarks/out/xp/store)")
    q.add_argument("--out", default=None,
                   help="report/journal directory (default: benchmarks/out)")
    q.add_argument("--no-report", action="store_true",
                   help="skip the markdown report stage")
    q.add_argument("--json", action="store_true",
                   help="emit the run record as JSON")
    q.add_argument("--trace", action="store_true",
                   help="export Chrome trace-event JSON of the grid run "
                   "to <out>/trace.json")
    add_backend(q)
    q.set_defaults(fn=_cmd_xp)

    q = xp_sub.add_parser(
        "report", help="re-render reports from the artifact store"
    )
    q.add_argument("experiments", nargs="*",
                   help="experiment names (default: all)")
    q.add_argument("--smoke", action="store_true",
                   help="report over the smoke grids")
    q.add_argument("--store", default=None)
    q.add_argument("--out", default=None)
    add_backend(q)  # grids measured against a server key on its spec
    q.set_defaults(fn=_cmd_xp)

    p = sub.add_parser(
        "tune",
        help="invert SAGE: sweep accelerator configs to a Pareto front "
        "over cycles/energy/area",
    )
    p.add_argument("--space", choices=["paper_default", "smoke", "full"],
                   default=None,
                   help="named ParamSpace preset (default: smoke)")
    p.add_argument("--suite", choices=["tiny", "smoke", "tableiii"],
                   default=None,
                   help="workload suite the objective prices "
                   "(default: smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-sized sweep: smoke space + smoke suite")
    p.add_argument("--strategy", choices=["grid", "random", "halving"],
                   default="grid",
                   help="grid: every valid point; random: seeded sample; "
                   "halving: analytical screen, cycle-confirm survivors")
    p.add_argument("--budget", type=int, default=None,
                   help="max points swept (anchor always kept)")
    p.add_argument("--seed", type=int, default=0,
                   help="sampling seed for --strategy random")
    p.add_argument("--resume", action="store_true",
                   help="answer cells already in the artifact store")
    p.add_argument("--force", action="store_true",
                   help="invalidate cached tune cells first")
    p.add_argument("--no-seeds", action="store_true",
                   help="skip the ablation-experiment seed points")
    p.add_argument("--serial", action="store_true",
                   help="single-process execution (no fork pool)")
    p.add_argument("--processes", type=int, default=None,
                   help="fork-pool width (default: one per CPU)")
    p.add_argument("--store", default=None,
                   help="artifact store root "
                   "(default: benchmarks/out/xp/store)")
    p.add_argument("--out", default=None,
                   help="report directory (default: benchmarks/out)")
    p.add_argument("--top", type=int, default=10,
                   help="front rows printed (full table in the report)")
    p.add_argument("--no-report", action="store_true",
                   help="skip the Pareto markdown page")
    p.add_argument("--json", action="store_true",
                   help="emit the tune record as JSON")
    add_backend(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser(
        "calibrate",
        help="build/inspect the calibrated-fidelity factor table "
        "(analytical cost model regressed against the cycle simulator)",
    )
    p.add_argument("--suite", choices=["tiny", "smoke", "full"],
                   default=None,
                   help="named training grid (default: smoke)")
    p.add_argument("--smoke", action="store_true",
                   help="CI entry point: pin the smoke grid")
    p.add_argument("--resume", action="store_true",
                   help="reuse grid cells already in the artifact store "
                   "instead of re-simulating")
    p.add_argument("--force", action="store_true",
                   help="invalidate stored grid cells and re-measure")
    p.add_argument("--inspect", action="store_true",
                   help="print the stored table for this config "
                   "(no build)")
    p.add_argument("--store", default=None,
                   help="artifact store root (default: the shared store)")
    p.add_argument("--json", action="store_true",
                   help="emit the build record (or table) as JSON")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser(
        "stats",
        help="pretty-print a running server's stats RPC (metrics included)",
    )
    p.add_argument("server", help="tcp://host:port of a running 'repro serve'")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="connection/RPC timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="emit the raw stats payload as JSON")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "paths", help="print the conversion graph and planned routes"
    )
    p.add_argument("--tensor", action="store_true", help="3-D tensor graph")
    p.add_argument("--src", help="route source format (with --dst)")
    p.add_argument("--dst", help="route target format (with --src)")
    p.add_argument("--m", type=int, default=4096)
    p.add_argument("--k", type=int, default=4096)
    p.add_argument("--l", type=int, default=64, help="3rd extent (tensor)")
    p.add_argument("--density", type=float, default=0.01)
    p.add_argument("--bits", type=int, default=32)
    p.set_defaults(fn=_cmd_paths)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
