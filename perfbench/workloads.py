"""The four benchmark workloads, driven through public entry points only.

Each workload is a class with ``setup()``, ``measure(seconds)``,
``trace(seconds)`` and ``close()``.  ``measure`` runs with tracing off
and returns per-operation latencies; ``trace`` runs a fixed operation
list (so counts repeat exactly for one seed), half of it traced, and
returns the per-layer metrics of :mod:`perfbench.layers`.

All four are closed loops: a caller sends its next request only after
the previous reply arrived.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.api.backends import LocalBackend
from repro.api.options import RunOptions
from repro.api.session import Session
from repro.obs.metrics import merge_snapshots, snapshot_quantile
from repro.sage.calibrate import GRIDS, build_table
from repro.sage.predictor import Sage
from repro.serve.client import ServeClient
from repro.xp.artifacts import ArtifactStore

from perfbench import host, inputs
from perfbench.layers import layer_metrics, registry_delta
from perfbench.run import percentile
from perfbench.spans import build_tree

#: predict_fresh: nominal seconds per round of 86 predicts (a 2-vCPU
#: x86_64 host), which turns ``--seconds`` into a round count.
ROUND_S = 7.5
#: batch_grid: nominal seconds per iteration (same host), which turns
#: ``--seconds`` into an iteration count.
ITERATION_S = 3.5
#: serve_zipf: seconds of traffic between two host-speed probes.
SERVE_BLOCK_S = 0.5
#: serve_zipf traced pass: requests per connection in each of its four
#: untraced/traced/traced/untraced blocks.
SERVE_TRACE_BLOCK = 800
#: The server's default ranking prefix (``repro serve --top``), which the
#: local-parity check truncates to.
SERVE_TOP = 8


@dataclass
class Measured:
    """What one untraced measurement returns.

    Latencies are in seconds, rescaled to the reference host speed
    (:mod:`perfbench.host`); *busy_s* is the rescaled time spent in the
    measured calls, *ops* the operations completed in it.
    """

    primary: list[float]
    alt: list[float]
    ops: int
    busy_s: float
    attempted: int
    failed: int
    #: Raw (unscaled) seconds of the ``primary`` operations, and the
    #: probe times taken between operations.
    raw_primary: list[float]
    probes: list[float]
    #: Samples of ``op_tail_ms`` when they are not ``primary``'s.
    tail: list[float] | None = None
    #: Named latency classes for the report lines.
    classes: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def _timed_ops(ops, call) -> tuple[list[tuple], list[float]]:
    """Run *call* on each op in turn, a host probe before each and after
    the last.  Returns ``(op, seconds, ok)`` per op, and the probes."""
    timed, probes = [], [host.probe()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            ok = call(op)
        except Exception as exc:  # noqa: BLE001 - failures are data
            print(f"{type(op).__name__} failed: {op.workload.name}: "
                  f"{exc!r}", file=sys.stderr)
            ok = False
        timed.append((op, time.perf_counter() - t0, ok))
        probes.append(host.probe())
    return timed, probes


@dataclass
class Traced:
    """What one traced pass returns."""

    metrics: dict
    attempted: int
    failed: int


def _us(t: float) -> float:
    return t * 1e6


class _Tracer:
    """Runs calls traced or untraced and keeps what the traced ones left.

    A traced call is bracketed by ``start_trace``/``stop_trace`` and by
    registry snapshots taken outside its timed window.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.windows: list[tuple] = []
        self.reg: dict = {}
        self.ops = 0
        self.wall = {True: 0.0, False: 0.0}

    def call(self, fn, traced: bool):
        if not traced:
            t0 = time.perf_counter()
            out = fn()
            self.wall[False] += time.perf_counter() - t0
            return out
        before = obs.registry().snapshot()
        obs.start_trace()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.events.extend(obs.stop_trace())
            self.wall[True] += t1 - t0
            self.windows.append(
                (os.getpid(), threading.get_ident(), _us(t0), _us(t1)))
            self.ops += 1
            self.reg = merge_snapshots(self.reg, registry_delta(
                before, obs.registry().snapshot()))

    def overhead(self) -> float:
        return self.wall[True] / self.wall[False] if self.wall[False] else 0.0

    def metrics(self, extra: dict) -> dict:
        extra = {"obs.trace_overhead": self.overhead(), **extra}
        return layer_metrics(
            ops=self.ops, nodes=build_tree(self.events),
            windows=self.windows, reg=self.reg, extra=extra,
        )


def _cache_counts(session: Session) -> tuple[int, int]:
    """(hits, lookups) summed over a local session's per-tier caches."""
    stats = session.backend.cache_stats().values()
    hits = sum(s["hits"] + s["near_hits"] for s in stats)
    return hits, hits + sum(s["misses"] for s in stats)


def _hit_ratio(before: tuple[int, int], after: tuple[int, int]) -> float:
    lookups = after[1] - before[1]
    return (after[0] - before[0]) / lookups if lookups else 0.0


# -------------------------------------------------------------- predict_fresh
class PredictFresh:
    """One caller, one local Session, every predict a new fingerprint."""

    name = "predict_fresh"
    callers = "1 closed-loop caller on one local Session"
    tail_q = 0.90

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.session: Session | None = None

    def setup(self) -> None:
        store = Path(self.workdir) / f"calibration-{time.monotonic_ns()}"
        build = build_table(GRIDS["smoke"], store=ArtifactStore(store))
        self.session = Session(LocalBackend(Sage(calibration=build.table)))
        for op in inputs.predict_warmup():
            self.session.predict(op.workload, fidelity=op.fidelity)

    def _predict(self, op: inputs.PredictOp) -> bool:
        decision = self.session.predict(op.workload, fidelity=op.fidelity)
        return (
            decision.workload_name == op.workload.name
            and decision.fidelity == op.fidelity
            and bool(decision.ranking) and decision.best == decision.ranking[0]
        )

    def measure(self, seconds: float) -> Measured:
        # A round count fixed by --seconds, not by the clock: later rounds
        # meet warm planner routes, so a count that followed the host's
        # speed would shift the medians with it.
        rounds = max(1, round(seconds / ROUND_S))
        ops = [op for rnd in range(rounds)
               for op in inputs.predict_round(self.seed, rnd)]
        timed, probes = _timed_ops(ops, self._predict)
        classes: dict[str, list[float]] = {
            f"predict_{t}": [] for t in
            ("analytical", "calibrated", "tensor", "cycle")
        }
        raw: list[float] = []
        busy = 0.0
        for (op, dt, ok), factor in zip(timed, host.speed_factors(probes)):
            if ok:
                classes[f"predict_{op.tier}"].append(dt * factor)
                busy += dt * factor
                if op.tier != "cycle":
                    raw.append(dt)
        failed = sum(not ok for _, _, ok in timed)
        primary = (classes["predict_analytical"] + classes["predict_calibrated"]
                   + classes["predict_tensor"])
        return Measured(
            primary=primary, alt=classes["predict_cycle"],
            ops=len(timed) - failed, busy_s=busy, attempted=len(timed),
            failed=failed, raw_primary=raw, probes=probes, classes=classes,
            notes=[f"rounds = {rounds} (86 predicts each)"],
        )

    def trace(self, seconds: float) -> Traced:
        tracer = _Tracer()
        attempted = failed = 0
        cache_before = _cache_counts(self.session)
        for i, pair in enumerate(inputs.predict_pairs(self.seed)):
            for traced, op in zip((i % 2 == 1, i % 2 == 0), pair):
                attempted += 1
                try:
                    ok = tracer.call(lambda: self._predict(op), traced)
                except Exception:  # noqa: BLE001 - failures are data
                    ok = False
                failed += not ok
        extra = {"api.cache_hit_ratio": _hit_ratio(
            cache_before, _cache_counts(self.session))}
        return Traced(tracer.metrics(extra), attempted, failed)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


# ------------------------------------------------------------------ run_sweep
class RunSweep:
    """One caller runs the 512x512x256 density ladder, decisions cached."""

    name = "run_sweep"
    callers = "1 closed-loop caller on one local Session"
    tail_q = 0.90

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.session: Session | None = None
        self.pairs = 0

    def _run(self, op: inputs.RunOp):
        return self.session.run(op.workload, RunOptions(seed=op.seed))

    def setup(self) -> None:
        self.session = Session()
        chosen = set()
        for op in inputs.sweep_ops(self.seed):
            result = self._run(op)
            chosen.add((result.decision.mcf, result.decision.acf))
        self.pairs = len(chosen)

    def measure(self, seconds: float) -> Measured:
        timed: list[tuple] = []
        probes: list[float] = []
        t_start = time.perf_counter()
        passes = 0
        while True:
            pass_timed, pass_probes = _timed_ops(
                inputs.sweep_pass(self.seed, passes),
                lambda op: self._run(op).verified is True)
            timed += pass_timed
            # The probe that ends one pass also starts the next.
            probes += pass_probes if not probes else pass_probes[1:]
            passes += 1
            if time.perf_counter() - t_start >= seconds:
                break
        classes: dict[str, list[float]] = {"run_spmm": [], "run_spgemm": []}
        raw: list[float] = []
        for (op, dt, ok), factor in zip(timed, host.speed_factors(probes)):
            if ok:
                kernel = op.workload.kernel.value.lower()
                classes[f"run_{kernel}"].append(dt * factor)
                raw.append(dt)
        failed = sum(not ok for _, _, ok in timed)
        runs = classes["run_spmm"] + classes["run_spgemm"]
        return Measured(
            primary=runs, alt=classes["run_spgemm"], ops=len(runs),
            busy_s=sum(runs), attempted=len(timed), failed=failed,
            raw_primary=raw, probes=probes,
            classes={"run": runs, **classes},
            notes=[f"passes = {passes} (28 runs each)",
                   f"distinct MCF/ACF pairs chosen = {self.pairs}"],
        )

    def trace(self, seconds: float) -> Traced:
        tracer = _Tracer()
        attempted = failed = 0
        cache_before = _cache_counts(self.session)
        i = 0
        for index in range(2):
            for op in inputs.sweep_pass(self.seed, index):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    attempted += 1
                    try:
                        result = tracer.call(lambda: self._run(op), traced)
                        ok = result.verified is True
                    except Exception:  # noqa: BLE001 - failures are data
                        ok = False
                    failed += not ok
                i += 1
        extra = {"api.cache_hit_ratio": _hit_ratio(
            cache_before, _cache_counts(self.session))}
        return Traced(tracer.metrics(extra), attempted, failed)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


# ----------------------------------------------------------------- serve_zipf
class ServeZipf:
    """A ``repro serve`` child and two closed-loop connections to it."""

    name = "serve_zipf"
    callers = ("1 client process, 2 closed-loop connections "
               "(binary frame, legacy JSON lines)")
    # Tail and median are both over the binary connection's hits.  The
    # tail is the median over blocks of each block's p90: p99 of hits
    # swung 4-9 ms between runs on a 2-CPU host (hits that queue behind a
    # miss's search), and the p90 of a whole run sits where the latency
    # curve is steep, so a few slow seconds moved it by half.
    tail_q = 0.50

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.root = Path(__file__).resolve().parents[1]
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.clients: list[ServeClient] = []
        self.streams = [inputs.serve_stream(seed, c) for c in range(2)]

    def setup(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--warm-bands", "0"],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        banner = self.proc.stdout.readline()
        found = re.search(r"listening on ([\w.:-]+):(\d+) ", banner)
        if found is None:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.address = (found.group(1), int(found.group(2)))
        self.clients = [
            ServeClient(*self.address, wire_mode=mode)
            for mode in ("binary", "json")
        ]
        for wl in inputs.serve_population():
            for client in self.clients:
                client.predict(wl)

    def _loop(self, conn: int, stop, out: dict, tracer=None) -> None:
        """Closed loop on connection *conn* until ``stop()`` says so."""
        client = self.clients[conn]
        samples = out["samples"]
        while not stop():
            op = next(self.streams[conn])
            out["attempted"] += 1
            t0 = time.perf_counter()
            try:
                decision = client.predict(op.workload)
                ok = decision.workload_name == op.workload.name
            except Exception as exc:  # noqa: BLE001 - failures are data
                print(f"serve request failed: {exc!r}", file=sys.stderr)
                ok, decision = False, None
            t1 = time.perf_counter()
            if not ok:
                out["failed"] += 1
                if client.broken:  # retries exhausted: the server is gone
                    return
                continue
            samples.append((op.kind, t1 - t0))
            if tracer is not None:
                tracer.append((os.getpid(), threading.get_ident(),
                               _us(t0), _us(t1)))
            if op.check:
                out["checks"].append((op.workload, decision.to_wire()))

    def _run_connections(self, stop_for, tracer=None) -> list[dict]:
        outs = [{"samples": [], "attempted": 0, "failed": 0, "checks": []}
                for _ in self.clients]
        threads = [
            threading.Thread(target=self._loop,
                             args=(c, stop_for(c), outs[c], tracer))
            for c in range(len(self.clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outs

    def _parity_failures(self, outs: list[dict]) -> int:
        """Served decisions that differ from a local Session's."""
        local = Session()
        try:
            return sum(
                local.predict(wl, top_k=SERVE_TOP).to_wire() != wire
                for out in outs for wl, wire in out["checks"]
            )
        finally:
            local.close()

    def measure(self, seconds: float) -> Measured:
        # Blocks of SERVE_BLOCK_S with a host probe between them, taken
        # while both connections are idle.
        blocks: list[tuple[list[dict], float]] = []
        probes = [host.probe()]
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            b0 = time.perf_counter()
            deadline = b0 + SERVE_BLOCK_S
            outs = self._run_connections(
                lambda c: lambda: time.perf_counter() >= deadline)
            blocks.append((outs, time.perf_counter() - b0))
            probes.append(host.probe())
        classes: dict[str, list[float]] = {
            "serve_hit": [], "serve_near": [], "serve_miss": [],
            "serve_hit_binary": [], "serve_hit_json": [],
        }
        raw: list[float] = []
        block_p90: list[float] = []
        busy = 0.0
        for (outs, wall), factor in zip(blocks, host.speed_factors(probes)):
            busy += wall * factor
            hits = [dt * factor for kind, dt in outs[0]["samples"]
                    if kind == "hit"]
            if hits:
                block_p90.append(percentile(hits, 0.9))
            for conn, out in enumerate(outs):
                for kind, dt in out["samples"]:
                    classes[f"serve_{kind}"].append(dt * factor)
                    if kind == "hit":
                        wire = ("binary", "json")[conn]
                        classes[f"serve_hit_{wire}"].append(dt * factor)
                        if conn == 0:
                            raw.append(dt)
        outs = [out for block, _ in blocks for out in block]
        checks = sum(len(out["checks"]) for out in outs)
        mismatches = self._parity_failures(outs)
        done = sum(len(out["samples"]) for out in outs)
        # The two wires' hit latencies are two separate modes; a percentile
        # of their union would sit in the gap between them.
        return Measured(
            primary=classes["serve_hit_binary"], tail=block_p90,
            alt=classes["serve_miss"], ops=done, busy_s=busy,
            attempted=sum(o["attempted"] for o in outs) + checks,
            failed=sum(o["failed"] for o in outs) + mismatches,
            raw_primary=raw, probes=probes, classes=classes,
            notes=[f"blocks = {len(blocks)} of {SERVE_BLOCK_S} s",
                   f"served decisions checked against a local Session = "
                   f"{checks}, mismatched = {mismatches}"],
        )

    def trace(self, seconds: float) -> Traced:
        stats_before = self.clients[0].stats()
        events: list[dict] = []
        windows: list[tuple] = []
        hits: dict[bool, list[float]] = {True: [], False: []}
        outs_all: list[dict] = []
        # Untraced/traced/traced/untraced blocks of a fixed request count.
        for traced in (False, True, True, False):
            counts = [0] * len(self.clients)

            def stop_for(c):
                def stop():
                    counts[c] += 1
                    return counts[c] > SERVE_TRACE_BLOCK
                return stop

            if traced:
                obs.start_trace()
            try:
                outs = self._run_connections(
                    stop_for, windows if traced else None)
            finally:
                if traced:
                    events.extend(obs.stop_trace())
            outs_all.extend(outs)
            # Binary connection only: the wires' hits are separate modes.
            hits[traced].extend(
                dt for kind, dt in outs[0]["samples"] if kind == "hit")
        stats_after = self.clients[0].stats()
        reg = registry_delta(stats_before["metrics"]["registry"],
                             stats_after["metrics"]["registry"])
        stages = reg.get("repro_serve_stage_seconds", {"values": {}})
        delta = _serve_deltas(stats_before, stats_after)
        # Misses differ between blocks, so compare the hits' medians.
        extra = {
            "obs.trace_overhead": (
                statistics.median(hits[True]) / statistics.median(hits[False])
            ),
            "serve.queue_p50_ms": 1e3 * (
                snapshot_quantile(stages, "stage=queue", 0.5) or 0.0),
            "serve.compute_p50_ms": 1e3 * (
                snapshot_quantile(stages, "stage=compute", 0.5) or 0.0),
            "serve.front_hit_ratio": delta["front_hits"] / delta["lookups"]
            if delta["lookups"] else 0.0,
            "serve.fast_path_share": delta["fast_path"] / delta["submitted"]
            if delta["submitted"] else 0.0,
            "serve.coalesced": delta["coalesced"],
            "serve.errors": delta["errors"],
        }
        ops = sum(len(out["samples"]) for out in outs_all)
        metrics = layer_metrics(
            ops=ops, nodes=build_tree(events), windows=windows, reg=reg,
            extra=extra,
        )
        mismatches = self._parity_failures(outs_all)
        attempted = sum(o["attempted"] for o in outs_all)
        failed = sum(o["failed"] for o in outs_all) + mismatches
        return Traced(metrics, attempted, failed)

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        if self.proc is None:
            return
        if self.address is not None:
            try:
                with ServeClient(*self.address, timeout=5.0) as client:
                    client.shutdown_server()
            except Exception:  # noqa: BLE001 - fall through to signals
                pass
        stop_process_group(self.proc)
        self.proc.stdout.close()
        self.proc = None


def _serve_deltas(before: dict, after: dict) -> dict:
    def diff(section: str, key: str) -> int:
        return after[section][key] - before[section][key]

    hits = diff("cache", "hits") + diff("cache", "near_hits")
    return {
        "front_hits": hits,
        "lookups": hits + diff("cache", "misses"),
        "fast_path": diff("requests", "fast_path"),
        "submitted": diff("requests", "submitted"),
        "coalesced": diff("batches", "coalesced"),
        "errors": diff("requests", "errors"),
    }


def stop_process_group(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Wait for *proc*; then SIGTERM, then SIGKILL its whole group."""
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                pass
        try:
            proc.wait(timeout=grace_s)
            break
        except subprocess.TimeoutExpired:
            continue
    # Shard workers share the server's group; make sure none outlive it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------- batch_grid
def _grid_iteration(seed: int, iteration: int, workdir: str, traced: bool,
                    conn) -> None:
    """Forked child: one cold xp smoke run, then one cold smoke calibration."""
    from repro.xp.registry import experiment_names
    from repro.xp.runner import RunConfig, run_experiments

    out: dict = {}
    scratch = Path(workdir) / f"grid-{os.getpid()}"
    try:
        names = inputs.experiment_order(experiment_names(), seed, iteration)
        config = RunConfig(
            smoke=True, store_root=scratch / "xp", out_dir=scratch / "out",
            report=False, record=False,
        )
        tracer = _Tracer()
        t0 = time.perf_counter()
        summary = tracer.call(lambda: run_experiments(names, config), traced)
        t1 = time.perf_counter()
        build = tracer.call(
            lambda: build_table(GRIDS["smoke"],
                                store=ArtifactStore(scratch / "cal")),
            traced)
        t2 = time.perf_counter()
        cells = [c for e in summary.experiments for c in e.cells]
        failed = summary.failed_cells + sum(
            e.check_error is not None for e in summary.experiments)
        failed += build.executed != build.workloads or not build.table.cells
        out = {
            "xp_s": t1 - t0, "cal_s": t2 - t1, "ran": len(cells),
            "cells": [c.elapsed_s for c in cells if c.ok],
            "workloads": build.workloads,
            "attempted": len(cells) + 1, "failed": failed,
        }
        if traced:
            # obs.trace_overhead needs the untraced iteration: the parent
            # sets it.
            out["metrics"] = tracer.metrics(
                {"calibrate.cells": len(build.table.cells)})
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        out = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        conn.send(out)
        conn.close()


class BatchGrid:
    """Cold xp smoke grid and cold smoke calibration, fresh stores."""

    name = "batch_grid"
    callers = "1 caller; fork_map fans each batch across the CPUs"
    tail_q = 0.90

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        self.root = Path(__file__).resolve().parents[1]
        self.grid_cells = 0

    def setup(self) -> None:
        """A cold interpreter imports the xp stack and lists the smoke grid.

        The iterations fork from this process, which has the stack
        imported already, so a cold start is what set-up costs a user of
        the grid.  Its cell count is what every iteration must run.
        """
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import repro.sage.calibrate, repro.xp.runner\n"
            "from repro.xp.registry import experiment_names, get_experiment\n"
            "print(sum(len(list(get_experiment(n).scenarios(smoke=True)))"
            " for n in experiment_names()))\n"
        )
        listed = subprocess.run(
            [sys.executable, "-c", code, str(self.root / "src")],
            check=True, cwd=self.root, timeout=120, capture_output=True,
            text=True,
        )
        self.grid_cells = int(listed.stdout.split()[-1])

    def _checked(self, out: dict) -> dict:
        """*out* with a failure added when the grid ran short."""
        if "error" not in out and out["ran"] != self.grid_cells:
            print(f"xp ran {out['ran']} cells, the grid lists "
                  f"{self.grid_cells}", file=sys.stderr)
            out["failed"] += 1
        return out

    def _iteration(self, iteration: int, traced: bool) -> dict:
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_grid_iteration,
            args=(self.seed, iteration, str(self.workdir), traced, send),
        )
        child.start()
        send.close()
        try:
            out = recv.recv() if recv.poll(170) else {"error": "timed out"}
        except EOFError:
            out = {"error": "child exited without a result"}
        finally:
            recv.close()
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        if "error" in out:
            print(f"grid iteration failed: {out['error']}", file=sys.stderr)
        return self._checked(out)

    def measure(self, seconds: float) -> Measured:
        # An iteration count fixed by --seconds, as for predict_fresh, so
        # every run takes the median of as many iterations.
        outs: list[dict] = []
        # Three probes at each gap: one per iteration is too few to
        # outvote a noisy one.
        probes = [statistics.median(host.probe() for _ in range(3))]
        for iteration in range(max(1, round(seconds / ITERATION_S))):
            outs.append(self._iteration(iteration, traced=False))
            probes.append(statistics.median(host.probe() for _ in range(3)))
        cells: list[float] = []
        xp: list[float] = []
        cal: list[float] = []
        raw: list[float] = []
        attempted = failed = done = 0
        for out, factor in zip(outs, host.speed_factors(probes)):
            if "error" in out:
                attempted += 1
                failed += 1
                continue
            cells.extend(dt * factor for dt in out["cells"])
            xp.append(out["xp_s"] * factor)
            cal.append(out["cal_s"] * factor)
            raw.append(out["xp_s"])
            attempted += out["attempted"]
            failed += out["failed"]
            done += len(out["cells"]) + out["workloads"]
        return Measured(
            primary=xp, tail=cells, alt=cal, ops=done,
            busy_s=sum(xp) + sum(cal), attempted=attempted, failed=failed,
            raw_primary=raw, probes=probes,
            classes={"xp_smoke": xp, "xp_cell": cells,
                     "calibrate_smoke": cal},
            notes=[f"iterations = {len(outs)}",
                   f"cells the smoke grid lists = {self.grid_cells}"],
        )

    def trace(self, seconds: float) -> Traced:
        # Untraced/traced/traced/untraced, so drift cancels in the
        # overhead ratio; the per-layer metrics come from iteration 1.
        outs = [self._iteration(i, traced=i in (1, 2)) for i in range(4)]
        if any("error" in o for o in outs):
            raise RuntimeError("batch_grid traced pass failed")
        walls = [o["xp_s"] + o["cal_s"] for o in outs]
        metrics = dict(outs[1]["metrics"])
        metrics["obs.trace_overhead"] = (
            (walls[1] + walls[2]) / (walls[0] + walls[3]))
        return Traced(
            metrics,
            attempted=sum(o["attempted"] for o in outs),
            failed=sum(o["failed"] for o in outs),
        )

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (PredictFresh, RunSweep, ServeZipf,
                                       BatchGrid)}
