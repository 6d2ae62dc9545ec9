"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root.  ``--trace 0`` sets the workload up
:data:`SETUPS` times (``setup_s`` is the median), measures it for about
``--seconds`` with tracing off and reports the end-to-end metrics, its
timings rescaled to the reference host speed (:mod:`perfbench.host`).
``--trace 1`` sets it up once, runs its fixed traced pass and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The process exits non-zero without that line when the source tree is
missing or a workload cannot be set up.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 3

#: Why each workload is in the benchmark (as in BENCHMARK.json).
WHY = {
    "predict_fresh": (
        "every predict is a new fingerprint: the SAGE search is the "
        "analytical/calibrated latency, pool fan-out plus simulate_many "
        "most of the cycle latency"
    ),
    "run_sweep": (
        "Session.run over the 512x512x256 density ladder with cached "
        "decisions: encoding, MINT, run_gemm and verification work; "
        "search and pool do none"
    ),
    "serve_zipf": (
        "repro serve child, Zipf traffic on binary and JSON-lines "
        "connections: hits exercise codec, caches and front end; misses "
        "add shards and the search"
    ),
    "batch_grid": (
        "cold xp smoke grid and smoke calibration build: the only "
        "workload where fork_map fans out large batches"
    ),
}

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "alt_p50_ms": "ms",
    "ops_per_s": "1/s",
}

#: What each end-to-end metric's operations are, per workload.
E2E_OPS = {
    "predict_fresh": ("predicts at the analytical and calibrated tiers and "
                      "tensor predicts", "cycle-tier predicts", "predicts"),
    "run_sweep": ("Session.run calls", "SpGEMM Session.run calls", "runs"),
    "serve_zipf": ("hits (exact repeats) on the binary connection; tail: "
                   "median over 0.5 s blocks of each block's p90",
                   "misses (new sizes)",
                   "requests, both connections"),
    "batch_grid": ("xp smoke grid runs; tail: p90 of xp cell measure time",
                   "smoke calibration builds",
                   "xp cells and calibration workloads per second of "
                   "batch wall"),
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: smallest sample with >= q*n at or below."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Hygiene:
    """Captures stderr, reaps children and sweeps shm segments.

    File descriptor 2 is redirected to a file for the whole run, so the
    resource tracker's ``KeyError: '/repro-op…'`` tracebacks (printed by
    a helper process that inherits the descriptor) can be counted; the
    text is replayed on the real stderr afterwards.  ``repro-op*``
    segments that appear under ``/dev/shm`` during the run are counted
    and unlinked, so one leaking run cannot skew the next.
    """

    SHM_DIR = Path("/dev/shm")

    def __init__(self, workdir: Path) -> None:
        self.log_path = workdir / "stderr.log"
        self.leaked_segments = 0
        self.tracker_errors = 0

    def _segments(self) -> set[str]:
        try:
            return {p.name for p in self.SHM_DIR.iterdir()
                    if p.name.startswith("repro-op")}
        except OSError:
            return set()

    def __enter__(self) -> "Hygiene":
        self.before = self._segments()
        sys.stderr.flush()
        self.saved_fd = os.dup(2)
        self.log = open(self.log_path, "w+b")
        os.dup2(self.log.fileno(), 2)
        # Started here, the tracker is shared by every forked child, and
        # __exit__ can stop it and wait for it.
        resource_tracker.ensure_running()
        return self

    def __exit__(self, *exc_info) -> None:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(10)
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()  # closes its pipe and waits for the process to exit
        sys.stderr.flush()
        os.dup2(self.saved_fd, 2)
        os.close(self.saved_fd)
        self.log.seek(0)
        text = self.log.read().decode(errors="replace")
        self.log.close()
        sys.stderr.write(text)
        sys.stderr.flush()
        self.tracker_errors = len(
            re.findall(r"KeyError: '/?repro-op", text))
        leaked = self._segments() - self.before
        self.leaked_segments = len(leaked)
        for name in leaked:
            try:
                (self.SHM_DIR / name).unlink()
            except OSError:
                pass


def host_line() -> str:
    import numpy

    return (f"host: {os.cpu_count()} CPUs, {platform.machine()}, "
            f"python {platform.python_version()}, numpy {numpy.__version__}")


def run_untraced(cls, seed: int, seconds: float, workdir: Path):
    """Set up SETUPS times, measure the last set-up's workload.

    Returns the set-up times (raw and rescaled to the reference host
    speed), the measurement and the peak RSS.
    """
    from perfbench import host

    raw_setups = []
    probes = [host.probe()]
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        workload = cls(seed, workdir)
        t0 = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        raw_setups.append(time.perf_counter() - t0)
        probes.append(host.probe())
    setups = [s * f for s, f in zip(raw_setups, host.speed_factors(probes))]
    try:
        measured = workload.measure(seconds)
    finally:
        workload.close()
    # Read before Hygiene reaps the resource tracker, a fork of this
    # process whose peak would otherwise count as a descendant's.
    return raw_setups, setups, measured, peak_rss_mb()


def run_traced(cls, seed: int, seconds: float, workdir: Path):
    workload = cls(seed, workdir)
    try:
        workload.setup()
        return workload.trace(seconds)
    finally:
        workload.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.host import REFERENCE_PROBE_S
    from perfbench.layers import LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Hygiene(workdir) as hygiene:
            if args.trace:
                traced = run_traced(cls, args.seed, args.seconds, workdir)
            else:
                raw_setups, setups, measured, rss_mb = run_untraced(
                    cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    lines = [
        host_line(),
        f"workload: {args.workload} (seed {args.seed}); {cls.callers}",
        f"why: {WHY[args.workload]}",
    ]
    if args.trace:
        metrics = dict(traced.metrics)
        metrics["shm.leaked_segments"] = hygiene.leaked_segments
        metrics["shm.tracker_errors"] = hygiene.tracker_errors
        units = LAYER_UNITS
        attempted, failed = traced.attempted, traced.failed
    else:
        primary_ops, alt_ops, rate_ops = E2E_OPS[args.workload]
        tail = measured.tail if measured.tail is not None else measured.primary
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
            "op_p50_ms": 1e3 * percentile(measured.primary, 0.5),
            "op_tail_ms": 1e3 * percentile(tail, cls.tail_q),
            "alt_p50_ms": 1e3 * percentile(measured.alt, 0.5),
            "ops_per_s": measured.ops / measured.busy_s,
        }
        units = E2E_UNITS
        attempted, failed = measured.attempted, measured.failed
        lines += [
            f"op_p50_ms/op_tail_ms: {primary_ops}, n={len(measured.primary)}"
            f", tail = p{round(cls.tail_q * 100)} of n={len(tail)} "
            f"({len(tail) - math.ceil(cls.tail_q * len(tail))} beyond)",
            f"alt_p50_ms: {alt_ops}, n={len(measured.alt)}",
            f"ops_per_s: {rate_ops}",
            f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)} "
            f"(raw {', '.join(f'{s:.4f}' for s in raw_setups)})",
            f"host probe: median {1e3 * statistics.median(measured.probes):.4f}"
            f" ms (n={len(measured.probes)}); timings are rescaled to "
            f"{1e3 * REFERENCE_PROBE_S:g} ms",
            f"raw op_p50_ms = {1e3 * percentile(measured.raw_primary, 0.5):.4f}"
            f" ms (not rescaled)",
        ] + measured.notes
        for name, samples in measured.classes.items():
            for q in (0.5, 0.9, 0.99):
                beyond = len(samples) - math.ceil(q * len(samples))
                if q == 0.5 or beyond >= 10:
                    lines.append(
                        f"  {name}_p{round(q * 100)}_ms = "
                        f"{1e3 * percentile(samples, q):.4f} ms "
                        f"(n={len(samples)})")
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    print("\n".join(lines))
    missing = [name for name, value in metrics.items() if math.isnan(value)]
    if missing:
        print(f"perfbench: no samples for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
