"""Self time and coverage over Chrome trace events (``repro.obs`` spans).

Pure functions over the ``"X"`` events :func:`repro.obs.stop_trace`
returns: ``{"name", "ts", "dur", "pid", "tid", ...}`` with ``ts``/``dur``
in microseconds of ``time.perf_counter()``.  Spans nest by interval
within one ``(pid, tid)``; a span on another thread or process (a pool
worker) is never a child, it is a root of its own thread.

Unit-tested on synthetic nested events in
``perfbench/tests/test_spans.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Slack (microseconds) for float rounding of ``ts + dur`` at the edges.
EPS_US = 0.01


@dataclass
class Node:
    """One span with its direct children's summed duration."""

    name: str
    pid: int
    tid: int
    start: float
    end: float
    args: dict = field(default_factory=dict)
    child_us: float = 0.0
    parent: "Node | None" = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_us(self) -> float:
        """Duration not covered by a direct child span."""
        return max(0.0, self.dur - self.child_us)


def build_tree(events: list[dict]) -> list[Node]:
    """Nest complete events by (pid, tid) and interval containment."""
    by_thread: dict[tuple, list[Node]] = {}
    for ev in events:
        if ev.get("ph", "X") != "X":
            continue
        start = float(ev["ts"])
        node = Node(
            name=ev["name"], pid=ev.get("pid", 0), tid=ev.get("tid", 0),
            start=start, end=start + float(ev["dur"]),
            args=dict(ev.get("args") or {}),
        )
        by_thread.setdefault((node.pid, node.tid), []).append(node)
    nodes: list[Node] = []
    for thread_nodes in by_thread.values():
        # Parents first on ties: earlier start, then the longer span.
        thread_nodes.sort(key=lambda n: (n.start, -n.dur))
        stack: list[Node] = []
        for node in thread_nodes:
            while stack and node.end > stack[-1].end + EPS_US:
                stack.pop()
            if stack:
                node.parent = stack[-1]
                stack[-1].child_us += node.dur
            stack.append(node)
        nodes.extend(thread_nodes)
    return nodes


def self_times(nodes: list[Node]) -> dict[str, dict[str, float]]:
    """``{name: {"count", "self_us", "total_us"}}`` over every span."""
    out: dict[str, dict[str, float]] = {}
    for node in nodes:
        entry = out.setdefault(
            node.name, {"count": 0, "self_us": 0.0, "total_us": 0.0}
        )
        entry["count"] += 1
        entry["self_us"] += node.self_us
        entry["total_us"] += node.dur
    return out


def covered_us(nodes: list[Node], pid: int, tid: int, start: float,
               end: float) -> float:
    """Microseconds of ``[start, end]`` under a root span of (pid, tid)."""
    spans = sorted(
        (max(n.start, start), min(n.end, end))
        for n in nodes
        if n.parent is None and n.pid == pid and n.tid == tid
        and n.end > start and n.start < end
    )
    total = 0.0
    cur_start = cur_end = None
    for s, e in spans:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def unattributed_share(nodes: list[Node], windows: list[tuple]) -> float:
    """Share of benchmark-timed wall that no root span covers.

    *windows* are ``(pid, tid, start_us, end_us)`` intervals the
    benchmark timed around its calls into the program.
    """
    timed = sum(end - start for _, _, start, end in windows)
    if timed <= 0:
        return 0.0
    covered = sum(covered_us(nodes, *window) for window in windows)
    return max(0.0, 1.0 - covered / timed)
