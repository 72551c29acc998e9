"""Span tracer for the benchmark's traced run.

The tracer wraps public functions at the binding the calling module uses
(for example ``exfree.solver.exists_clique_in_mask``), so a layer's own
recursion through its module globals is never traced. Every call adds to
per-thread aggregates (calls, total time, self time, hits, a count); only
spans at stack depth 0 and 1 (ops, layer entries, worker-thread roots) are
kept as individual records, so a solve making millions of calls keeps the
tracer's memory bounded.

Self time of a span is its duration minus the part of that interval its
child spans cover. Children on the span's own thread run one after another,
so their durations add. While a *region* span (scan, replay) is open on the
main thread, root spans opened by worker threads are its children too; they
may overlap, so the region subtracts the union of all its children's
intervals. Worker-thread root spans also record the thread's CPU time,
because their wall time includes waiting for the interpreter lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

# aggregate slots
CALLS, TOTAL, SELF, HITS, EXTRA = range(5)
# frame slots: time covered by children, child intervals (regions only);
# an interval is (start, end, span name, busy time)
_CHILD, _INTERVALS = 0, 1


@dataclass(frozen=True)
class Span:
    """One kept span: an op, a layer entry, a region or a worker-thread root."""

    name: str
    thread: int
    start: float
    end: float
    depth: int
    self_s: float


def union_length(intervals) -> float:
    """Total length covered by (start, end, ...) intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end, *_ in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class Tracer:
    """Per-thread span stacks and aggregates; see the module docstring.

    Create it on the thread that runs the ops: that thread is the one whose
    region spans adopt other threads' root spans.
    """

    def __init__(self, regions=(), clock=time.perf_counter, cpu_clock=time.thread_time):
        self.regions = frozenset(regions)
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        # per region name: wall time, and the busy time of its children
        # (main-thread direct children: duration; adopted worker-thread
        # roots: thread CPU time) per child span name
        self.region_wall_s: dict[str, float] = {}
        self.region_child_s: dict[str, dict[str, float]] = {}
        self._local = threading.local()
        self._aggs: list[dict[str, list]] = []
        self._lock = threading.Lock()
        self._region = None  # the open region frame, if any
        self._main = threading.get_ident()

    def _thread_state(self):
        loc = self._local
        loc.stack, loc.agg = [], {}
        with self._lock:
            self._aggs.append(loc.agg)
        return loc

    def wrap(self, name: str, fn, hit=None, extra=None):
        """Wrap fn in a span named name. hit(result) -> bool and
        extra(args, result) -> int feed the aggregate's hit and count slots."""
        tracer = self
        local = self._local
        clock = self.clock
        is_region = name in self.regions

        def traced(*args, **kwargs):
            try:
                stack = local.stack
                agg = local.agg
            except AttributeError:
                loc = tracer._thread_state()
                stack, agg = loc.stack, loc.agg
            depth = len(stack)
            if depth <= 1 or is_region:
                return tracer._kept_call(name, fn, hit, extra, args, kwargs)
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1]
                parent[_CHILD] += dur
                if parent[_INTERVALS] is not None:
                    parent[_INTERVALS].append((t0, t1, name, dur))
                a = agg.get(name)
                if a is None:
                    a = agg[name] = [0, 0.0, 0.0, 0, 0]
                a[CALLS] += 1
                a[TOTAL] += dur
                a[SELF] += dur - frame[_CHILD]
            if ok:
                if hit is not None and hit(result):
                    a[HITS] += 1
                if extra is not None:
                    a[EXTRA] += extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a kept span (used for op spans)."""
        return self._kept_call(name, fn, None, None, args, kwargs)

    def _kept_call(self, name, fn, hit, extra, args, kwargs):
        try:
            stack, agg = self._local.stack, self._local.agg
        except AttributeError:
            loc = self._thread_state()
            stack, agg = loc.stack, loc.agg
        ident = threading.get_ident()
        on_main = ident == self._main
        region = name in self.regions and on_main
        frame = [0.0, [] if region else None]
        if region:
            self._region = frame
        stack.append(frame)
        cpu0 = None if on_main else self.cpu_clock()
        t0 = self.clock()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = self.clock()
            busy = t1 - t0 if on_main else self.cpu_clock() - cpu0
            stack.pop()
            dur = t1 - t0
            if region:
                self._region = None
                self_s = dur - union_length(frame[_INTERVALS])
                self.region_wall_s[name] = self.region_wall_s.get(name, 0.0) + dur
                by_child = self.region_child_s.setdefault(name, {})
                for _, _, child, child_busy in frame[_INTERVALS]:
                    by_child[child] = by_child.get(child, 0.0) + child_busy
            else:
                self_s = dur - frame[_CHILD]
            if stack:
                parent = stack[-1]
                parent[_CHILD] += dur
                if parent[_INTERVALS] is not None:
                    parent[_INTERVALS].append((t0, t1, name, busy))
            elif not on_main:
                with self._lock:
                    open_region = self._region
                    if open_region is not None:
                        open_region[_INTERVALS].append((t0, t1, name, busy))
            a = agg.get(name)
            if a is None:
                a = agg[name] = [0, 0.0, 0.0, 0, 0]
            a[CALLS] += 1
            a[TOTAL] += dur
            a[SELF] += self_s
            with self._lock:
                self.spans.append(Span(name, ident, t0, t1, len(stack), self_s))
        if ok:
            if hit is not None and hit(result):
                a[HITS] += 1
            if extra is not None:
                a[EXTRA] += extra(args, result)
        return result

    def totals(self) -> dict[str, list]:
        """Aggregates merged over every thread that traced a call."""
        out: dict[str, list] = {}
        with self._lock:
            per_thread = [dict(a) for a in self._aggs]
        for agg in per_thread:
            for name, a in agg.items():
                m = out.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i in range(5):
                    m[i] += a[i]
        return out
