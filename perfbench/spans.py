"""In-memory spans around the calls one revprime module makes into the next.

The tracer replaces module attributes (the names a caller imported) with
wrappers for the length of one traced op and puts the originals back
afterwards, so untraced ops run the program unchanged.  Nothing in the
package itself is edited.

A span is a tuple ``(id, parent, group, name, start, end, op, work)``.
Parents come from a per-thread stack; ``adopt`` carries the submitting
thread's current span into pool workers, so cells run on worker threads
nest under the suite that spawned them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

SPAN_ID, SPAN_PARENT, SPAN_GROUP, SPAN_NAME, SPAN_START, SPAN_END, SPAN_OP, SPAN_WORK = range(8)


def _safe(fn: Optional[Callable], args, kwargs):
    """Label or work of one call; a signature change must not break the program."""
    if fn is None:
        return None
    try:
        return fn(args, kwargs)
    except Exception:
        return None


class Tracer:
    """Records spans and call counts for the ops run while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: dict[str, itertools.count] = {}
        self._reads: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, fn: Callable, group: str, label=None, work=None) -> Callable:
        """fn wrapped in a span named group (plus ".<label>" when label gives one)."""
        spans, ids, clock, stack_of = self.spans, self._ids, time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            tag = _safe(label, args, kwargs)
            name = group if tag is None else f"{group}.{tag}"
            amount = _safe(work, args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, group, name, start, end, self.op, amount))

        return traced

    def counted(self, fn: Callable, name: str) -> Callable:
        """fn wrapped to count calls only; itertools.count is atomic under the GIL."""
        tick = self._counters.setdefault(name, itertools.count())
        self._reads.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        return traced

    def take_count(self, name: str) -> int:
        """Calls of a counted name since the previous take_count."""
        tick = self._counters.get(name)
        if tick is None:
            return 0
        seen = next(tick) - self._reads[name]
        self._reads[name] += seen + 1
        return seen

    def adopt(self, pool_map: Callable) -> Callable:
        """Wrap a map(fn, cells, threads) helper so cells nest under the caller's span."""
        stack_of = self._stack

        @functools.wraps(pool_map)
        def traced(fn, cells, *rest, **kwargs):
            caller = stack_of()
            parent = caller[-1] if caller else None

            def cell(item):
                stack = stack_of()
                stack.append(parent)
                try:
                    return fn(item)
                finally:
                    stack.pop()

            return pool_map(cell, cells, *rest, **kwargs)

        return traced

    def span(self, group: str, fn: Callable, *args):
        """Call fn(*args) inside a span of its own (the op's root spans)."""
        return self.timed(fn, group)(*args)

    def install(self, plan: Iterable[tuple]) -> None:
        """Patch each (module, attribute, kind, group, label, work) of plan.

        kind is "timed", "counted" or "adopt".  A missing attribute is
        recorded in ``absent`` and skipped, so a renamed function drops
        its metric without stopping the run.
        """
        self.absent = []
        for module_name, attr, kind, group, label, work in plan:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if kind == "timed":
                wrapped = self.timed(original, group, label, work)
            elif kind == "counted":
                wrapped = self.counted(original, group)
            else:
                wrapped = self.adopt(original)
            self._patched.append((module, attr, original))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children running at once on several threads are counted once over
    the interval they share, so a suite fanned out over a pool keeps
    only the time no cell was running.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[SPAN_PARENT] is not None:
            children[s[SPAN_PARENT]].append((s[SPAN_START], s[SPAN_END]))
    return {
        s[SPAN_ID]: (s[SPAN_END] - s[SPAN_START])
        - _covered(children.get(s[SPAN_ID], []), s[SPAN_START], s[SPAN_END])
        for s in spans
    }
