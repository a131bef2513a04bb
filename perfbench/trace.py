"""In-memory spans recorded from perfbench's own files.

A :class:`Tracer` keeps every span (name, layer, start, end, parent id,
operation id, phase) in a list and writes them out when the workload
ends.  The program under test is not edited: :mod:`perfbench.layers`
assigns wrapped callables onto its public classes and functions, and
only in the traced run.

Open spans live on ONE stack shared by all threads.  That is correct
because the traced workloads keep a single operation in flight: the
client thread waits while the event loop works, which waits while the
pool thread works, so spans nest strictly even across threads and a
span begun on the pool thread is parented by the handler span the event
loop left open.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections.abc import Callable, Sequence
from typing import Any

# span record fields
NAME, START, END, PARENT, OP, PHASE = range(6)


def layer_of(name: str) -> str:
    """``db.executor.execute`` -> ``db.executor``."""
    return name.rsplit(".", 1)[0]


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: ``[name, start_ns, end_ns, parent index or -1, op id, phase]``
        self.spans: list[list] = []
        #: name -> ``(phase, length_ns)`` of measured intervals that are
        #: not part of the span tree (lock holds: they overlap the spans of
        #: the work done under the lock).
        self.intervals: dict[str, list[tuple[str, int]]] = {}
        #: name -> running total reported by a wrapped call's result.
        self.counts: dict[str, float] = {}
        self.phase = "setup"
        self.op = 0
        self._stack: list[int] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        with self._lock:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), 0, parent, self.op, self.phase])
            self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = self.clock()
        with self._lock:
            self.spans[index][END] = now
            if self._stack and self._stack[-1] == index:
                self._stack.pop()
            elif index in self._stack:
                self._stack.remove(index)

    def add_closed(self, name: str, start: int, end: int) -> None:
        """Record an already-finished span under the innermost open one,
        clipped to begin no earlier than that parent."""
        with self._lock:
            if not self._stack:
                return
            parent = self._stack[-1]
            start = max(start, self.spans[parent][START])
            self.spans.append([name, start, max(start, end), parent, self.op, self.phase])

    def interval(self, name: str, length_ns: int) -> None:
        with self._lock:
            self.intervals.setdefault(name, []).append((self.phase, length_ns))

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def next_op(self) -> int:
        self.op += 1
        return self.op

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        skip: Callable[..., bool] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.  ``name`` may be computed
        from the call's arguments; ``skip`` (same arguments) bypasses the
        span — used to time only the first, cache-filling call of a
        lazily built index."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if skip is not None and skip(*args, **kwargs):
                return fn(*args, **kwargs)
            index = self.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            index = self.begin(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- output --------------------------------------------------------
    def dump(self, path: str, selfs: Sequence[int], extra: dict | None = None) -> None:
        """Write every span, with its self time (:func:`self_times`), as
        one JSON document (times in ns from the first span's start)."""
        origin = self.spans[0][START] if self.spans else 0
        document = {
            "format": "perfbench-trace-1",
            "fields": [
                "id", "name", "layer", "start_ns", "end_ns", "self_ns",
                "parent", "op", "phase",
            ],
            "spans": [
                [
                    i, s[NAME], layer_of(s[NAME]), s[START] - origin,
                    s[END] - origin, selfs[i], s[PARENT], s[OP], s[PHASE],
                ]
                for i, s in enumerate(self.spans)
            ],
            "intervals_ns": self.intervals,
            "counts": self.counts,
        }
        document.update(extra or {})
        with open(path, "w") as fh:
            json.dump(document, fh, separators=(",", ":"))


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Per span, its duration minus the part of that interval its child
    spans cover (children clipped to the parent; overlapping children are
    counted once)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], max(span[START], span[END])
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(0, end - start - covered))
    return out
