"""The five workloads and the context one run of a workload works in.

Each workload module exposes ``plan(seconds, smoke) -> dict`` (operation
counts derived from the time budget, so two runs with the same arguments
do identical work), ``reference_plan``/``traced_plan`` (the shortened
untraced and traced halves of a ``--trace 1`` run) and ``run(ctx)``.
"""

from __future__ import annotations

import gc
import os
import random
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

from repro.db.optimizer import shared_plan_cache

from ..trace import Tracer
from ..worlds import WORLD_DIR, load_oracle


class Run:
    """What one run of a workload works with and accounts into."""

    def __init__(
        self, workdir: str, seed: int, plan: dict, tracer: Tracer | None = None
    ) -> None:
        self.workdir = workdir
        self.world_dir = os.path.join(workdir, WORLD_DIR)
        self.plan = plan
        self.tracer = tracer
        self.oracle = load_oracle(workdir)
        self.rng = random.Random(seed)
        #: Operations attempted / failed (raised, non-2xx, or disagreed
        #: with the oracle).
        self.attempted = 0
        self.failed = 0
        #: op kind -> per-operation seconds, in order.
        self.ops: dict[str, list[float]] = {}
        #: Counters read from the program's own ``stats()`` surfaces.
        self.counters: dict[str, float] = {}
        #: The workload-specific end-to-end metrics (spec.NAMED names).
        self.named: dict[str, float] = {}
        #: The uniform end-to-end metrics (spec.END_TO_END names) the
        #: workload maps its own onto; peak_rss_mb is added by the caller.
        self.e2e: dict[str, float] = {}
        #: Sample counts and percentile ranks behind the named metrics.
        self.notes: dict[str, Any] = {}
        self._shared_cache_before = shared_plan_cache().stats()

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    @contextmanager
    def op_span(self, kind: str) -> Iterator[None]:
        """In the traced run, the root span one operation's layer spans
        hang under; nothing otherwise."""
        if self.tracer is None:
            yield
            return
        self.tracer.next_op()
        index = self.tracer.begin(f"perfbench.{kind}")
        try:
            yield
        finally:
            self.tracer.end(index)

    def timed(self, kind: str, fn: Callable, *args: Any, **kwargs: Any) -> tuple[Any, float]:
        """Call ``fn`` as one operation of ``kind``: timed, counted, and
        spanned.  Workloads are chosen so that nothing fails; an
        exception is counted and propagates, failing the run."""
        self.attempted += 1
        with self.op_span(kind):
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            seconds = time.perf_counter() - started
        self.ops.setdefault(kind, []).append(seconds)
        return result, seconds

    def check(self, ok: bool) -> bool:
        """Count one oracle comparison as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def add_counter(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def settle(self) -> None:
        """Collect garbage outside any timed region, so a repetition does
        not pay for the previous one's dead indexes."""
        gc.collect()

    def service_counters(self, service: Any) -> None:
        """Read a service's own counters before it is closed: its plan
        cache, and on the SQLite backend the driver's statement counts."""
        stats = service.plan_cache.stats()
        self.add_counter("plan_cache.hits", stats["hits"])
        self.add_counter("plan_cache.misses", stats["misses"])
        driver = getattr(service.db, "driver", None)
        if driver is not None:
            snapshot = driver.snapshot_stats()
            self.add_counter("sqlite.statements", snapshot["statements_executed"])
            self.add_counter("sqlite.batch_chunks", snapshot["batch_chunks"])

    def finish(self) -> None:
        """Add what the process-wide plan cache (the miners' support
        evaluator uses it, not the service's) saw during this run."""
        after = shared_plan_cache().stats()
        for key in ("hits", "misses"):
            self.add_counter(
                f"plan_cache.{key}", after[key] - self._shared_cache_before[key]
            )
