"""Span wrappers around the public functions of each layer, and the
per-layer metrics computed from the spans they record.

:func:`install` assigns wrapped callables onto the program's classes and
modules — from here, not from ``src/`` — and is called only in the traced
run; :func:`uninstall` puts the originals back.  Hot inner calls
(``Table.probe_many``, ``lookup``, ...) get no spans; the lazily built
table indexes get one on the call that builds them and none afterwards.

Module-level functions are patched where they are *looked up*: a module
that did ``from .http import read_request`` holds its own reference, so
the wrapper goes onto that importing module.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from .spec import PER_LAYER
from .trace import END, NAME, PARENT, PHASE, START, Tracer, self_times

#: Spans of both executors that count as one query of the engine.
EXECUTOR_CALLS = frozenset(
    f"{layer}.{call}"
    for layer in ("db.executor", "db.sqlbackend.executor")
    for call in ("execute", "count_distinct", "distinct_values", "semijoin")
)

_installed: list[tuple[Any, str, Any]] = []


def _patch(owner: Any, attr: str, replacement: Any) -> None:
    _installed.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def _hold_timers(tracer: Tracer, lock_cls: type, mode: str) -> None:
    """Wait = time inside ``acquire_<mode>``; hold = from its return to the
    matching ``release_<mode>`` call.  Holds overlap the spans of the work
    done under the lock, so they are intervals beside the tree."""
    import threading

    held = threading.local()
    acquire = getattr(lock_cls, f"acquire_{mode}")
    release = getattr(lock_cls, f"release_{mode}")

    def traced_acquire(self: Any) -> None:
        index = tracer.begin(f"api.locks.{mode}_wait")
        try:
            acquire(self)
        finally:
            tracer.end(index)
        held.since = tracer.clock()

    def traced_release(self: Any) -> None:
        since = getattr(held, "since", None)
        if since is not None:
            tracer.interval(f"api.locks.{mode}_hold", tracer.clock() - since)
            held.since = None
        release(self)

    _patch(lock_cls, f"acquire_{mode}", traced_acquire)
    _patch(lock_cls, f"release_{mode}", traced_release)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed in README.md."""
    import repro.api.service as service_mod
    import repro.db.executor as executor_mod
    import repro.db.sqlbackend as sqlbackend_mod
    import repro.server.app as app_mod
    from repro.api.locks import RWLock
    from repro.api.service import AuditService
    from repro.audit.streaming import AccessMonitor
    from repro.client import AuditClient
    from repro.core.engine import ExplanationEngine
    from repro.core.mining import BridgedMiner, OneWayMiner, TwoWayMiner
    from repro.db.drivers.sqlite import SqliteDriver
    from repro.db.executor import Executor
    from repro.db.sqlbackend import SqlExecutor
    from repro.db.table import Table
    from repro.server.app import AuditAPI

    def method(cls: type, attr: str, name: Any, skip: Callable | None = None) -> None:
        _patch(cls, attr, tracer.wrap(cls.__dict__[attr], name, skip))

    def function(module: Any, attr: str, name: str) -> None:
        _patch(module, attr, tracer.wrap(getattr(module, attr), name))

    # api.service -- the facade every workload calls
    opened = tracer.wrap(AuditService.__dict__["open"].__func__, "api.service.open")
    _patch(AuditService, "open", classmethod(opened))
    for attr in (
        "explain", "explain_all", "report", "patient_report",
        "ingest", "ingest_many", "mine",
    ):
        method(AuditService, attr, f"api.service.{attr}")
    # _warm is private, but it is the re-warm the write hold pays for; in
    # set-up it is the eager first pass
    method(
        AuditService,
        "_warm",
        lambda self: "api.service.warm" if tracer.phase == "setup" else "api.service.rewarm",
    )
    function(service_mod, "load_database", "db.csvio.load")
    function(service_mod, "open_sql_database", "db.sqlbackend.load")

    # api.locks
    _hold_timers(tracer, RWLock, "read")
    _hold_timers(tracer, RWLock, "write")

    # core.engine
    method(ExplanationEngine, "explain", "core.engine.explain")
    method(ExplanationEngine, "explain_all", "core.engine.explain_all")
    method(
        ExplanationEngine,
        "notify_appended_many",
        lambda self, lids, use_semijoin=None: (
            "core.engine.notify_appended"
            if len(lids) == 1
            else "core.engine.notify_appended_many"
        ),
    )

    # audit.streaming
    method(AccessMonitor, "ingest", "audit.streaming.ingest")
    method(AccessMonitor, "ingest_many", "audit.streaming.ingest_many")

    # db.executor / db.optimizer / db.table (memory backend)
    method(Executor, "execute", "db.executor.execute")
    method(Executor, "count_distinct", "db.executor.count_distinct")
    method(Executor, "distinct_values", "db.executor.distinct_values")
    method(Executor, "distinct_values_in", "db.executor.semijoin")
    function(executor_mod, "build_plan", "db.optimizer.plan")
    build = "db.table.index_build"
    method(Table, "index_for", build, lambda self, column: column in self._indexes)
    method(
        Table, "project_distinct", build,
        lambda self, columns: tuple(columns) in self._distinct_cache,
    )
    method(
        Table, "projection_index", build,
        lambda self, attrs, key_attrs: (tuple(attrs), tuple(key_attrs))
        in self._proj_index_cache,
    )
    method(
        Table, "projection_index_scalar", build,
        lambda self, attrs, key_attr: (tuple(attrs), key_attr)
        in self._proj_scalar_cache,
    )
    # the monitor appends through insert_many; per-row Table.insert stays
    # unwrapped because load_database calls it once per CSV row
    method(Table, "insert_many", "db.table.insert")

    # db.sqlbackend / db.dialect / db.drivers.sqlite
    method(SqlExecutor, "execute", "db.sqlbackend.executor.execute")
    method(SqlExecutor, "count_distinct", "db.sqlbackend.executor.count_distinct")
    method(SqlExecutor, "distinct_values", "db.sqlbackend.executor.distinct_values")
    method(SqlExecutor, "distinct_values_in", "db.sqlbackend.executor.semijoin")
    for attr in (
        "compile_execute", "compile_count_distinct",
        "compile_distinct_values", "compile_distinct_values_in",
    ):
        function(sqlbackend_mod, attr, "db.dialect.compile")
    method(SqliteDriver, "execute", "db.drivers.sqlite.statement")
    ingest_many = SqliteDriver.__dict__["ingest_many"]

    def traced_ingest_many(self: Any, schema: Any, rows: Any) -> int:
        index = tracer.begin("db.drivers.sqlite.ingest")
        try:
            total = ingest_many(self, schema, rows)
        finally:
            tracer.end(index)
        tracer.count("db.drivers.sqlite.rows_ingested", total)
        return total

    _patch(SqliteDriver, "ingest_many", traced_ingest_many)

    # client
    method(AuditClient, "explain", "client.request")
    method(AuditClient, "patient_report", "client.request")
    method(AuditClient, "_raw_request", "client.wire")

    # server: handlers are bound into the route table when AuditAPI is
    # constructed, so the class is patched before any server starts
    for attr in ("h_explain_post", "h_patient_report"):
        _patch(
            AuditAPI, attr,
            tracer.wrap_async(AuditAPI.__dict__[attr], "server.app.handler"),
        )
    function(app_mod, "to_wire", "api.messages.encode")
    function(app_mod, "dump_json", "api.messages.encode")
    function(app_mod, "response_bytes", "server.http.write")
    read_request = app_mod.read_request

    async def traced_read_request(reader: Any, writer: Any = None) -> Any:
        # the coroutine is parked on the idle connection long before the
        # request exists; the span is clipped to the request in flight
        started = tracer.clock()
        request = await read_request(reader, writer)
        if request is not None:
            tracer.add_closed("server.http.parse", started, tracer.clock())
        return request

    _patch(app_mod, "read_request", traced_read_request)

    # core.mining
    for miner in (OneWayMiner, TwoWayMiner, BridgedMiner):
        method(miner, "mine", "core.mining.mine")


# ----------------------------------------------------------------------
# metrics from spans
# ----------------------------------------------------------------------
class SpanIndex:
    """The spans of one traced run, with self times and ancestry."""

    def __init__(self, tracer: Tracer) -> None:
        self.spans = tracer.spans
        self.selfs = self_times(self.spans)
        self.intervals = tracer.intervals
        self.counts = tracer.counts
        self.by_name: dict[str, list[int]] = {}
        for index, span in enumerate(self.spans):
            self.by_name.setdefault(span[NAME], []).append(index)

    def ids(self, name: str, phases: tuple[str, ...] | None = None) -> list[int]:
        found = self.by_name.get(name, [])
        if phases is None:
            return found
        return [i for i in found if self.spans[i][PHASE] in phases]

    def durations(self, name: str, phases: tuple[str, ...] | None = None) -> list[int]:
        return [
            self.spans[i][END] - self.spans[i][START] for i in self.ids(name, phases)
        ]

    def self_of(self, name: str, phases: tuple[str, ...] | None = None) -> list[int]:
        return [self.selfs[i] for i in self.ids(name, phases)]

    def interval_lengths(
        self, name: str, phases: tuple[str, ...] | None = None
    ) -> list[int]:
        return [
            length
            for phase, length in self.intervals.get(name, ())
            if phases is None or phase in phases
        ]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def executor_calls_under(self, ancestor: str, layer: str = "") -> int:
        """Executor calls (of ``layer`` only, if given) made below a span
        named ``ancestor``."""
        return sum(
            1
            for name in EXECUTOR_CALLS
            if name.startswith(layer)
            for i in self.by_name.get(name, ())
            if self.has_ancestor(i, ancestor)
        )


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def coverage(index: SpanIndex) -> tuple[float, float]:
    """``(traced wall, covered)`` in seconds: the summed duration of the
    root operation spans, and the part of it spent in the self time of
    the program-layer spans under them.  The rest — the roots' own self
    time — is loop and harness overhead, reported rather than hidden."""
    wall = covered = 0
    under_root: list[bool] = []
    for i, span in enumerate(index.spans):
        is_root = span[NAME].startswith("perfbench.")
        # a parent always precedes its children in the span list
        under_root.append(is_root or (span[PARENT] >= 0 and under_root[span[PARENT]]))
        if is_root:
            wall += span[END] - span[START]
        elif under_root[i]:
            covered += index.selfs[i]
    return wall / 1e9, covered / 1e9


def metrics(ix: SpanIndex, counters: dict, notes: dict, overhead_ratio: float) -> dict:
    """Every ``spec.PER_LAYER`` metric of one traced run (0 for a layer
    the workload never entered)."""
    lifetimes = counters.get("lifetimes", 0)
    mine_calls = counters.get("mine_calls", 0)
    us, s = 1e3, 1e9  # ns per unit

    def mean_incl(name: str, unit: float, phases: tuple[str, ...] | None = None) -> float:
        return _mean(ix.durations(name, phases)) / unit

    def mean_self(name: str, unit: float, phases: tuple[str, ...] | None = None) -> float:
        return _mean(ix.self_of(name, phases)) / unit

    def per_lifetime(values: list, unit: float = 1.0) -> float:
        return _ratio(sum(values) / unit, lifetimes)

    sql_executor_selfs = [
        ix.selfs[i]
        for name in EXECUTOR_CALLS
        if name.startswith("db.sqlbackend")
        for i in ix.by_name.get(name, ())
    ]
    handlers = ix.ids("server.app.handler")
    pool_hops = []
    for handler in handlers:
        served = [
            ix.spans[i][START]
            for name in ("api.service.explain", "api.service.patient_report")
            for i in ix.by_name.get(name, ())
            if ix.spans[i][PARENT] == handler
        ]
        if served:
            pool_hops.append(min(served) - ix.spans[handler][START])
    requests = ("closed", "open")  # explain requests, not patient reports
    per_row = ("rows",)  # the per-row ingest phase, not the batches
    queries_run = counters.get("support.queries_run", 0)
    skipped = counters.get("support.skipped", 0)
    hits = counters.get("plan_cache.hits", 0)
    misses = counters.get("plan_cache.misses", 0)
    wall, covered = coverage(ix)

    values = {
        "db.csvio.load_s": mean_incl("db.csvio.load", s),
        "api.service.open_self_s": mean_self("api.service.open", s),
        "db.table.index_build_s": per_lifetime(ix.self_of("db.table.index_build"), s),
        "db.table.index_builds": per_lifetime([1] * len(ix.ids("db.table.index_build"))),
        "db.executor.semijoin_s": per_lifetime(ix.durations("db.executor.semijoin"), s),
        "db.executor.queries": _ratio(
            ix.executor_calls_under("core.engine.explain_all", "db.executor."),
            len(ix.ids("core.engine.explain_all")),
        ),
        "core.engine.explain_all_self_s": mean_self("core.engine.explain_all", s),
        "api.service.report_s": mean_incl("api.service.report", s),
        "db.sqlbackend.load_s": mean_incl("db.sqlbackend.load", s),
        "db.drivers.sqlite.ingest_rows_per_s": _ratio(
            ix.counts.get("db.drivers.sqlite.rows_ingested", 0),
            sum(ix.durations("db.drivers.sqlite.ingest")) / s,
        ),
        "db.dialect.compile_s": per_lifetime(ix.durations("db.dialect.compile"), s),
        "db.dialect.compiles": per_lifetime([1] * len(ix.ids("db.dialect.compile"))),
        "db.drivers.sqlite.statement_s": per_lifetime(
            ix.durations("db.drivers.sqlite.statement"), s
        ),
        "db.drivers.sqlite.statements": _ratio(
            counters.get("sqlite.statements", 0), lifetimes
        ),
        "db.drivers.sqlite.batch_chunks": _ratio(
            counters.get("sqlite.batch_chunks", 0), lifetimes
        ),
        "db.sqlbackend.executor_self_s": per_lifetime(sql_executor_selfs, s),
        "db.drivers.sqlite.store_bytes_per_row": counters.get("store_bytes_per_row", 0),
        "client.request_self_us": mean_self("client.request", us, requests),
        "server.http.parse_us": mean_incl("server.http.parse", us, requests),
        "server.app.handler_self_us": mean_self("server.app.handler", us, requests),
        "server.app.pool_hop_us": _mean(pool_hops) / us,
        "api.locks.read_wait_us": mean_incl("api.locks.read_wait", us),
        "api.locks.read_hold_us": _mean(ix.interval_lengths("api.locks.read_hold")) / us,
        "api.service.explain_self_us": mean_self("api.service.explain", us),
        "api.service.patient_report_us": mean_incl("api.service.patient_report", us),
        "core.engine.explain_us": mean_incl("core.engine.explain", us),
        "core.engine.point_queries_per_explain": _ratio(
            ix.executor_calls_under("core.engine.explain"),
            len(ix.ids("core.engine.explain")),
        ),
        "db.executor.execute_us": mean_incl("db.executor.execute", us),
        "api.messages.encode_us": _ratio(
            sum(ix.durations("api.messages.encode")) / us, len(handlers)
        ),
        "server.http.write_us": mean_incl("server.http.write", us),
        "serve.untraced_gap_us": mean_self("client.wire", us, requests),
        "loadgen.lateness_p99_ms": notes.get("lateness_p99_ms", 0.0),
        "loadgen.backlog_end": notes.get("backlog_end", 0),
        "api.locks.write_wait_us": mean_incl("api.locks.write_wait", us, per_row),
        "api.locks.write_hold_us": _mean(
            ix.interval_lengths("api.locks.write_hold", per_row)
        ) / us,
        "audit.streaming.ingest_self_us": mean_self("audit.streaming.ingest", us),
        "db.table.insert_us": mean_incl("db.table.insert", us, per_row),
        "core.engine.notify_appended_us": mean_incl("core.engine.notify_appended", us),
        "core.engine.delta_queries_per_ingest": counters.get(
            "delta_queries_per_ingest", 0.0
        ),
        "api.service.rewarm_us": mean_incl("api.service.rewarm", us, per_row),
        "api.service.ingest_self_us": mean_self("api.service.ingest", us),
        "core.engine.notify_appended_many_s": mean_incl(
            "core.engine.notify_appended_many", s
        ),
        "core.mining.mine_self_s": mean_self("core.mining.mine", s),
        "core.support.query_s": _ratio(counters.get("support.query_time", 0), mine_calls),
        "core.support.queries_run": _ratio(queries_run, mine_calls),
        "core.support.skipped": _ratio(skipped, mine_calls),
        "core.support.skip_ratio": _ratio(skipped, skipped + queries_run),
        "db.executor.count_distinct_s": _ratio(
            sum(ix.durations("db.executor.count_distinct")) / s, mine_calls
        ),
        "db.optimizer.plan_s": per_lifetime(ix.durations("db.optimizer.plan"), s),
        "db.optimizer.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "core.mining.templates_found": counters.get("templates_found", 0),
        "trace.overhead_ratio": overhead_ratio,
        "trace.coverage_ratio": _ratio(covered, wall),
    }
    missing = {m.name for m in PER_LAYER} ^ set(values)
    if missing:
        raise AssertionError(f"per-layer metrics out of step with spec: {missing}")
    return values
