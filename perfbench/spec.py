"""Names, units, directions and bounds of everything perfbench reports.

This module is the single source of the benchmark's vocabulary:
``BENCHMARK.json`` at the repository root must list exactly the
workloads, end-to-end metrics and per-layer metrics defined here (the
self-tests compare the two), and later issues cite these names.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What one driver run measures, in seconds; operation counts are derived
#: from ``--seconds`` so that the timed phases last about this long on
#: the machine the benchmark was sized on (2 cores, CPython 3.11).
RUN_SECONDS = 12

#: Latency limit on the open-loop ``explain`` p99 of ``serve_point``.
EXPLAIN_P99_LIMIT_MS = 25.0
#: Fixed arrival rate of the ``serve_point`` open loop, requests/second.
OPEN_LOOP_RATE = 150.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end metrics only; per-layer metrics carry no bound).
    bound: float | None = None


#: Workload name -> one-line reason it exists.
WORKLOADS: dict[str, str] = {
    "audit_batch": (
        "Whole-log cold audit of a 135k-access CSV extract in memory: csvio, "
        "table indexes, executor semijoins and core.engine do the work; "
        "server, messages and dialect do none."
    ),
    "audit_sqlite": (
        "Same audit on the SQLite backend at 28k accesses: executor and "
        "table are bypassed; dialect, sqlbackend and the sqlite driver "
        "carry the load."
    ),
    "serve_point": (
        "One access per /v1/ request against warm caches, closed loop then "
        "open loop at 150 req/s: http, app, locks, messages and client take "
        "their largest share here."
    ),
    "ingest_stream": (
        "Time-ordered appends with reads interleaved on one thread: the "
        "write side of service, engine and table (write hold, delta "
        "queries, re-warm)."
    ),
    "mine_templates": (
        "The three template miners of the paper on one log: about 3.9k query "
        "shapes overflow the 1024-entry plan cache; mining, support and "
        "optimizer dominate."
    ),
}

#: The end-to-end metrics every workload reports (``--trace 0``).  What
#: each one measures per workload is tabulated in README.md.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_tail_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.20),
)


@dataclass(frozen=True)
class Named:
    """A workload-specific end-to-end metric of the human report (the
    names ISSUE 11 fixed; its ``setup_s`` and ``peak_rss_mb`` are the
    uniform metrics above); ``perfbench.compare`` judges these too."""

    name: str
    unit: str
    better: str
    bound: float
    workloads: tuple[str, ...]


_ALL = tuple(WORKLOADS)

NAMED: tuple[Named, ...] = (
    Named(
        "audit_accesses_per_s", "1/s", "higher", 0.10,
        ("audit_batch", "audit_sqlite"),
    ),
    Named("explain_req_per_s", "1/s", "higher", 0.10, ("serve_point",)),
    Named(
        "explain_p50_ms", "ms", "lower", 0.10,
        ("audit_batch", "audit_sqlite", "serve_point", "ingest_stream"),
    ),
    Named("explain_p99_ms", "ms", "lower", 0.20, ("serve_point",)),
    Named("patient_report_p50_ms", "ms", "lower", 0.10, ("serve_point",)),
    Named("ingest_accesses_per_s", "1/s", "higher", 0.10, ("ingest_stream",)),
    Named("ingest_p50_ms", "ms", "lower", 0.10, ("ingest_stream",)),
    Named("ingest_p99_ms", "ms", "lower", 0.20, ("ingest_stream",)),
    Named(
        "ingest_batch_accesses_per_s", "1/s", "higher", 0.10,
        ("ingest_stream",),
    ),
    Named("mine_s", "s", "lower", 0.10, ("mine_templates",)),
    Named("store_bytes_per_row", "B/row", "lower", 0.02, ("audit_sqlite",)),
    Named("failed_share", "ratio", "lower", 0.0, _ALL),
)

#: Per-layer metrics of the traced run (``--trace 1``).  A layer a
#: workload bypasses reports 0 — that zero is the prediction "no change".
#: Time metrics are means per call of the named span unless the comment
#: says "per service lifetime" (total over the timed run divided by the
#: number of services opened: one per cold pass on the audit workloads,
#: one otherwise).
PER_LAYER: tuple[Metric, ...] = (
    # set-up and the cold batch pass
    Metric("db.csvio.load_s", "s", "lower"),
    Metric("api.service.open_self_s", "s", "lower"),
    Metric("db.table.index_build_s", "s", "lower"),  # per service lifetime
    Metric("db.table.index_builds", "count", "lower"),  # per service lifetime
    Metric("db.executor.semijoin_s", "s", "lower"),  # per service lifetime
    Metric("db.executor.queries", "count", "lower"),  # per explain_all
    Metric("core.engine.explain_all_self_s", "s", "lower"),
    Metric("api.service.report_s", "s", "lower"),
    # the SQLite backend
    Metric("db.sqlbackend.load_s", "s", "lower"),
    Metric("db.drivers.sqlite.ingest_rows_per_s", "1/s", "higher"),
    Metric("db.dialect.compile_s", "s", "lower"),  # per service lifetime
    Metric("db.dialect.compiles", "count", "lower"),  # per service lifetime
    Metric("db.drivers.sqlite.statement_s", "s", "lower"),  # per lifetime
    Metric("db.drivers.sqlite.statements", "count", "lower"),  # per lifetime
    Metric("db.drivers.sqlite.batch_chunks", "count", "lower"),  # per lifetime
    Metric("db.sqlbackend.executor_self_s", "s", "lower"),  # per lifetime
    Metric("db.drivers.sqlite.store_bytes_per_row", "B/row", "lower"),
    # one request through the wire tier
    Metric("client.request_self_us", "us", "lower"),
    Metric("server.http.parse_us", "us", "lower"),
    Metric("server.app.handler_self_us", "us", "lower"),
    Metric("server.app.pool_hop_us", "us", "lower"),
    Metric("api.locks.read_wait_us", "us", "lower"),
    Metric("api.locks.read_hold_us", "us", "lower"),
    Metric("api.service.explain_self_us", "us", "lower"),
    Metric("api.service.patient_report_us", "us", "lower"),
    Metric("core.engine.explain_us", "us", "lower"),
    Metric("core.engine.point_queries_per_explain", "count", "lower"),
    Metric("db.executor.execute_us", "us", "lower"),
    Metric("api.messages.encode_us", "us", "lower"),  # per served request
    Metric("server.http.write_us", "us", "lower"),
    Metric("serve.untraced_gap_us", "us", "lower"),
    Metric("loadgen.lateness_p99_ms", "ms", "lower"),
    Metric("loadgen.backlog_end", "count", "lower"),
    # the write side
    Metric("api.locks.write_wait_us", "us", "lower"),
    Metric("api.locks.write_hold_us", "us", "lower"),
    Metric("audit.streaming.ingest_self_us", "us", "lower"),
    Metric("db.table.insert_us", "us", "lower"),
    Metric("core.engine.notify_appended_us", "us", "lower"),
    Metric("core.engine.delta_queries_per_ingest", "count", "lower"),
    Metric("api.service.rewarm_us", "us", "lower"),
    Metric("api.service.ingest_self_us", "us", "lower"),
    Metric("core.engine.notify_appended_many_s", "s", "lower"),
    # mining (means per mine call)
    Metric("core.mining.mine_self_s", "s", "lower"),
    Metric("core.support.query_s", "s", "lower"),
    Metric("core.support.queries_run", "count", "lower"),
    Metric("core.support.skipped", "count", "higher"),
    Metric("core.support.skip_ratio", "ratio", "higher"),
    Metric("db.executor.count_distinct_s", "s", "lower"),
    Metric("db.optimizer.plan_s", "s", "lower"),  # per service lifetime
    Metric("db.optimizer.plan_cache_hit_ratio", "ratio", "higher"),
    Metric("core.mining.templates_found", "count", "higher"),
    # the tracer itself
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.coverage_ratio", "ratio", "higher"),
)


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
