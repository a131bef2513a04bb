"""Sharded scatter-gather execution: the multi-core audit service.

The explanation workload is embarrassingly partitionable: every template
is anchored on the accessing user and the *patient* whose record was
touched, and every log self-join in the template language equates the
``Patient`` attribute — so hash-partitioning the log by patient
(:func:`repro.db.sharding.partition_by_patient`) lets each shard be
explained entirely locally.  :class:`ShardedAuditService` exploits that:

* **state** — each shard owns a full columnar table set for the log,
  its own :class:`~repro.db.executor.Executor`,
  :class:`~repro.db.optimizer.PlanCache`, delta-maintained
  :class:`~repro.core.engine.ExplanationEngine`, and
  :class:`~repro.audit.streaming.AccessMonitor`; the clinical event
  tables are shared (read-only under the audit workload);
* **scatter** — ``explain_all``/``explain_batch``/``report``/
  ``coverage``/mining-support calls fan out over every shard through a
  ``concurrent.futures`` pool; ``patient_report`` and ``ingest`` route
  straight to the owning shard;
* **gather** — per-shard explained/unexplained partitions are disjoint
  by construction, so merging is set union and count addition; results
  are *identical* to the single-node :class:`~repro.api.AuditService`
  (pinned by ``tests/test_sharded_differential.py``).

Two executor kinds (``AuditConfig.executor_kind``):

* ``"thread"`` (default) — shard state lives in-process; the scatter
  pool is a ``ThreadPoolExecutor``.  Cheap to open, zero serialization,
  but CPU-bound evaluation shares the GIL: right for small deployments
  and for I/O-adjacent serving tiers.
* ``"process"`` — each shard is pinned to a dedicated single-worker
  ``ProcessPoolExecutor`` whose initializer builds the shard state
  inside the worker; every operation on that shard runs in its process.
  True multi-core evaluation (``benchmarks/bench_sharded_explain.py``
  demands >= 2x on >= 4 cores); the one-time cost is shipping each shard
  payload to its worker.

The global log-id sequence is owned by the parent service (shard
monitors append caller-assigned ids via
:meth:`~repro.audit.streaming.AccessMonitor.ingest_prepared`), so
ingest results — ids, timestamps, alert order — are byte-identical to
the unsharded service.

Writer operations the sharded layout cannot partition (template mining,
group inference) intentionally raise: run them on a single-node service
over the same database, then broadcast the outcome with
:meth:`ShardedAuditService.add_templates`.
"""

from __future__ import annotations

import datetime as dt
import multiprocessing as mp
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, NoReturn

from ..audit.streaming import AccessMonitor, StreamedAccess
from ..core.engine import BatchExplanation, ExplanationEngine
from ..core.instance import rank_instances
from ..core.library import TemplateLibrary
from ..core.scan import LogScanner
from ..core.template import ExplanationTemplate
from ..db.backend import AnyDatabase, AnyTable, make_executor
from ..db.csvio import load_database
from ..db.database import Database
from ..db.optimizer import PlanCache
from ..db.sharding import partition_by_patient, shard_of
from ..db.sqlbackend import SqlDatabase, open_sql_database, shard_db_path
from .config import AuditConfig
from .errors import UnsupportedOperationError
from .locks import RWLock
from .messages import (
    AccessView,
    AuditReport,
    ExplainRequest,
    ExplainResult,
    ExplanationView,
    IngestResult,
    PatientReport,
    ScanPage,
    ScanRequest,
    ScanState,
    UnexplainedView,
    assemble_partition,
    assemble_report,
)
from .service import AuditService, format_patient_report, resolve_templates

#: Callback type for unexplained-access alerts (parent-side).
AlertHandler = Callable[[IngestResult], None]

#: Partition-key attribute of the audited log.
PATIENT_ATTR = "Patient"


# ----------------------------------------------------------------------
# shard-local state and operations
#
# One implementation shared by both executor kinds: the thread backend
# calls these functions on in-process state, the process backend calls
# the very same functions on worker-resident state — which is what makes
# thread/process equivalence a structural property rather than a testing
# aspiration.  Every return value is built from picklable primitives.
# ----------------------------------------------------------------------
@dataclass
class ShardState:
    """Everything one shard owns: database, engine, monitor, config."""

    index: int
    db: AnyDatabase
    config: AuditConfig
    engine: ExplanationEngine
    monitor: AccessMonitor


def build_shard_state(
    index: int,
    db: AnyDatabase,
    templates: Sequence[ExplanationTemplate],
    config: AuditConfig,
) -> ShardState:
    """Construct one shard's engine stack exactly the way
    :class:`~repro.api.AuditService` builds its single-node stack — a
    private LRU plan cache, optional eager warm.

    Under ``config.backend == "sqlite"`` the in-memory shard partition is
    first converted to (or, on restart, reused from) the shard's private
    SQLite database: ``shard_db_path(config.db_path, index)`` derives one
    file per shard, and ``None`` keeps each shard in SQLite's private
    memory.  The conversion runs *here* — inside the worker process for
    the process executor kind — so every SQLite connection is opened
    post-fork."""
    if config.backend == "sqlite" and not isinstance(db, SqlDatabase):
        db = open_sql_database(db, shard_db_path(config.db_path, index))
    plan_cache = PlanCache(max_size=config.plan_cache_size)
    engine = ExplanationEngine(
        db,
        templates,
        log_table=config.log_table,
        log_id_attr=config.log_id_attr,
        executor=make_executor(db, plan_cache=plan_cache),
    )
    monitor = AccessMonitor(engine)
    if config.eager_warm:
        engine.warm()
    return ShardState(
        index=index, db=db, config=config, engine=engine, monitor=monitor
    )


def _log_columns(state: ShardState) -> tuple[AnyTable, tuple[int, int, int, int]]:
    log = state.db.table(state.config.log_table)
    schema = log.schema
    return log, (
        schema.column_index(state.config.log_id_attr),
        schema.column_index("Date"),
        schema.column_index("User"),
        schema.column_index(PATIENT_ATTR),
    )


def _op_ping(state: ShardState) -> int:
    """Force worker start-up (and eager warm) at open time."""
    return state.index


def _op_next_lid(state: ShardState) -> int:
    """The shard monitor's next log id.  On a fresh partition this equals
    the parent's own counter; after a SQLite restart-reopen a shard file
    may hold previously ingested rows the (re-partitioned) source never
    saw, so the parent takes the max over every shard at open time."""
    return state.monitor._next_lid


def _op_counts(state: ShardState) -> tuple[int, int]:
    return state.engine.coverage_counts()


def _op_unexplained(state: ShardState) -> set:
    return set(state.engine.unexplained_lids())


def _op_explain_all(state: ShardState) -> tuple[frozenset, frozenset]:
    result = state.engine.explain_all()
    return result.explained, result.unexplained


def _op_explain_batch(
    state: ShardState, batch: frozenset
) -> tuple[frozenset, frozenset]:
    local = set(batch) & state.engine.all_lids()
    result = state.engine.explain_batch(local)
    return result.explained, result.unexplained


def _op_explain(state: ShardState, lid: Any) -> list:
    # Only the owning shard can hold the lid (shard logs are disjoint);
    # answering from the cached lid universe keeps the scatter O(1) on
    # every non-owner instead of O(templates) point queries.
    if lid not in state.engine.all_lids():
        return []
    return state.engine.explain(lid)


def _op_patient_report(state: ShardState, patient: Any, limit: int | None) -> tuple:
    log, (lid_i, date_i, user_i, _patient_i) = _log_columns(state)
    rows = sorted(
        log.lookup(PATIENT_ATTR, patient),
        key=lambda r: (r[date_i], r[lid_i]),
    )
    if limit is not None:
        rows = rows[:limit]
    entries = []
    for row in rows:
        instances = state.engine.explain(row[lid_i])
        entries.append(
            AccessView(
                lid=row[lid_i],
                date=row[date_i],
                user=row[user_i],
                explanations=tuple(i.render() for i in instances),
            )
        )
    return tuple(entries)


def _op_report_rows(state: ShardState) -> tuple[int, list[tuple]]:
    log, (lid_i, date_i, user_i, patient_i) = _log_columns(state)
    unexplained = state.engine.unexplained_lids()
    total = len(state.engine.all_lids())
    rows = [
        (r[lid_i], r[date_i], r[user_i], r[patient_i])
        for r in log.rows()
        if r[lid_i] in unexplained
    ]
    return total, rows


def _op_scan_slice(
    state: ShardState,
    after: tuple | None,
    page_rows: int,
    quantum_seconds: float | None,
) -> tuple[list[tuple], bool]:
    """One bounded scan slice of this shard's log: up to ``page_rows``
    classified rows past ``after`` in ``(date, lid)`` order, plus the
    shard's done flag.  The parent re-merges and re-cuts globally."""
    result = LogScanner(state.engine).slice(after, page_rows, quantum_seconds)
    rows = [
        (r.lid, r.date, r.user, r.patient, r.explained) for r in result.rows
    ]
    return rows, result.done


def _op_explained_lids(state: ShardState, template: ExplanationTemplate) -> set:
    return set(state.engine.explained_lids(template))


def _op_support_counts(
    state: ShardState, templates: Sequence[ExplanationTemplate]
) -> list[int]:
    return state.engine.support_counts(templates)


def _op_templates(state: ShardState) -> tuple:
    return state.engine.templates


def _op_add_templates(
    state: ShardState, templates: Sequence[ExplanationTemplate]
) -> int:
    for template in templates:
        state.engine.add_template(template)
    if state.config.eager_warm:
        state.engine.warm()
    return len(templates)


def _op_ingest_rows(state: ShardState, rows: Sequence[tuple]) -> list[StreamedAccess]:
    out = state.monitor.ingest_prepared(list(rows))
    if state.config.eager_warm:
        state.engine.warm()
    return out


def _op_stats(state: ShardState) -> dict:
    return {
        "shard": state.index,
        "log_rows": len(state.db.table(state.config.log_table)),
        "templates": len(state.engine.templates),
        "queries_executed": state.engine.executor.queries_executed,
        "plan_cache": state.engine.executor.plan_cache.stats(),
        "ingest": state.monitor.stats(),
    }


_OPS: dict[str, Callable] = {
    "ping": _op_ping,
    "next_lid": _op_next_lid,
    "counts": _op_counts,
    "unexplained": _op_unexplained,
    "explain_all": _op_explain_all,
    "explain_batch": _op_explain_batch,
    "explain": _op_explain,
    "patient_report": _op_patient_report,
    "report_rows": _op_report_rows,
    "scan_slice": _op_scan_slice,
    "explained_lids": _op_explained_lids,
    "support_counts": _op_support_counts,
    "templates": _op_templates,
    "add_templates": _op_add_templates,
    "ingest_rows": _op_ingest_rows,
    "stats": _op_stats,
}


# ----------------------------------------------------------------------
# shard backends
# ----------------------------------------------------------------------
class _ThreadShard:
    """Shard state in-process; operations run on a shared thread pool."""

    kind = "thread"

    def __init__(self, state: ShardState, pool: ThreadPoolExecutor) -> None:
        self._state = state
        self._pool = pool

    def submit(self, op: str, *args: Any) -> Future:
        return self._pool.submit(_OPS[op], self._state, *args)

    def close(self) -> None:  # the shared pool is owned by the service
        pass


#: Worker-process shard state, installed by :func:`_worker_init`.
_WORKER_STATE: ShardState | None = None


def _worker_init(
    index: int,
    db: Database,
    templates: Sequence[ExplanationTemplate],
    config: AuditConfig,
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = build_shard_state(index, db, templates, config)


def _worker_call(op: str, args: tuple) -> Any:
    assert _WORKER_STATE is not None, "shard worker used before init"
    return _OPS[op](_WORKER_STATE, *args)


def _mp_context() -> mp.context.BaseContext | None:
    """Prefer fork (no payload pickling, instant start) where available;
    fall back to the platform default (spawn on macOS/Windows)."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return None


class _ProcessShard:
    """Shard state pinned inside a dedicated single-worker process.

    A one-worker pool per shard (rather than one big pool) is what makes
    stateful sharding work with ``concurrent.futures``: every operation
    submitted here runs in the process holding this shard's engine, so
    ingest mutations and cache warm-ups stay with their shard.
    """

    kind = "process"

    def __init__(
        self,
        index: int,
        db: Database,
        templates: Sequence[ExplanationTemplate],
        config: AuditConfig,
    ) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=_mp_context(),
            initializer=_worker_init,
            initargs=(index, db, templates, config),
        )

    def submit(self, op: str, *args: Any) -> Future:
        return self._pool.submit(_worker_call, op, args)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class ShardedAuditService:
    """Scatter-gather audit service over N patient-hash shards.

    Mirrors the :class:`~repro.api.AuditService` read/write surface
    (explain, reports, coverage, ingest, template registration) with
    identical results; see the module docstring for the execution model.
    Build one via :meth:`open` or :func:`open_service`.
    """

    def __init__(
        self,
        db: AnyDatabase,
        templates: Iterable[ExplanationTemplate],
        config: AuditConfig,
        clock: Callable[[], Any] | None = None,
    ) -> None:
        if isinstance(db, SqlDatabase):
            raise UnsupportedOperationError(
                "ShardedAuditService cannot partition a SqlDatabase source",
                hint="patient-hash partitioning walks an in-memory source; "
                "open the sharded service over the original Database or CSV "
                "directory with config.backend='sqlite' and each shard will "
                "convert its partition into a private SQLite database",
            )
        #: The source database (frozen at open time — reads and writes
        #: route through the shards; the shard logs, not this object,
        #: are authoritative once ingest begins).
        self.source_db = db
        self.config = config
        self._templates = list(templates)
        self._clock = clock if clock is not None else dt.datetime.now
        self._alert_handlers: list[AlertHandler] = []
        self._lock = RWLock()
        self._closed = False
        log = db.table(config.log_table)
        self._next_lid = AccessMonitor._initial_next_lid(
            log.distinct_values(config.log_id_attr)
        )
        shard_dbs = partition_by_patient(db, config.shards, log_table=config.log_table)
        self._scatter_pool: ThreadPoolExecutor | None = None
        if config.executor_kind == "process":
            self._shards: list = [
                _ProcessShard(i, sdb, self._templates, config)
                for i, sdb in enumerate(shard_dbs)
            ]
        else:
            self._scatter_pool = ThreadPoolExecutor(
                max_workers=config.effective_parallelism,
                thread_name_prefix="repro-shard",
            )
            self._shards = [
                _ThreadShard(
                    build_shard_state(i, sdb, self._templates, config),
                    self._scatter_pool,
                )
                for i, sdb in enumerate(shard_dbs)
            ]
        # Start (and eagerly warm, when configured) every worker now so
        # open() surfaces shard construction errors, not the first query.
        self._scatter("ping")
        # Reconcile the global id sequence with the shards: a reopened
        # SQLite shard file may hold ingested rows beyond the source log.
        self._next_lid = max([self._next_lid, *self._scatter("next_lid")])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        db: AnyDatabase | str | os.PathLike,
        templates: Iterable[ExplanationTemplate]
        | TemplateLibrary
        | str
        | os.PathLike
        | None = None,
        config: AuditConfig | None = None,
        clock: Callable[[], Any] | None = None,
    ) -> "ShardedAuditService":
        """Open a sharded service over a database (or CSV directory);
        ``templates`` forms and defaults match ``AuditService.open``.

        The source always loads (or arrives) in memory — patient-hash
        partitioning walks in-memory tables — and under
        ``config.backend == "sqlite"`` each shard then converts its
        partition into a private SQLite database inside
        :func:`build_shard_state`.  The memory backend's
        ``max_table_rows`` cap applies to the source load; the SQLite
        backend lifts it (the in-memory source is transient there)."""
        config = config if config is not None else AuditConfig()
        if isinstance(db, (str, os.PathLike)):
            max_rows = (
                config.max_table_rows if config.backend == "memory" else None
            )
            db = load_database(str(db), max_rows=max_rows)
        return cls(db, resolve_templates(db, templates), config, clock=clock)

    def close(self) -> None:
        """Shut down shard workers; subsequent calls raise RuntimeError."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()
        if self._scatter_pool is not None:
            self._scatter_pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardedAuditService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedAuditService is closed")

    # ------------------------------------------------------------------
    # scatter-gather plumbing
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of patient-hash shards."""
        return len(self._shards)

    def shard_for(self, patient: Any) -> int:
        """The shard owning a patient's accesses."""
        return shard_of(patient, len(self._shards))

    def _scatter(self, op: str, *args: Any) -> list:
        """Run one operation on every shard concurrently; results arrive
        in shard order (gather preserves placement, not completion)."""
        futures = [shard.submit(op, *args) for shard in self._shards]
        return [f.result() for f in futures]

    def _on_shard(self, index: int, op: str, *args: Any) -> Any:
        return self._shards[index].submit(op, *args).result()

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def explain(
        self, request: ExplainRequest | Any, *, wait: bool = True
    ) -> ExplainResult | None:
        """Why did this access happen?  Scatter to every shard (only the
        owner can answer — shard logs are disjoint) and rank the merged
        instances exactly as the single-node service does.  A scatter
        always waits on the shards, so ``wait=False`` returns None."""
        self._check_open()
        if not wait:
            return None
        if not isinstance(request, ExplainRequest):
            request = ExplainRequest(lid=request)
        with self._lock.read_locked():
            gathered = self._scatter("explain", request.lid)
        instances = rank_instances(
            [inst for per_shard in gathered for inst in per_shard]
        )
        if request.limit is not None:
            instances = instances[: request.limit]
        return ExplainResult(
            lid=request.lid,
            explanations=tuple(
                ExplanationView.from_instance(i) for i in instances
            ),
        )

    def patient_report(
        self, patient: Any, limit: int | None = None
    ) -> PatientReport:
        """Route to the one shard owning the patient — sharding's best
        case: the portal screen costs one shard, not the fleet."""
        self._check_open()
        with self._lock.read_locked():
            entries = self._on_shard(
                self.shard_for(patient), "patient_report", patient, limit
            )
        return PatientReport(patient=patient, entries=tuple(entries))

    def render_patient_report(
        self, patient: Any, limit: int | None = None
    ) -> str:
        """Plain-text portal screen, one access per block."""
        return format_patient_report(self.patient_report(patient, limit=limit))

    def unexplained_queue(self) -> tuple[UnexplainedView, ...]:
        """The unexplained review queue alone in the stable ``(date,
        lid)`` order, merged from per-shard rows — :meth:`report` without
        the coverage and per-user aggregates (the paginated wire
        endpoint's surface)."""
        self._check_open()
        with self._lock.read_locked():
            gathered = self._scatter("report_rows")
        rows = [row for _, shard_rows in gathered for row in shard_rows]
        rows.sort(key=lambda r: (r[1], r[0]))
        return tuple(
            UnexplainedView(lid=lid, date=date, user=user, patient=patient)
            for lid, date, user, patient in rows
        )

    def report(self, limit: int | None = None) -> AuditReport:
        """The compliance-office artifact, merged from per-shard
        partitions: totals add, unexplained queues concatenate and
        re-sort, per-user counts aggregate over the full queue."""
        self._check_open()
        with self._lock.read_locked():
            gathered = self._scatter("report_rows")
        total = sum(t for t, _ in gathered)
        rows = [row for _, shard_rows in gathered for row in shard_rows]
        rows.sort(key=lambda r: (r[1], r[0]))
        counts: dict[Any, int] = {}
        for _lid, _date, user, _patient in rows:
            counts[user] = counts.get(user, 0) + 1
        queue = [
            UnexplainedView(lid=lid, date=date, user=user, patient=patient)
            for lid, date, user, patient in rows
        ]
        if limit is not None:
            queue = queue[:limit]
        coverage = (total - len(rows)) / total if total else 0.0
        return AuditReport(
            total=total,
            unexplained_count=len(rows),
            coverage=coverage,
            queue=tuple(queue),
            user_risk=tuple(
                sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
            ),
        )

    # ------------------------------------------------------------------
    # resumable scans (web-preemption model)
    # ------------------------------------------------------------------
    def scan(self, request: ScanRequest | None = None) -> ScanPage:
        """One bounded slice of a resumable full-log scan, scattered.

        Each shard scans up to the page budget past the suspended
        position; the gather merge-sorts the disjoint per-shard rows and
        cuts at the smallest position a quantum-suspended shard reached
        (a row past that cut cannot be proven next in the global order),
        then applies the global row budget.  Pages are identical to the
        single-node :meth:`AuditService.scan` ones — pinned by the scan
        differential suite.
        """
        self._check_open()
        if request is None:
            request = ScanRequest()
        state = request.state if request.state is not None else ScanState()
        page_rows = (
            request.page_rows
            if request.page_rows is not None
            else self.config.scan_page_rows
        )
        quantum = (
            request.quantum_seconds
            if request.quantum_seconds is not None
            else self.config.scan_quantum_seconds
        )
        with self._lock.read_locked():
            gathered = self._scatter(
                "scan_slice", state.after, page_rows, quantum
            )
        merged: list[tuple] = []
        cut: tuple | None = None
        for rows, shard_done in gathered:
            merged.extend(rows)
            if not shard_done:
                # A suspended shard always returns >= 1 row; it only
                # vouches for the order up to its last scanned key.
                last = (rows[-1][1], rows[-1][0])
                cut = last if cut is None or last < cut else cut
        merged.sort(key=lambda r: (r[1], r[0]))
        eligible = (
            merged
            if cut is None
            else [r for r in merged if (r[1], r[0]) <= cut]
        )
        taken = eligible[:page_rows]
        done = all(shard_done for _, shard_done in gathered) and len(
            taken
        ) == len(merged)
        unexplained = tuple(
            UnexplainedView(lid=lid, date=date, user=user, patient=patient)
            for lid, date, user, patient, explained in taken
            if not explained
        )
        return ScanPage(
            rows=len(taken),
            explained=tuple(
                lid for lid, _date, _user, _patient, exp in taken if exp
            ),
            unexplained=unexplained,
            state=ScanState(
                after=(taken[-1][1], taken[-1][0]) if taken else state.after,
                seen=state.seen + len(taken),
                unexplained=state.unexplained + len(unexplained),
            ),
            done=done,
        )

    def scan_pages(
        self,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
        state: ScanState | None = None,
    ) -> Iterator[ScanPage]:
        """Iterate scan pages to completion (each slice is its own
        bounded lock hold).  Pass a suspended ``state`` to resume."""
        while True:
            page = self.scan(
                ScanRequest(
                    state=state,
                    page_rows=page_rows,
                    quantum_seconds=quantum_seconds,
                )
            )
            yield page
            if page.done:
                return
            state = page.state

    def scan_report(
        self,
        limit: int | None = None,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
    ) -> AuditReport:
        """:meth:`report`, produced as a sequence of bounded slices —
        identical output, preemptable execution."""
        return assemble_report(
            self.scan_pages(page_rows, quantum_seconds), limit=limit
        )

    def scan_explain_all(
        self,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
    ) -> BatchExplanation:
        """:meth:`explain_all`, produced as a sequence of bounded slices
        — the identical whole-log partition, preemptable execution."""
        return assemble_partition(self.scan_pages(page_rows, quantum_seconds))

    def summary(self) -> str:
        """The one-line coverage summary from per-shard counts alone."""
        self._check_open()
        total, unexplained, _ = self._counts()
        coverage = (total - unexplained) / total if total else 0.0
        return (
            f"{total} accesses; {total - unexplained} explained "
            f"({coverage:.1%}); {unexplained} in the review queue"
        )

    def _counts(self) -> tuple[int, int, list[tuple[int, int]]]:
        with self._lock.read_locked():
            per_shard = self._scatter("counts")
        total = sum(t for t, _ in per_shard)
        unexplained = sum(u for _, u in per_shard)
        return total, unexplained, per_shard

    def coverage(self) -> float:
        """Fraction of the log explained by at least one template —
        counts add across disjoint shards, divide once."""
        self._check_open()
        total, unexplained, _ = self._counts()
        if total == 0:
            return 0.0
        return (total - unexplained) / total

    def unexplained_lids(self) -> frozenset:
        """Union of the shards' candidate-misuse sets."""
        self._check_open()
        with self._lock.read_locked():
            gathered = self._scatter("unexplained")
        return frozenset().union(*gathered) if gathered else frozenset()

    def explain_all(self) -> BatchExplanation:
        """The whole-log explained/unexplained partition, one scatter:
        every shard runs its set-at-a-time semijoin pass concurrently and
        the disjoint partitions union into the global one."""
        self._check_open()
        with self._lock.read_locked():
            gathered = self._scatter("explain_all")
        explained: set = set()
        unexplained: set = set()
        for shard_explained, shard_unexplained in gathered:
            explained |= shard_explained
            unexplained |= shard_unexplained
        return BatchExplanation(frozenset(explained), frozenset(unexplained))

    def explain_batch(self, lids: Iterable[Any]) -> BatchExplanation:
        """Partition a set of log ids into explained/unexplained.  Each
        shard evaluates the slice of the batch it owns; ids no shard
        holds are unexplained (matching the single-node semantics)."""
        self._check_open()
        batch = frozenset(lids)
        if not batch:
            return BatchExplanation(frozenset(), frozenset())
        with self._lock.read_locked():
            gathered = self._scatter("explain_batch", batch)
        explained: set = set()
        for shard_explained, _shard_unexplained in gathered:
            explained |= shard_explained
        return BatchExplanation(
            frozenset(explained), frozenset(batch - explained)
        )

    def explained_lids(self, template: ExplanationTemplate) -> frozenset:
        """Distinct log ids one template explains, unioned over shards
        (the template need not be registered with the service)."""
        self._check_open()
        with self._lock.read_locked():
            gathered = self._scatter("explained_lids", template)
        return frozenset().union(*gathered) if gathered else frozenset()

    def support_many(
        self, templates: Sequence[ExplanationTemplate]
    ) -> list[int]:
        """Mining support counts: shard logs are disjoint, so each
        template's distinct explained-access count is the per-shard sum —
        one scatter evaluates every template on every shard."""
        self._check_open()
        templates = list(templates)
        if not templates:
            return []
        with self._lock.read_locked():
            gathered = self._scatter("support_counts", templates)
        return [sum(counts[i] for counts in gathered) for i in range(len(templates))]

    def templates(self) -> tuple[ExplanationTemplate, ...]:
        """The registered (deduplicated) template set (every shard holds
        the same set; shard 0 answers)."""
        self._check_open()
        with self._lock.read_locked():
            return tuple(self._on_shard(0, "templates"))

    def template_library(self) -> TemplateLibrary:
        """The registered templates as an all-approved library (facade
        mirror; they are in production use on every shard)."""
        from ..core.library import ReviewStatus

        library = TemplateLibrary()
        for template in self.templates():
            library.add(template, ReviewStatus.APPROVED)
        return library

    def save_templates(self, path: str) -> None:
        """Persist the registered templates as a versioned JSON library
        (facade mirror)."""
        self.template_library().dump(path)

    def stats(self) -> dict:
        """Aggregated operational counters plus the per-shard breakdown."""
        self._check_open()
        with self._lock.read_locked():
            per_shard = self._scatter("stats")
        plan_cache = {
            key: sum(s["plan_cache"].get(key, 0) for s in per_shard)
            for key in ("size", "hits", "misses")
        }
        ingest_seen = sum(s["ingest"]["seen"] for s in per_shard)
        ingest = None
        if ingest_seen:
            ingest = {
                "seen": ingest_seen,
                "alerts": sum(s["ingest"]["alerts"] for s in per_shard),
                "total_queries": sum(
                    s["ingest"]["total_queries"] for s in per_shard
                ),
                "total_seconds": sum(
                    s["ingest"]["total_seconds"] for s in per_shard
                ),
            }
        return {
            "shards": len(self._shards),
            "executor_kind": self.config.executor_kind,
            "log_rows": sum(s["log_rows"] for s in per_shard),
            "templates": per_shard[0]["templates"] if per_shard else 0,
            "queries_executed": sum(s["queries_executed"] for s in per_shard),
            "plan_cache": plan_cache,
            "lock": self._lock.stats(),
            "ingest": ingest,
            "per_shard": per_shard,
            "config": self.config.to_dict(),
        }

    # ------------------------------------------------------------------
    # writers
    # ------------------------------------------------------------------
    def on_alert(self, handler: AlertHandler) -> None:
        """Register a parent-side callback for unexplained ingested
        accesses (fired outside the write lock, in ingest order)."""
        self._check_open()
        self._alert_handlers.append(handler)

    def _dispatch_alerts(self, results: Sequence[IngestResult]) -> None:
        for result in results:
            if result.alerted:
                for handler in self._alert_handlers:
                    handler(result)

    def ingest(
        self, user: Any, patient: Any, date: dt.datetime | None = None
    ) -> IngestResult:
        """Append one access: the parent assigns the global log id and
        timestamp, the owning shard appends, delta-maintains, and
        explains — the same result the unsharded service returns."""
        return self.ingest_many([(user, patient, date)])[0]

    def ingest_many(
        self, accesses: Sequence[tuple[Any, Any, dt.datetime | None]]
    ) -> list[IngestResult]:
        """Ingest a batch of ``(user, patient, date)`` accesses: global
        ids and timestamps are assigned in input order, rows are dealt to
        their owning shards, every involved shard runs ONE maintenance
        pass concurrently, and results return in input order."""
        self._check_open()
        accesses = list(accesses)
        if not accesses:
            return []
        with self._lock.write_locked():
            routed: dict[int, list[tuple]] = {}
            order: list[tuple[int, int]] = []  # (shard, position in shard)
            for user, patient, date in accesses:
                lid = self._next_lid
                self._next_lid += 1
                stamp = date if date is not None else self._clock()
                shard = self.shard_for(patient)
                rows = routed.setdefault(shard, [])
                order.append((shard, len(rows)))
                rows.append((lid, stamp, user, patient))
            futures = {
                shard: self._shards[shard].submit("ingest_rows", rows)
                for shard, rows in routed.items()
            }
            gathered = {shard: f.result() for shard, f in futures.items()}
        streamed = [gathered[shard][pos] for shard, pos in order]
        results = [
            IngestResult.from_streamed(
                a, a.suspicious and self.config.alert_on_unexplained
            )
            for a in streamed
        ]
        self._dispatch_alerts(results)
        return results

    def add_templates(
        self, templates: Iterable[ExplanationTemplate] | TemplateLibrary
    ) -> int:
        """Broadcast more templates to every shard (from an iterable or a
        library's approved set); returns how many were offered."""
        self._check_open()
        if isinstance(templates, TemplateLibrary):
            templates = templates.approved_templates()
        templates = list(templates)
        with self._lock.write_locked():
            self._scatter("add_templates", templates)
        return len(templates)

    def mine(self, *args: Any, **kwargs: Any) -> NoReturn:
        """Mining is a whole-database writer the patient partition cannot
        host; mine on a single-node service, then broadcast.  Raises the
        typed :class:`~repro.api.errors.UnsupportedOperationError` (an
        ``NotImplementedError`` subclass), which the HTTP server layer
        maps to 501."""
        raise UnsupportedOperationError(
            "mine() is not available on ShardedAuditService",
            hint="run it on AuditService.open(db) over the same database, "
            "then register the results here with add_templates()",
        )

    def build_groups(self, *args: Any, **kwargs: Any) -> NoReturn:
        """Group inference rewrites a shared table; same recipe as
        :meth:`mine` — build on a single-node service, reopen sharded."""
        raise UnsupportedOperationError(
            "build_groups() is not available on ShardedAuditService",
            hint="run it on AuditService.open(db) over the same database, "
            "then reopen the sharded service over the updated database",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"<ShardedAuditService {state} shards={len(self._shards)} "
            f"executor={self.config.executor_kind!r}>"
        )


def open_service(
    db: AnyDatabase | str | os.PathLike,
    templates: Iterable[ExplanationTemplate]
    | TemplateLibrary
    | str
    | os.PathLike
    | None = None,
    config: AuditConfig | None = None,
    clock: Callable[[], Any] | None = None,
) -> AuditService | ShardedAuditService:
    """Open the right service for a config: ``shards == 1`` builds the
    single-node :class:`AuditService`, ``shards > 1`` the scatter-gather
    :class:`ShardedAuditService` — one call site for CLIs and web tiers
    that take the shard count from a flag."""
    config = config if config is not None else AuditConfig()
    if config.shards > 1:
        return ShardedAuditService.open(
            db, templates=templates, config=config, clock=clock
        )
    return AuditService.open(db, templates=templates, config=config, clock=clock)
