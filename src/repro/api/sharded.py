"""Shards: the unit of placement behind :class:`~repro.api.AuditService`.

The explanation workload partitions by patient: every template is
anchored on the accessing user and the *patient* whose record was
touched, and every log self-join in the template language equates the
``Patient`` attribute — so each patient-hash partition of the log
(:func:`repro.db.sharding.partition_by_patient`) is explained entirely
locally, and a single node is just the one-shard case.

A shard is a :class:`ShardState` (database, engine, monitor) plus the
table of op functions over it.  The service writes each facade method
once, as a scatter of one op followed by a merge, over one of two
placements (``AuditConfig.shards``):

* **one shard** — the state wraps the caller's database as-is: no
  partition copy, no pool, and every op is a plain call on the calling
  thread (:class:`LocalShard`);
* **process shards** — each partition pinned to a dedicated
  single-worker ``ProcessPoolExecutor`` whose initializer builds the
  state inside the worker (:class:`ProcessShard`): true multi-core
  evaluation, paid for once by handing each partition to its worker.

There is no thread placement: the join pipeline is pure Python, so
shards on threads share one GIL and evaluate no faster than one shard
(``docs/architecture.md`` has the measurement).  Both placements call
the very same op functions, which is what makes their equivalence
structural rather than a testing aspiration; every op returns picklable
values.  Shard logs are disjoint, so merging is set union, count
addition and an order-preserving re-sort.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass
from collections.abc import Callable, Sequence
from typing import Any

from ..audit.streaming import AccessMonitor, StreamedAccess
from ..core.engine import BatchExplanation, ExplanationEngine
from ..core.scan import LogScanner
from ..core.template import ExplanationTemplate
from ..db.backend import AnyDatabase, AnyTable, make_executor
from ..db.database import Database
from ..db.optimizer import PlanCache
from ..db.sqlbackend import SqlDatabase, open_sql_database, shard_db_path
from .config import AuditConfig
from .messages import AccessView

#: Partition-key attribute of the audited log.
PATIENT_ATTR = "Patient"


# ----------------------------------------------------------------------
# shard-local state and operations
# ----------------------------------------------------------------------
@dataclass
class ShardState:
    """Everything one shard owns: database, engine, monitor, config."""

    index: int
    db: AnyDatabase
    config: AuditConfig
    engine: ExplanationEngine
    #: Built by the first ingest: a monitor reads the log's id set, which
    #: a read-only service never needs.
    monitor: AccessMonitor | None = None


def build_shard_state(
    index: int,
    db: AnyDatabase,
    templates: Sequence[ExplanationTemplate],
    config: AuditConfig,
) -> ShardState:
    """Construct one shard's engine stack over ``db``, with a private
    LRU plan cache.

    Under ``config.backend == "sqlite"`` an in-memory partition is first
    converted to (or, on restart, reused from) the shard's own SQLite
    file, ``shard_db_path(config.db_path, index)`` (None: SQLite's
    private memory).  The conversion runs *here* — inside the worker for
    process shards — so every SQLite connection is opened post-fork."""
    if config.backend == "sqlite" and not isinstance(db, SqlDatabase):
        db = open_sql_database(db, shard_db_path(config.db_path, index))
    engine = ExplanationEngine(
        db,
        templates,
        log_table=config.log_table,
        log_id_attr=config.log_id_attr,
        executor=make_executor(
            db, plan_cache=PlanCache(max_size=config.plan_cache_size)
        ),
    )
    return ShardState(index=index, db=db, config=config, engine=engine)


def _log_columns(state: ShardState) -> tuple[AnyTable, tuple[int, int, int, int]]:
    log = state.db.table(state.config.log_table)
    schema = log.schema
    return log, (
        schema.column_index(state.config.log_id_attr),
        schema.column_index("Date"),
        schema.column_index("User"),
        schema.column_index(PATIENT_ATTR),
    )


def by_date(row: tuple) -> tuple:
    """Sort key of a ``(lid, date, ...)`` row: the stable ``(date, lid)``
    order of every queue and scan."""
    return row[1], row[0]


def _monitor(state: ShardState) -> AccessMonitor:
    if state.monitor is None:
        state.monitor = AccessMonitor(state.engine)
    return state.monitor


def _op_next_lid(state: ShardState) -> int:
    """The shard monitor's next free log id.  The service takes the max
    over its shards at its first ingest: a reopened SQLite shard file may
    hold rows ingested after the source was exported."""
    return _monitor(state)._next_lid


def _op_explain_batch(state: ShardState, batch: frozenset) -> BatchExplanation:
    if state.config.shards > 1:
        # evaluate only the slice of the batch this shard holds
        batch = batch & state.engine.all_lids()
    return state.engine.explain_batch(batch)


def _op_explain(state: ShardState, lid: Any) -> list:
    # Shard logs are disjoint: a non-owner answers from its cached lid
    # universe instead of calling every template's probe.
    if state.config.shards > 1 and lid not in state.engine.all_lids():
        return []
    return state.engine.explain(lid)


def _op_patient_report(
    state: ShardState, patient: Any, limit: int | None
) -> tuple[AccessView, ...]:
    log, (lid_i, date_i, user_i, _patient_i) = _log_columns(state)
    rows = sorted(
        log.lookup(PATIENT_ATTR, patient),
        key=lambda r: (r[date_i], r[lid_i]),
    )
    if limit is not None:
        rows = rows[:limit]
    return tuple(
        AccessView(
            lid=row[lid_i],
            date=row[date_i],
            user=row[user_i],
            explanations=tuple(
                i.render() for i in state.engine.explain(row[lid_i])
            ),
        )
        for row in rows
    )


def _op_report_rows(state: ShardState) -> tuple[int, list[tuple]]:
    """The shard's log size, and its unexplained rows as ``(lid, date,
    user, patient)`` in :func:`by_date` order."""
    log, (lid_i, date_i, user_i, patient_i) = _log_columns(state)
    unexplained = state.engine.unexplained_lids()
    rows = [
        (r[lid_i], r[date_i], r[user_i], r[patient_i])
        for r in log.rows()
        if r[lid_i] in unexplained
    ]
    rows.sort(key=by_date)
    return len(state.engine.all_lids()), rows


def _op_scan_slice(
    state: ShardState,
    after: tuple | None,
    page_rows: int,
    quantum_seconds: float | None,
) -> tuple[list[tuple], bool]:
    """One bounded scan slice of this shard's log: up to ``page_rows``
    classified rows past ``after`` in ``(date, lid)`` order, plus the
    shard's done flag.  The service re-merges and re-cuts globally."""
    result = LogScanner(state.engine).slice(after, page_rows, quantum_seconds)
    rows = [
        (r.lid, r.date, r.user, r.patient, r.explained) for r in result.rows
    ]
    return rows, result.done


def _op_add_templates(
    state: ShardState, templates: Sequence[ExplanationTemplate]
) -> None:
    for template in templates:
        state.engine.add_template(template)


def _op_ingest_rows(state: ShardState, rows: Sequence[tuple]) -> list[StreamedAccess]:
    return _monitor(state).ingest_prepared(list(rows))


def _op_stats(state: ShardState) -> dict:
    monitor = state.monitor
    return {
        "shard": state.index,
        "log_rows": len(state.db.table(state.config.log_table)),
        "templates": len(state.engine.templates),
        "queries_executed": state.engine.executor.queries_executed,
        "plan_cache": state.engine.executor.plan_cache.stats(),
        "ingest": monitor.stats() if monitor is not None else None,
    }


#: op name -> shard function: the ``_op_*`` functions above (``_op_explain``
#: answers ``"explain"``) and the one-liners below.
_OPS: dict[str, Callable] = {
    **{
        name.removeprefix("_op_"): fn
        for name, fn in list(globals().items())
        if name.startswith("_op_")
    },
    "ping": lambda state: state.index,  # forces worker start-up at open
    "warm": lambda state: state.engine.warm(),
    "counts": lambda state: state.engine.coverage_counts(),
    "unexplained": lambda state: frozenset(state.engine.unexplained_lids()),
    "explain_all": lambda state: state.engine.explain_all(),
    "explained_lids": lambda state, template: frozenset(
        state.engine.explained_lids(template)
    ),
    "support_counts": lambda state, templates: state.engine.support_counts(
        templates
    ),
    "templates": lambda state: state.engine.templates,
    "close": lambda state: state.db.close(),
}


# ----------------------------------------------------------------------
# placements
# ----------------------------------------------------------------------
class LocalShard:
    """The one shard of a one-shard service: ops run on the calling
    thread, over the state the service built in this process."""

    def __init__(self, state: ShardState) -> None:
        self.state = state

    def call(self, op: str, *args: Any) -> Any:
        return _OPS[op](self.state, *args)

    def close(self, keep: object) -> None:
        """Close the shard's database, unless it is ``keep``: the
        database the service's caller passed in."""
        if self.state.db is not keep:
            self.state.db.close()


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


class ProcessShard:
    """Shard state pinned inside a dedicated single-worker process.

    A one-worker pool per shard (rather than one big pool) is what makes
    stateful sharding work with ``concurrent.futures``: every operation
    submitted here runs in the process holding this shard's engine, so
    ingest mutations and cache warm-ups stay with their shard.
    """

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

    def call(self, op: str, *args: Any) -> Any:
        return self.submit(op, *args).result()

    def submit(self, op: str, *args: Any) -> Future:
        return self._pool.submit(_worker_call, op, args)

    def close(self, keep: object) -> None:
        """Close the worker's database (always a copy, never ``keep``)
        and stop the worker; a dead worker has nothing left to close."""
        try:
            with contextlib.suppress(BrokenExecutor):
                self.call("close")
        finally:
            self._pool.shutdown(wait=True, cancel_futures=True)
