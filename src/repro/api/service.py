"""The :class:`AuditService` facade — one thread-safe entry point.

The paper describes a single auditing *system*: explain accesses, alert
on unexplainable ones, mine new templates, report to the compliance
office.  :class:`AuditService` owns all of it behind an explicit
lifecycle::

    from repro.api import AuditConfig, AuditService

    with AuditService.open("hospital/", config=AuditConfig()) as service:
        result = service.explain(lid=17)
        report = service.report()
        service.ingest("u0042", "p00017")

Placements
----------
Every explanation joins a log row's patient and user, so each
patient-hash shard explains its own part of the log, and one node is the
one-shard case (:mod:`repro.api.sharded`).  Each facade method below is
written once: a scatter of one shard op, then a merge (set union, count
addition, a re-sort into ``(date, lid)`` order).  ``AuditConfig.shards``
picks the placement:

* ``shards == 1`` — one shard over the caller's database itself: no
  partition copy, no pool, ops called inline, and the single gathered
  result returned as-is.  Only this placement mines, builds groups, and
  answers ``explain(wait=False)``;
* ``shards > 1`` — patient-hash partitions, one worker process per
  shard.  Log ids are assigned here, not by the shards, so ingest
  results are byte-identical to the one-shard service; mining and group
  inference rewrite the whole database and answer a typed 501.

Concurrency model
-----------------
The service owns a writer-preferring readers-writer lock
(:class:`~repro.api.locks.RWLock`): queries run concurrently as readers
against the delta-maintained caches, while ingest, mining and template
registration serialize as writers.  With the default
``AuditConfig.eager_warm``, every writer leaves the aggregate caches warm
before releasing the lock, so readers only ever *read* shared state.
Readers wait for the lock, except ``explain(request, wait=False)``: it
answers only if the read lock is free of writers right now
(:meth:`~repro.api.locks.RWLock.try_acquire_read`), and returns None
otherwise — the HTTP server's event loop then hands the request to its
thread pool as an ordinary waiting ``explain``.

Everything the service returns is a typed, frozen dataclass from
:mod:`repro.api.messages` with ``to_dict()`` for JSON serving.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from ..core.engine import BatchExplanation, ExplanationEngine
from ..core.graph import SchemaGraph
from ..core.instance import rank_instances
from ..core.library import ReviewStatus, TemplateLibrary
from ..core.mining import BridgedMiner, MiningConfig, OneWayMiner, TwoWayMiner
from ..core.template import ExplanationTemplate
from ..db.backend import AnyDatabase
from ..db.csvio import load_database
from ..db.database import Database
from ..db.optimizer import PlanCache
from ..db.sharding import partition_by_patient, shard_of
from ..db.sqlbackend import SqlDatabase, open_sql_database
from .config import AuditConfig
from .errors import UnsupportedOperationError
from .locks import RWLock
from .messages import (
    AuditReport,
    ExplainRequest,
    ExplainResult,
    ExplanationView,
    IngestResult,
    MinedTemplateView,
    MineRequest,
    MineResult,
    PatientReport,
    ScanPage,
    ScanRequest,
    ScanState,
    UnexplainedView,
    assemble_partition,
    assemble_report,
    jsonable,
)
from .sharded import LocalShard, ProcessShard, ShardState, build_shard_state, by_date

#: Callback type for unexplained-access alerts.
AlertHandler = Callable[[IngestResult], None]


def standard_templates(
    db: AnyDatabase, include_groups: bool = True
) -> list[ExplanationTemplate]:
    """The hand-crafted CareWeb template set (paper Section 5.3.1): event
    w/doctor templates, the repeat-access template, and — when a Groups
    table exists — the depth-1 collaborative-group templates, all with
    natural-language descriptions attached."""
    from ..audit.handcrafted import (
        all_event_user_templates,
        dataset_a_doctor_templates,
        group_templates,
        repeat_access_template,
    )
    from ..audit.nl import with_careweb_description
    from ..ehr.schema import build_careweb_graph

    graph = build_careweb_graph(db)
    templates = dataset_a_doctor_templates(graph)
    templates.extend(all_event_user_templates(graph))
    templates.append(repeat_access_template(graph))
    if include_groups and db.has_table("Groups"):
        templates.extend(group_templates(graph, depth=1))
    return [with_careweb_description(t) for t in templates]


def format_patient_report(report: PatientReport) -> str:
    """Plain-text portal screen for a :class:`PatientReport`, one access
    per block."""
    lines = [f"Access report for patient {report.patient}:"]
    if not report.entries:
        lines.append("  (no accesses recorded)")
    for entry in report.entries:
        flag = "  [!] " if entry.suspicious else "      "
        lines.append(f"{flag}{entry.lid}  {entry.date}  by {entry.user}")
        lines.append(f"        {entry.headline()}")
    return "\n".join(lines)


def resolve_templates(
    db: AnyDatabase,
    templates: Iterable[ExplanationTemplate]
    | TemplateLibrary
    | str
    | os.PathLike
    | None,
) -> list[ExplanationTemplate]:
    """Normalize every accepted ``templates`` form of ``open(...)`` into a
    concrete list: a path loads a saved library, a library contributes its
    production set, None means the standard hand-crafted CareWeb set."""
    if isinstance(templates, (str, os.PathLike)):
        templates = TemplateLibrary.load(str(templates))
    if isinstance(templates, TemplateLibrary):
        templates, _fallback = templates.production_templates()
    elif templates is None:
        templates = standard_templates(db)
    return list(templates)


def _views(rows: Sequence[tuple]) -> tuple[UnexplainedView, ...]:
    """Review-queue entries from ``(lid, date, user, patient)`` rows."""
    return tuple(
        UnexplainedView(lid=lid, date=date, user=user, patient=patient)
        for lid, date, user, patient in rows
    )


def _union(sets: list[frozenset]) -> frozenset:
    """Merge disjoint per-shard sets; one shard's set is returned as-is."""
    return sets[0] if len(sets) == 1 else frozenset().union(*sets)


def _merge_ingest(monitors: list[dict], last: list[dict]) -> dict:
    """One ingest-counter dict from per-shard monitor stats: counts add,
    rates and averages are recomputed from the sums, and the ``last_*``
    pair describes the latest ingest (the shards it wrote to ran
    concurrently, so its time is theirs at most)."""
    seen = sum(m["seen"] for m in monitors)
    alerts = sum(m["alerts"] for m in monitors)
    queries = sum(m["total_queries"] for m in monitors)
    seconds = sum(m["total_seconds"] for m in monitors)
    return {
        "seen": seen,
        "alerts": alerts,
        "alert_rate": alerts / seen if seen else 0.0,
        "total_queries": queries,
        "total_seconds": seconds,
        "avg_ingest_queries": queries / seen if seen else 0.0,
        "avg_ingest_seconds": seconds / seen if seen else 0.0,
        "last_ingest_queries": sum(m["last_ingest_queries"] for m in last),
        "last_ingest_seconds": max(
            (m["last_ingest_seconds"] for m in last), default=0.0
        ),
    }


@dataclass(frozen=True)
class GroupsResult:
    """Outcome of :meth:`AuditService.build_groups`."""

    group_rows: int
    users: int
    max_depth: int
    density: float
    groups_per_depth: dict[int, int]
    hierarchy: Any = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "group_rows": self.group_rows,
            "users": self.users,
            "max_depth": self.max_depth,
            "density": self.density,
            "groups_per_depth": jsonable(self.groups_per_depth),
        }


class AuditService:
    """The thread-safe facade over the whole auditing system, on one
    shard or on many (see the module docstring)."""

    def __init__(
        self,
        db: AnyDatabase,
        templates: Iterable[ExplanationTemplate],
        config: AuditConfig,
        clock: Callable[[], Any] | None = None,
    ) -> None:
        templates = list(templates)
        if config.shards == 1:
            self._attach(db, config, clock, build_shard_state(0, db, templates, config))
        elif isinstance(db, SqlDatabase):
            raise UnsupportedOperationError(
                "a sharded AuditService cannot partition a SqlDatabase source",
                hint="open it over the in-memory Database or CSV directory "
                "with config.backend='sqlite': each shard converts its "
                "partition into a private SQLite database",
            )
        else:
            parts = partition_by_patient(
                db, config.shards, log_table=config.log_table
            )
            procs = [ProcessShard(i, p, templates, config) for i, p in enumerate(parts)]
            self._attach(db, config, clock, None, procs)
        if config.eager_warm:
            self._warm()
        else:
            # start every worker now, so open() surfaces shard
            # construction errors rather than the first query
            self._scatter("ping")

    def _attach(
        self,
        db: AnyDatabase,
        config: AuditConfig,
        clock: Callable[[], Any] | None,
        local: ShardState | None,
        procs: Sequence[ProcessShard] = (),
    ) -> None:
        """The state every placement shares; ``local`` is the one shard of
        a one-shard service (None when sharded), ``procs`` the worker
        processes of a sharded one."""
        #: On a sharded service, the unpartitioned source as of open time.
        self.db = db
        self.config = config
        self._local = local
        self._procs = list(procs)
        #: Every shard in index order: the inline one, or the processes.
        self._shards: Sequence[LocalShard | ProcessShard] = (
            [LocalShard(local)] if local is not None else self._procs
        )
        #: The database the caller handed in; close() closes every other.
        self._given: object = db
        self._clock = clock if clock is not None else dt.datetime.now
        self._alert_handlers: list[AlertHandler] = []
        self._lock = RWLock()
        self._closed = False
        #: The next global log id; read from the shards at the first ingest.
        self._next_lid: int | None = None
        #: The shards the latest ingest wrote to.
        self._last_ingest: tuple[int, ...] = ()

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
    ) -> "AuditService":
        """Open a service over a database (or a CSV database directory).

        ``templates`` may be an iterable of templates, a
        :class:`TemplateLibrary` (or a path to one saved with
        ``save``/``dump`` — approved entries are applied, falling back to
        suggested ones when nothing is approved yet), or None for the
        standard hand-crafted CareWeb set.  Usable as a context manager.

        With ``config.backend == "sqlite"`` and one shard, a path ``db``
        is streamed into the SQLite file at ``config.db_path`` (reused
        as-is when already ingested — the restart path) and every
        explanation query pushes down as SQL; an in-memory ``db`` object
        is copied in.  A :class:`~repro.db.sqlbackend.SqlDatabase` passed
        directly is used as-is regardless of ``config.backend``.  With
        more shards the source loads in memory (uncapped under SQLite,
        where it is transient) and each shard converts its partition.
        """
        config = config if config is not None else AuditConfig()
        source = db
        one_sqlite = config.backend == "sqlite" and config.shards == 1
        if isinstance(db, (str, os.PathLike)):
            if one_sqlite:
                db = open_sql_database(str(db), config.db_path)
            else:
                max_rows = (
                    config.max_table_rows if config.backend == "memory" else None
                )
                db = load_database(str(db), max_rows=max_rows)
        elif one_sqlite and not isinstance(db, SqlDatabase):
            db = open_sql_database(db, config.db_path)
        service = cls(db, resolve_templates(db, templates), config, clock=clock)
        service._given = source
        return service

    @classmethod
    def from_engine(
        cls, engine: ExplanationEngine, config: AuditConfig | None = None
    ) -> "AuditService":
        """Wrap an existing engine as a one-shard service (how the
        engine-level ``PatientPortal`` and ``ComplianceAuditor`` reach the
        service).

        The engine's executor, caches, and template set are used as-is;
        nothing is eagerly warmed.
        """
        if config is None:
            config = AuditConfig(
                log_table=engine.log_table,
                log_id_attr=engine.log_id_attr,
                eager_warm=False,
            )
        service = cls.__new__(cls)
        service._attach(
            engine.db, config, None, ShardState(0, engine.db, config, engine)
        )
        return service

    def close(self) -> None:
        """End the lifecycle; subsequent calls raise RuntimeError.  Every
        shard database the service opened closes with it; the database
        its caller passed in stays open."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close(self._given)

    def __enter__(self) -> "AuditService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("AuditService is closed")

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of patient-hash shards."""
        return len(self._shards)

    def shard_for(self, patient: Any) -> int:
        """The shard owning a patient's accesses."""
        return shard_of(patient, len(self._shards))

    @property
    def engine(self) -> ExplanationEngine:
        """The engine of a one-shard service."""
        if self._local is None:
            raise UnsupportedOperationError(
                "a sharded AuditService has one engine per shard",
                hint="read stats()['per_shard'] for per-shard counters",
            )
        return self._local.engine

    @property
    def plan_cache(self) -> PlanCache:
        """The private LRU plan cache of a one-shard service (bounded by
        the config; hit/miss counters surface through :meth:`stats`)."""
        return self.engine.executor.plan_cache

    def _scatter(self, op: str, *args: Any) -> list:
        """Run one op on every shard; results arrive in shard order.  A
        one-shard service calls the op inline: no pool, no Future."""
        if self._local is not None:
            return [self._shards[0].call(op, *args)]
        futures = [shard.submit(op, *args) for shard in self._procs]
        return [f.result() for f in futures]

    def _on_shard(self, index: int, op: str, *args: Any) -> Any:
        return self._shards[index].call(op, *args)

    def _warm(self) -> None:
        """Prepare the point probes and materialize the aggregate caches
        (explained set, unexplained queue) on every shard, so subsequent
        readers never mutate shared state."""
        self._scatter("warm")

    def _whole_memory_db(self, what: str, hint: str) -> Database:
        """The one in-memory database a whole-database writer rewrites."""
        if self._local is None or isinstance(self.db, SqlDatabase):
            where = "a sharded service" if self._local is None else "the SQLite backend"
            raise UnsupportedOperationError(
                f"{what} is not available on {where}", hint=hint
            )
        return self.db

    def _dispatch_alerts(self, results: Sequence[IngestResult]) -> None:
        """Fire alert handlers outside the write lock (a handler may call
        back into the service as a reader), in ingest order."""
        for result in results:
            if result.alerted:
                for handler in self._alert_handlers:
                    handler(result)

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def explain(
        self, request: ExplainRequest | Any, *, wait: bool = True
    ) -> ExplainResult | None:
        """Why did this access happen?  Ranked explanation instances
        (ascending path length); empty means candidate misuse.

        Accepts an :class:`ExplainRequest` or a bare log id.  With
        ``wait=False`` the call answers only if it can start and finish
        without waiting — one memory-backend shard, and a read lock free
        of writers — and returns None otherwise (the HTTP event loop's
        in-place attempt).
        """
        self._check_open()
        if not isinstance(request, ExplainRequest):
            request = ExplainRequest(lid=request)
        if wait:
            with self._lock.read_locked():
                gathered = self._scatter("explain", request.lid)
        elif (
            self._local is None
            or isinstance(self.db, SqlDatabase)
            or not self._lock.try_acquire_read()
        ):
            return None
        else:
            try:
                gathered = self._scatter("explain", request.lid)
            finally:
                self._lock.release_read()
        instances = (
            gathered[0]
            if len(gathered) == 1
            else rank_instances([i for shard in gathered for i in shard])
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
        """Every access to one patient's record in time order, each with
        ranked explanations (the portal screen, paper Example 1.1) — one
        shard's work, whatever the shard count."""
        self._check_open()
        with self._lock.read_locked():
            entries = self._on_shard(
                self.shard_for(patient), "patient_report", patient, limit
            )
        return PatientReport(patient=patient, entries=entries)

    def render_patient_report(
        self, patient: Any, limit: int | None = None
    ) -> str:
        """Plain-text portal screen, one access per block."""
        return format_patient_report(self.patient_report(patient, limit=limit))

    def _unexplained_rows(self) -> tuple[int, list[tuple]]:
        """The log size and the unexplained ``(lid, date, user, patient)``
        rows in ``(date, lid)`` order, merged over the shards."""
        with self._lock.read_locked():
            gathered = self._scatter("report_rows")
        if len(gathered) == 1:
            return gathered[0]
        rows = [row for _, shard_rows in gathered for row in shard_rows]
        rows.sort(key=by_date)
        return sum(total for total, _ in gathered), rows

    def unexplained_queue(self) -> tuple[UnexplainedView, ...]:
        """The unexplained review queue alone, oldest first (stable
        ``(date, lid)`` order) — :meth:`report` without the coverage and
        per-user aggregates, which is what the paginated wire endpoint
        serves page-by-page."""
        self._check_open()
        return _views(self._unexplained_rows()[1])

    def report(self, limit: int | None = None) -> AuditReport:
        """The compliance-office artifact: coverage, the unexplained
        review queue (oldest first, optionally capped), and per-user
        unexplained counts (always over the full queue)."""
        self._check_open()
        total, rows = self._unexplained_rows()
        counts: dict[Any, int] = {}
        for _lid, _date, user, _patient in rows:
            counts[user] = counts.get(user, 0) + 1
        queue = rows if limit is None else rows[:limit]
        return AuditReport(
            total=total,
            unexplained_count=len(rows),
            coverage=(total - len(rows)) / total if total else 0.0,
            queue=_views(queue),
            user_risk=tuple(
                sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
            ),
        )

    # ------------------------------------------------------------------
    # resumable scans (web-preemption model)
    # ------------------------------------------------------------------
    def scan(self, request: ScanRequest | None = None) -> ScanPage:
        """One bounded slice of a resumable full-log scan.

        Each shard scans for at most ``page_rows`` rows /
        ``quantum_seconds`` of wall clock (request overrides, else the
        config budgets) past the suspended position, under a single
        short read-lock hold.  The merge sorts the disjoint per-shard
        rows, cuts at the smallest position a quantum-suspended shard
        reached (a row past it cannot be proven next in the global
        order), and applies the global row budget.  Passing the page's
        :class:`ScanState` back — to this service or to a *fresh* one
        over the same log, at any shard count — continues the walk;
        accumulating pages until ``done`` rebuilds the exact one-shot
        :meth:`report`/:meth:`explain_all` artifacts.
        """
        self._check_open()
        if request is None:
            request = ScanRequest()
        state = request.state if request.state is not None else ScanState()
        # both are validated positive when given
        page_rows = request.page_rows or self.config.scan_page_rows
        quantum = request.quantum_seconds or self.config.scan_quantum_seconds
        with self._lock.read_locked():
            gathered = self._scatter("scan_slice", state.after, page_rows, quantum)
        merged: list[tuple] = []
        cut: tuple | None = None
        for rows, shard_done in gathered:
            merged.extend(rows)
            if not shard_done:
                # A suspended shard always returns >= 1 row; it only
                # vouches for the order up to its last scanned key.
                last = by_date(rows[-1])
                cut = last if cut is None or last < cut else cut
        merged.sort(key=by_date)
        eligible = (
            merged if cut is None else [r for r in merged if by_date(r) <= cut]
        )
        taken = eligible[:page_rows]
        done = len(taken) == len(merged) and all(finished for _, finished in gathered)
        # scan rows are (lid, date, user, patient, explained)
        unexplained = _views([row[:4] for row in taken if not row[4]])
        return ScanPage(
            rows=len(taken),
            explained=tuple(row[0] for row in taken if row[4]),
            unexplained=unexplained,
            state=ScanState(
                after=by_date(taken[-1]) if taken else state.after,
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
        bounded lock hold, so writers interleave between pages).  Pass a
        suspended ``state`` to resume a walk mid-flight."""
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

    def _counts(self) -> tuple[int, int]:
        """``(total, unexplained)`` log-id counts, added over the shards."""
        with self._lock.read_locked():
            gathered = self._scatter("counts")
        return sum(t for t, _ in gathered), sum(u for _, u in gathered)

    def summary(self) -> str:
        """The one-line coverage summary, from the warm aggregate caches
        alone — no queue materialization (cheap enough for a dashboard
        poll; :meth:`report` builds the full artifact)."""
        self._check_open()
        total, unexplained = self._counts()
        coverage = (total - unexplained) / total if total else 0.0
        return (
            f"{total} accesses; {total - unexplained} explained "
            f"({coverage:.1%}); {unexplained} in the review queue"
        )

    def coverage(self) -> float:
        """Fraction of the log explained by at least one template."""
        self._check_open()
        total, unexplained = self._counts()
        return (total - unexplained) / total if total else 0.0

    def unexplained_lids(self) -> frozenset:
        """Accesses no template explains — the candidate-misuse set."""
        self._check_open()
        with self._lock.read_locked():
            return _union(self._scatter("unexplained"))

    def explain_all(self) -> BatchExplanation:
        """The whole-log explained/unexplained partition: one batch
        semijoin per template on every shard, the disjoint per-shard
        partitions unioned."""
        self._check_open()
        with self._lock.read_locked():
            gathered = self._scatter("explain_all")
        if len(gathered) == 1:
            return gathered[0]
        return BatchExplanation(
            _union([p.explained for p in gathered]),
            _union([p.unexplained for p in gathered]),
        )

    def explain_batch(self, lids: Iterable[Any]) -> BatchExplanation:
        """Partition a set of log ids into explained/unexplained in one
        set-at-a-time pass (ids absent from the log are unexplained)."""
        self._check_open()
        batch = frozenset(lids)
        with self._lock.read_locked():
            gathered = self._scatter("explain_batch", batch)
        if len(gathered) == 1:
            return gathered[0]
        explained = _union([p.explained for p in gathered])
        return BatchExplanation(explained, batch - explained)

    def support_many(
        self, templates: Sequence[ExplanationTemplate]
    ) -> list[int]:
        """Distinct explained-access counts for the given (not necessarily
        registered) templates: the mining *support*, additive over shards."""
        self._check_open()
        templates = list(templates)
        with self._lock.read_locked():
            gathered = self._scatter("support_counts", templates)
        if len(gathered) == 1:
            return gathered[0]
        return [sum(counts[i] for counts in gathered) for i in range(len(templates))]

    def explained_lids(self, template: ExplanationTemplate) -> frozenset:
        """Distinct log ids one template explains (evaluation helper; the
        template need not be registered with the service)."""
        self._check_open()
        with self._lock.read_locked():
            return _union(self._scatter("explained_lids", template))

    def templates(self) -> tuple[ExplanationTemplate, ...]:
        """The registered (deduplicated) template set (every shard holds
        the same set; shard 0 answers)."""
        self._check_open()
        with self._lock.read_locked():
            return self._on_shard(0, "templates")

    def template_library(self) -> TemplateLibrary:
        """The registered templates as an all-approved library (they are
        in production use), ready for :meth:`TemplateLibrary.dump`."""
        library = TemplateLibrary()
        for template in self.templates():
            library.add(template, ReviewStatus.APPROVED)
        return library

    def save_templates(self, path: str) -> None:
        """Persist the registered templates as a versioned JSON library
        (reload with ``AuditService.open(db, templates=path)``)."""
        self.template_library().dump(path)

    def stats(self) -> dict:
        """Operational counters in one shape at every shard count: summed
        over the shards (``ingest`` is None before the first ingest), plus
        the per-shard breakdown."""
        self._check_open()
        with self._lock.read_locked():
            per_shard = self._scatter("stats")
            lock = self._lock.stats()
        monitors = [s["ingest"] for s in per_shard if s["ingest"] is not None]
        last = [per_shard[i]["ingest"] for i in self._last_ingest]
        return {
            "shards": len(per_shard),
            "executor_kind": "inline" if self._local is not None else "process",
            "log_rows": sum(s["log_rows"] for s in per_shard),
            "templates": per_shard[0]["templates"],
            "queries_executed": sum(s["queries_executed"] for s in per_shard),
            "plan_cache": {
                key: sum(s["plan_cache"][key] for s in per_shard)
                for key in per_shard[0]["plan_cache"]
            },
            "lock": lock,
            "ingest": _merge_ingest(monitors, last) if monitors else None,
            "per_shard": per_shard,
            "config": self.config.to_dict(),
        }

    # ------------------------------------------------------------------
    # writers
    # ------------------------------------------------------------------
    def on_alert(self, handler: AlertHandler) -> None:
        """Register a callback for unexplained ingested accesses (fired
        outside the write lock, after the ingest completes).  Inert when
        ``AuditConfig.alert_on_unexplained`` is False."""
        self._check_open()
        self._alert_handlers.append(handler)

    def ingest(
        self, user: Any, patient: Any, date: dt.datetime | None = None
    ) -> IngestResult:
        """Append one access to the audited log, explain it immediately,
        and alert when no explanation exists."""
        return self.ingest_many([(user, patient, date)])[0]

    def ingest_many(
        self, accesses: Sequence[tuple[Any, Any, dt.datetime | None]]
    ) -> list[IngestResult]:
        """Ingest a batch of ``(user, patient, date)`` accesses: global
        ids and timestamps are assigned in input order, each owning shard
        appends its rows in ONE maintenance pass (strategy chosen by
        batch size), and results return in input order."""
        self._check_open()
        accesses = list(accesses)
        if not accesses:
            return []
        with self._lock.write_locked():
            if self._next_lid is None:
                self._next_lid = max(self._scatter("next_lid"))
            routed: dict[int, list[tuple]] = {}
            order: list[tuple[int, int]] = []  # (shard, position in shard)
            for user, patient, date in accesses:
                shard = self.shard_for(patient)
                rows = routed.setdefault(shard, [])
                order.append((shard, len(rows)))
                stamp = date if date is not None else self._clock()
                rows.append((self._next_lid, stamp, user, patient))
                self._next_lid += 1
            self._last_ingest = tuple(routed)
            if len(routed) == 1:
                ((shard, rows),) = routed.items()
                gathered = {shard: self._on_shard(shard, "ingest_rows", rows)}
            else:
                futures = {
                    shard: self._procs[shard].submit("ingest_rows", rows)
                    for shard, rows in routed.items()
                }
                gathered = {shard: f.result() for shard, f in futures.items()}
            if self.config.eager_warm:
                self._warm()
        results = [
            IngestResult.from_streamed(
                a, a.suspicious and self.config.alert_on_unexplained
            )
            for a in (gathered[shard][pos] for shard, pos in order)
        ]
        self._dispatch_alerts(results)
        return results

    def add_templates(
        self, templates: Iterable[ExplanationTemplate] | TemplateLibrary
    ) -> int:
        """Register more templates on every shard (from an iterable or a
        library's approved set); returns how many were offered."""
        self._check_open()
        if isinstance(templates, TemplateLibrary):
            templates = templates.approved_templates()
        templates = list(templates)
        with self._lock.write_locked():
            self._scatter("add_templates", templates)
            if self.config.eager_warm:
                self._warm()
        return len(templates)

    def load_templates(self, path: str) -> int:
        """Register the approved templates of a saved library (JSON or
        SQL form); returns how many were offered."""
        return self.add_templates(TemplateLibrary.load(path))

    def mine(
        self, request: MineRequest, graph: SchemaGraph | None = None
    ) -> MineResult:
        """Mine frequent explanation templates from the service's own
        database (paper Section 3).  ``graph`` defaults to the standard
        CareWeb explanation graph; pass one for other schemas.  With
        ``request.register`` the mined templates join the engine.  Only a
        one-shard memory-backend service mines (a typed 501 otherwise)."""
        self._check_open()
        db = self._whole_memory_db(
            "mine()",
            hint="mining counts support over the whole in-memory database; "
            "run it on a one-shard AuditService.open(source) with the memory "
            "backend over the same data, then register the mined templates "
            "here with add_templates()",
        )
        with self._lock.write_locked():
            if graph is None:
                from ..ehr.schema import build_careweb_graph

                graph = build_careweb_graph(db)
            config = MiningConfig(
                support_fraction=request.support_fraction,
                max_length=request.max_length,
                max_tables=request.max_tables,
            )
            miners = {
                "one-way": lambda: OneWayMiner(db, graph, config),
                "two-way": lambda: TwoWayMiner(db, graph, config),
                "bridge": lambda: BridgedMiner(
                    db, graph, config, bridge_length=request.bridge_length
                ),
            }
            raw = miners[request.algorithm]().mine()
            if request.register:
                self._scatter("add_templates", [m.template for m in raw.templates])
                if self.config.eager_warm:
                    self._warm()
        return MineResult(
            algorithm=raw.algorithm,
            threshold=raw.threshold,
            templates=tuple(
                MinedTemplateView(
                    sql=m.template.to_sql(),
                    support=m.support,
                    length=m.length,
                    template=m.template,
                )
                for m in raw.templates
            ),
            support_stats=dict(raw.support_stats),
            raw=raw,
        )

    def build_groups(self, max_depth: int = 8) -> GroupsResult:
        """Infer collaborative groups from the access log (paper Section
        4) and materialize the Groups table in the service's database.
        Only a one-shard memory-backend service does (a typed 501
        otherwise)."""
        self._check_open()
        db = self._whole_memory_db(
            "build_groups()",
            hint="group inference rewrites the in-memory Groups table; run "
            "it on a one-shard AuditService.open(source) with the memory "
            "backend, save the database, and reopen this service over the "
            "updated source",
        )
        from ..groups.hierarchy import build_groups_table, hierarchy_from_log

        with self._lock.write_locked():
            hierarchy, access = hierarchy_from_log(db, max_depth=max_depth)
            build_groups_table(db, hierarchy)
            # Groups change what group templates can explain; rebuild.
            self.engine.invalidate_cache()
            if self.config.eager_warm:
                self._warm()
        return GroupsResult(
            group_rows=len(hierarchy.rows()),
            users=len(hierarchy.users()),
            max_depth=hierarchy.max_depth,
            density=access.density(),
            groups_per_depth={
                depth: len(hierarchy.groups_at(depth))
                for depth in range(hierarchy.max_depth + 1)
            },
            hierarchy=hierarchy,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"<AuditService {state} db={self.db.name!r} "
            f"shards={len(self._shards)}>"
        )


def open_service(*args: Any, **kwargs: Any) -> AuditService:
    """:meth:`AuditService.open` as a plain function, for CLIs and web
    tiers (the classmethod is looked up on every call)."""
    return AuditService.open(*args, **kwargs)
