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

One engine
----------
The service holds one database, one
:class:`~repro.core.engine.ExplanationEngine` over it (with a private
LRU plan cache) and, from the first ingest on, one
:class:`~repro.audit.streaming.AccessMonitor`, and calls them directly
on the calling thread.  Under ``AuditConfig.backend == "sqlite"`` the
database is a :class:`~repro.db.sqlbackend.SqlDatabase` and every
explanation query pushes down as SQL; mining and group inference
rewrite the in-memory database and answer a typed 501 there.

Concurrency model
-----------------
The service owns a writer-preferring readers-writer lock
(:class:`~repro.api.locks.RWLock`): queries run concurrently as readers
against the delta-maintained caches, while ingest, mining and template
registration serialize as writers.  With the default
``AuditConfig.eager_warm``, every writer leaves the prepared probes and
the aggregate caches warm before releasing the lock.  Readers still
mutate one kind of shared state: the first reader that needs a ``Table``
access structure (a hash or projection index, a distinct projection, a
key structure) builds it, under the read lock (ROADMAP.md, "Declared
access structures").  Readers wait for the lock, except
``explain(request, wait=False)``: it answers only if the read lock is
free of writers right now
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

from ..audit.streaming import AccessMonitor, log_row
from ..core.engine import BatchExplanation, ExplanationEngine
from ..core.graph import SchemaGraph
from ..core.library import ReviewStatus, TemplateLibrary
from ..core.mining import BridgedMiner, MiningConfig, OneWayMiner, TwoWayMiner
from ..core.scan import LogScanner
from ..core.template import ExplanationTemplate
from ..db.backend import AnyDatabase, AnyTable, make_executor
from ..db.csvio import load_database
from ..db.database import Database
from ..db.optimizer import PlanCache
from ..db.sqlbackend import SqlDatabase, open_sql_database
from ..db.table import check_rows
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
    """The thread-safe facade over the whole auditing system (see the
    module docstring).  Build one with :meth:`open`; the constructor
    audits the database it is given as-is."""

    def __init__(
        self,
        db: AnyDatabase,
        templates: Iterable[ExplanationTemplate],
        config: AuditConfig,
        clock: Callable[[], Any] | None = None,
    ) -> None:
        self.db = db
        #: The database the caller handed in; close() closes any other.
        self._given: object = db
        self.config = config
        self.engine = ExplanationEngine(
            db,
            templates,
            log_table=config.log_table,
            log_id_attr=config.log_id_attr,
            executor=make_executor(
                db, plan_cache=PlanCache(max_size=config.plan_cache_size)
            ),
        )
        #: Built by the first ingest: a monitor reads the log's id set,
        #: which a read-only service never needs.
        self._monitor: AccessMonitor | None = None
        self._clock = clock if clock is not None else dt.datetime.now
        self._alert_handlers: list[AlertHandler] = []
        self._lock = RWLock()
        self._closed = False
        if config.eager_warm:
            self._warm()

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

        With ``config.backend == "sqlite"`` a path ``db`` is streamed into
        the SQLite file at ``config.db_path`` (reused as-is when already
        ingested — the restart path) and every explanation query pushes
        down as SQL; an in-memory ``db`` object is copied in.  A
        :class:`~repro.db.sqlbackend.SqlDatabase` passed directly is used
        as-is regardless of ``config.backend``.
        """
        config = config if config is not None else AuditConfig()
        source = db
        if isinstance(db, (str, os.PathLike)):
            if config.backend == "sqlite":
                db = open_sql_database(str(db), config.db_path)
            else:
                db = load_database(str(db), max_rows=config.max_table_rows)
        elif config.backend == "sqlite" and not isinstance(db, SqlDatabase):
            db = open_sql_database(db, config.db_path)
        service = cls(db, resolve_templates(db, templates), config, clock=clock)
        service._given = source
        return service

    def close(self) -> None:
        """End the lifecycle; subsequent calls raise RuntimeError.  A
        database the service opened closes with it; the database its
        caller passed in stays open."""
        if self._closed:
            return
        self._closed = True
        if self.db is not self._given:
            self.db.close()

    def __enter__(self) -> "AuditService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("AuditService is closed")

    @property
    def plan_cache(self) -> PlanCache:
        """The service's private LRU plan cache (bounded by the config;
        hit/miss counters surface through :meth:`stats`)."""
        return self.engine.executor.plan_cache

    def _warm(self) -> None:
        """Prepare the point probes and materialize the aggregate caches
        (explained set, unexplained queue).  Table access structures the
        readers need but the warm pass did not read are still built by the
        first reader that asks."""
        self.engine.warm()

    def _memory_db(self, what: str, hint: str) -> Database:
        """The in-memory database a whole-database writer rewrites."""
        if isinstance(self.db, SqlDatabase):
            raise UnsupportedOperationError(
                f"{what} is not available on the SQLite backend", hint=hint
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
        without waiting — the memory backend, and a read lock free of
        writers — and returns None otherwise (the HTTP event loop's
        in-place attempt).
        """
        self._check_open()
        if not isinstance(request, ExplainRequest):
            request = ExplainRequest(lid=request)
        if wait:
            with self._lock.read_locked():
                instances = self.engine.explain(request.lid)
        elif isinstance(self.db, SqlDatabase) or not self._lock.try_acquire_read():
            return None
        else:
            try:
                instances = self.engine.explain(request.lid)
            finally:
                self._lock.release_read()
        if request.limit is not None:
            instances = instances[: request.limit]
        return ExplainResult(
            lid=request.lid,
            explanations=tuple(
                ExplanationView.from_instance(i) for i in instances
            ),
        )

    def _log_columns(self) -> tuple[AnyTable, tuple[int, int, int, int]]:
        """The log table and its ``(lid, date, user, patient)`` column
        positions."""
        log = self.db.table(self.config.log_table)
        schema = log.schema
        return log, (
            schema.column_index(self.config.log_id_attr),
            schema.column_index("Date"),
            schema.column_index("User"),
            schema.column_index("Patient"),
        )

    def patient_report(
        self, patient: Any, limit: int | None = None
    ) -> PatientReport:
        """Every access to one patient's record in time order, each with
        ranked explanations (the portal screen, paper Example 1.1)."""
        self._check_open()
        with self._lock.read_locked():
            log, (lid_i, date_i, user_i, _patient_i) = self._log_columns()
            rows = sorted(
                log.lookup("Patient", patient),
                key=lambda r: (r[date_i], r[lid_i]),
            )
            if limit is not None:
                rows = rows[:limit]
            entries = tuple(
                AccessView(
                    lid=row[lid_i],
                    date=row[date_i],
                    user=row[user_i],
                    explanations=tuple(
                        i.render() for i in self.engine.explain(row[lid_i])
                    ),
                )
                for row in rows
            )
        return PatientReport(patient=patient, entries=entries)

    def render_patient_report(
        self, patient: Any, limit: int | None = None
    ) -> str:
        """Plain-text portal screen, one access per block."""
        return format_patient_report(self.patient_report(patient, limit=limit))

    def _unexplained_rows(self) -> tuple[int, list[tuple]]:
        """The log size and the unexplained ``(lid, date, user, patient)``
        rows in ``(date, lid)`` order."""
        with self._lock.read_locked():
            log, (lid_i, date_i, user_i, patient_i) = self._log_columns()
            unexplained = self.engine.unexplained_lids()
            rows = [
                (r[lid_i], r[date_i], r[user_i], r[patient_i])
                for r in log.rows()
                if r[lid_i] in unexplained
            ]
            total = len(self.engine.all_lids())
        rows.sort(key=lambda r: (r[1], r[0]))
        return total, rows

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

        Scans at most ``page_rows`` rows / ``quantum_seconds`` of wall
        clock (request overrides, else the config budgets) past the
        suspended position, in ``(date, lid)`` order, under a single
        short read-lock hold.  Passing the page's :class:`ScanState`
        back — to this service or to a *fresh* one over the same log —
        continues the walk; accumulating pages until ``done`` rebuilds
        the exact one-shot :meth:`report`/:meth:`explain_all` artifacts.
        """
        self._check_open()
        if request is None:
            request = ScanRequest()
        state = request.state if request.state is not None else ScanState()
        # both are validated positive when given
        page_rows = request.page_rows or self.config.scan_page_rows
        quantum = request.quantum_seconds or self.config.scan_quantum_seconds
        with self._lock.read_locked():
            result = LogScanner(self.engine).slice(state.after, page_rows, quantum)
        unexplained = tuple(
            UnexplainedView(lid=r.lid, date=r.date, user=r.user, patient=r.patient)
            for r in result.rows
            if not r.explained
        )
        return ScanPage(
            rows=len(result.rows),
            explained=tuple(r.lid for r in result.rows if r.explained),
            unexplained=unexplained,
            state=ScanState(
                after=result.after,
                seen=state.seen + len(result.rows),
                unexplained=state.unexplained + len(unexplained),
            ),
            done=result.done,
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
        """``(total, unexplained)`` log-id counts."""
        with self._lock.read_locked():
            return self.engine.coverage_counts()

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
            return frozenset(self.engine.unexplained_lids())

    def explain_all(self) -> BatchExplanation:
        """The whole-log explained/unexplained partition: one batch
        semijoin per template."""
        self._check_open()
        with self._lock.read_locked():
            return self.engine.explain_all()

    def explain_batch(self, lids: Iterable[Any]) -> BatchExplanation:
        """Partition a set of log ids into explained/unexplained in one
        set-at-a-time pass (ids absent from the log are unexplained)."""
        self._check_open()
        batch = frozenset(lids)
        with self._lock.read_locked():
            return self.engine.explain_batch(batch)

    def support_many(
        self, templates: Sequence[ExplanationTemplate]
    ) -> list[int]:
        """Distinct explained-access counts for the given (not necessarily
        registered) templates: the mining *support*."""
        self._check_open()
        templates = list(templates)
        with self._lock.read_locked():
            return self.engine.support_counts(templates)

    def explained_lids(self, template: ExplanationTemplate) -> frozenset:
        """Distinct log ids one template explains (evaluation helper; the
        template need not be registered with the service)."""
        self._check_open()
        with self._lock.read_locked():
            return frozenset(self.engine.explained_lids(template))

    def templates(self) -> tuple[ExplanationTemplate, ...]:
        """The registered (deduplicated) template set."""
        self._check_open()
        with self._lock.read_locked():
            return self.engine.templates

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
        """Operational counters (``ingest`` is None before the first
        ingest)."""
        self._check_open()
        with self._lock.read_locked():
            executor = self.engine.executor
            return {
                "log_rows": len(self.db.table(self.config.log_table)),
                "templates": len(self.engine.templates),
                "queries_executed": executor.queries_executed,
                "plan_cache": executor.plan_cache.stats(),
                "lock": self._lock.stats(),
                "ingest": None if self._monitor is None else self._monitor.stats(),
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
        """Ingest a batch of ``(user, patient, date)`` accesses: log ids
        and timestamps are assigned in input order, the log appends the
        rows in ONE maintenance pass (strategy chosen by batch size), and
        results return in input order.

        The whole batch is checked against the log schema first: a batch
        with a row the log rejects raises its
        :class:`~repro.db.errors.IntegrityError` having landed nothing
        and spent no log id."""
        self._check_open()
        accesses = list(accesses)
        if not accesses:
            return []
        with self._lock.write_locked():
            if self._monitor is None:
                # reads the next free id from the log as it is now: a
                # reopened SQLite file may hold rows ingested after the
                # source was exported
                self._monitor = AccessMonitor(self.engine)
            clock, first = self._clock, self._monitor._next_lid
            batch = [
                (first + i, clock() if date is None else date, user, patient)
                for i, (user, patient, date) in enumerate(accesses)
            ]
            lid_attr = self.config.log_id_attr
            _, error = check_rows(
                self.db.table(self.config.log_table).schema,
                [log_row(lid_attr, *row) for row in batch],
            )
            if error is not None:
                raise error
            streamed = self._monitor.ingest_prepared(batch)
            if self.config.eager_warm:
                self._warm()
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
        """Register more templates (from an iterable or a library's
        approved set); returns how many were offered."""
        self._check_open()
        if isinstance(templates, TemplateLibrary):
            templates = templates.approved_templates()
        templates = list(templates)
        with self._lock.write_locked():
            self._register(templates)
        return len(templates)

    def _register(self, templates: Sequence[ExplanationTemplate]) -> None:
        """Add templates to the engine and re-warm; the caller holds the
        write lock."""
        for template in templates:
            self.engine.add_template(template)
        if self.config.eager_warm:
            self._warm()

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
        ``request.register`` the mined templates join the engine.  Only
        the memory backend mines (a typed 501 on SQLite)."""
        self._check_open()
        db = self._memory_db(
            "mine()",
            hint="mining counts support over the in-memory database; run it "
            "on AuditService.open(source) with the memory backend over the "
            "same data, then register the mined templates here with "
            "add_templates()",
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
                self._register([m.template for m in raw.templates])
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
        Only the memory backend does (a typed 501 on SQLite)."""
        self._check_open()
        db = self._memory_db(
            "build_groups()",
            hint="group inference rewrites the in-memory Groups table; run "
            "it on AuditService.open(source) with the memory backend, save "
            "the database, and reopen this service over the updated source",
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
        return f"<AuditService {state} db={self.db.name!r}>"


def open_service(*args: Any, **kwargs: Any) -> AuditService:
    """:meth:`AuditService.open` as a plain function, for CLIs and web
    tiers (the classmethod is looked up on every call)."""
    return AuditService.open(*args, **kwargs)
