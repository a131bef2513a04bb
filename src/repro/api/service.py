"""The :class:`AuditService` facade — one thread-safe entry point.

The paper describes a single auditing *system*: explain accesses, alert
on unexplainable ones, mine new templates, report to the compliance
office.  Before this module those capabilities were five independently
wired classes, each duplicating database/template setup and each growing
its own tuning kwargs.  :class:`AuditService` owns all of it behind an
explicit lifecycle::

    from repro.api import AuditConfig, AuditService

    with AuditService.open("hospital/", config=AuditConfig()) as service:
        result = service.explain(lid=17)
        report = service.report()
        service.ingest("u0042", "p00017")

Concurrency model
-----------------
The service owns a writer-preferring readers-writer lock
(:class:`~repro.api.locks.RWLock`): ``explain``/``report``/``stats`` and
the other queries run concurrently as readers against the
delta-maintained caches, while ``ingest``/``mine``/template registration
serialize as writers.  With the default ``AuditConfig.eager_warm``, every
writer leaves the aggregate caches warm before releasing the lock, so
readers only ever *read* shared state — the first step toward
multi-worker serving.

Readers normally wait for the lock.  ``explain(request, wait=False)`` is
the one exception: it takes the read lock with the non-blocking
:meth:`~repro.api.locks.RWLock.try_acquire_read` and answers only on the
memory backend with no writer active or waiting, returning None
otherwise.  The HTTP server calls it on its event-loop thread and sends
a None to its thread pool as an ordinary waiting ``explain``.

Everything the service returns is a typed, frozen dataclass from
:mod:`repro.api.messages` with ``to_dict()`` for JSON serving.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

from ..audit.streaming import AccessMonitor
from ..core.engine import BatchExplanation, ExplanationEngine
from ..core.graph import SchemaGraph
from ..core.library import ReviewStatus, TemplateLibrary
from ..core.mining import BridgedMiner, MiningConfig, OneWayMiner, TwoWayMiner
from ..core.scan import LogScanner
from ..core.template import ExplanationTemplate
from ..db.backend import AnyDatabase, make_executor
from ..db.csvio import load_database
from ..db.optimizer import PlanCache
from ..db.sqlbackend import SqlDatabase, open_sql_database
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
    per block (shared by the single-node and sharded services)."""
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
    production set, None means the standard hand-crafted CareWeb set.
    Shared by :class:`AuditService` and the sharded service so both
    resolve identically."""
    if isinstance(templates, (str, os.PathLike)):
        templates = TemplateLibrary.load(str(templates))
    if isinstance(templates, TemplateLibrary):
        templates, _fallback = templates.production_templates()
    elif templates is None:
        templates = standard_templates(db)
    return list(templates)


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
    """The unified, thread-safe facade over the whole auditing system."""

    def __init__(
        self,
        db: AnyDatabase,
        templates: Iterable[ExplanationTemplate],
        config: AuditConfig,
        clock: Callable[[], Any] | None = None,
    ) -> None:
        self.db = db
        self.config = config
        #: Per-service LRU plan cache (bounded by the config; hit/miss
        #: counters surface through :meth:`stats`).
        self.plan_cache = PlanCache(max_size=config.plan_cache_size)
        self.engine = ExplanationEngine(
            db,
            templates,
            log_table=config.log_table,
            log_id_attr=config.log_id_attr,
            executor=make_executor(db, plan_cache=self.plan_cache),
        )
        self._clock = clock
        self._monitor: AccessMonitor | None = None
        self._alert_handlers: list[AlertHandler] = []
        self._lock = RWLock()
        self._closed = False
        #: True when open() built the database itself (a SQLite database
        #: opened from a path/source), making close() close it too.
        self._owns_db = False
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

        With ``config.backend == "sqlite"``, a path ``db`` is streamed
        into the SQLite file at ``config.db_path`` (reused as-is when
        already ingested — the restart path) and every explanation query
        pushes down as SQL; an in-memory ``db`` object is copied in.  A
        :class:`~repro.db.sqlbackend.SqlDatabase` passed directly is
        used as-is regardless of ``config.backend``.
        """
        config = config if config is not None else AuditConfig()
        opened_sql = False
        if isinstance(db, (str, os.PathLike)):
            if config.backend == "sqlite":
                db = open_sql_database(str(db), config.db_path)
                opened_sql = True
            else:
                db = load_database(str(db), max_rows=config.max_table_rows)
        elif config.backend == "sqlite" and not isinstance(db, SqlDatabase):
            db = open_sql_database(db, config.db_path)
            opened_sql = True
        service = cls(db, resolve_templates(db, templates), config, clock=clock)
        service._owns_db = opened_sql
        return service

    @classmethod
    def from_engine(
        cls, engine: ExplanationEngine, config: AuditConfig | None = None
    ) -> "AuditService":
        """Wrap an existing engine (how the engine-level
        ``PatientPortal`` and ``ComplianceAuditor`` reach the service).

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
        service.db = engine.db
        service.config = config
        service.plan_cache = engine.executor.plan_cache
        service.engine = engine
        service._clock = None
        service._monitor = None
        service._alert_handlers = []
        service._lock = RWLock()
        service._closed = False
        service._owns_db = False
        return service

    def close(self) -> None:
        """End the lifecycle; subsequent calls raise RuntimeError.  A
        SQLite database the service opened itself is closed with it."""
        if not self._closed and self._owns_db:
            self.db.close()
        self._closed = True

    def __enter__(self) -> "AuditService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("AuditService is closed")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _warm(self) -> None:
        """Prepare the point probes and materialize the aggregate caches
        (explained set, unexplained queue) so subsequent readers never
        mutate shared state."""
        self.engine.warm()

    def _monitor_instance(self) -> AccessMonitor:
        if self._monitor is None:
            self._monitor = AccessMonitor(self.engine, clock=self._clock)
        return self._monitor

    def _dispatch_alerts(self, results: Sequence[IngestResult]) -> None:
        """Fire alert handlers outside the write lock (a handler may call
        back into the service as a reader)."""
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

    def patient_report(
        self, patient: Any, limit: int | None = None
    ) -> PatientReport:
        """Every access to one patient's record in time order, each with
        ranked explanations (the portal screen, paper Example 1.1)."""
        self._check_open()
        with self._lock.read_locked():
            log = self.db.table(self.config.log_table)
            schema = log.schema
            lid_i = schema.column_index(self.config.log_id_attr)
            date_i = schema.column_index("Date")
            user_i = schema.column_index("User")
            rows = sorted(
                log.lookup("Patient", patient),
                key=lambda r: (r[date_i], r[lid_i]),
            )
            if limit is not None:
                rows = rows[:limit]
            entries = []
            for row in rows:
                instances = self.engine.explain(row[lid_i])
                entries.append(
                    AccessView(
                        lid=row[lid_i],
                        date=row[date_i],
                        user=row[user_i],
                        explanations=tuple(i.render() for i in instances),
                    )
                )
        return PatientReport(patient=patient, entries=tuple(entries))

    def render_patient_report(
        self, patient: Any, limit: int | None = None
    ) -> str:
        """Plain-text portal screen, one access per block."""
        return format_patient_report(self.patient_report(patient, limit=limit))

    def _unexplained_queue_locked(self) -> tuple[UnexplainedView, ...]:
        """Queue assembly under an already-held read lock."""
        log = self.db.table(self.config.log_table)
        schema = log.schema
        lid_i = schema.column_index(self.config.log_id_attr)
        date_i = schema.column_index("Date")
        user_i = schema.column_index("User")
        patient_i = schema.column_index("Patient")
        unexplained = self.engine.unexplained_lids()
        rows = [r for r in log.rows() if r[lid_i] in unexplained]
        rows.sort(key=lambda r: (r[date_i], r[lid_i]))
        return tuple(
            UnexplainedView(
                lid=r[lid_i], date=r[date_i], user=r[user_i], patient=r[patient_i]
            )
            for r in rows
        )

    def unexplained_queue(self) -> tuple[UnexplainedView, ...]:
        """The unexplained review queue alone, oldest first (stable
        ``(date, lid)`` order) — :meth:`report` without the coverage and
        per-user aggregates, which is what the paginated wire endpoint
        serves page-by-page."""
        self._check_open()
        with self._lock.read_locked():
            return self._unexplained_queue_locked()

    def report(self, limit: int | None = None) -> AuditReport:
        """The compliance-office artifact: coverage, the unexplained
        review queue (oldest first, optionally capped), and per-user
        unexplained counts (always over the full queue)."""
        self._check_open()
        with self._lock.read_locked():
            queue_views = self._unexplained_queue_locked()
            total = len(self.engine.all_lids())
            coverage = self.engine.coverage()
        counts: dict[Any, int] = {}
        for view in queue_views:
            counts[view.user] = counts.get(view.user, 0) + 1
        queue = list(queue_views)
        if limit is not None:
            queue = queue[:limit]
        return AuditReport(
            total=total,
            unexplained_count=len(queue_views),
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
        """One bounded slice of a resumable full-log scan.

        Runs for at most ``page_rows`` rows / ``quantum_seconds`` of
        wall clock (request overrides, else the config budgets) under a
        single short read-lock hold, then suspends into the returned
        page's :class:`ScanState`.  Passing that state back — to this
        service or to a *fresh* one over the same log — continues the
        walk; accumulating pages until ``done`` rebuilds the exact
        one-shot :meth:`report`/:meth:`explain_all` artifacts.
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
            result = LogScanner(self.engine).slice(
                state.after, page_rows, quantum
            )
        unexplained = tuple(
            UnexplainedView(
                lid=r.lid, date=r.date, user=r.user, patient=r.patient
            )
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

    def summary(self) -> str:
        """The one-line coverage summary, from the warm aggregate caches
        alone — no queue materialization (cheap enough for a dashboard
        poll; :meth:`report` builds the full artifact)."""
        self._check_open()
        with self._lock.read_locked():
            total = len(self.engine.all_lids())
            unexplained = len(self.engine.unexplained_lids())
            coverage = self.engine.coverage()
        return (
            f"{total} accesses; {total - unexplained} explained "
            f"({coverage:.1%}); {unexplained} in the review queue"
        )

    def coverage(self) -> float:
        """Fraction of the log explained by at least one template."""
        self._check_open()
        with self._lock.read_locked():
            return self.engine.coverage()

    def unexplained_lids(self) -> frozenset:
        """Accesses no template explains — the candidate-misuse set."""
        self._check_open()
        with self._lock.read_locked():
            return frozenset(self.engine.unexplained_lids())

    def explain_all(self) -> BatchExplanation:
        """The whole-log explained/unexplained partition (one batch
        semijoin per template) as a
        :class:`~repro.core.engine.BatchExplanation`."""
        self._check_open()
        with self._lock.read_locked():
            return self.engine.explain_all()

    def explain_batch(self, lids: Iterable[Any]) -> BatchExplanation:
        """Partition a set of log ids into explained/unexplained in one
        set-at-a-time pass (ids absent from the log are unexplained)."""
        self._check_open()
        with self._lock.read_locked():
            return self.engine.explain_batch(lids)

    def support_many(
        self, templates: Sequence[ExplanationTemplate]
    ) -> list[int]:
        """Distinct explained-access counts for the given templates (the
        mining *support* quantity); templates need not be registered."""
        self._check_open()
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
        self._check_open()
        library = TemplateLibrary()
        for template in self.templates():
            library.add(template, ReviewStatus.APPROVED)
        return library

    def save_templates(self, path: str) -> None:
        """Persist the registered templates as a versioned JSON library
        (reload with ``AuditService.open(db, templates=path)``)."""
        self.template_library().dump(path)

    def stats(self) -> dict:
        """Operational counters: plan-cache hit/miss, query counts, lock
        acquisitions, ingest counters, template/log sizes."""
        self._check_open()
        with self._lock.read_locked():
            monitor = self._monitor
            return {
                "log_rows": len(self.db.table(self.config.log_table)),
                "templates": len(self.engine.templates),
                "queries_executed": self.engine.executor.queries_executed,
                "plan_cache": self.plan_cache.stats(),
                "lock": self._lock.stats(),
                "ingest": monitor.stats() if monitor is not None else None,
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
        self._check_open()
        with self._lock.write_locked():
            access = self._monitor_instance().ingest(user, patient, date)
            if self.config.eager_warm:
                self._warm()
        result = IngestResult.from_streamed(
            access, access.suspicious and self.config.alert_on_unexplained
        )
        self._dispatch_alerts([result])
        return result

    def ingest_many(
        self, accesses: Sequence[tuple[Any, Any, dt.datetime | None]]
    ) -> list[IngestResult]:
        """Ingest a batch of ``(user, patient, date)`` accesses in one
        maintenance pass (strategy chosen by batch size)."""
        self._check_open()
        with self._lock.write_locked():
            streamed = self._monitor_instance().ingest_many(list(accesses))
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
            for template in templates:
                self.engine.add_template(template)
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
        ``request.register`` the mined templates join the engine."""
        self._check_open()
        db = self.db
        if isinstance(db, SqlDatabase):
            raise UnsupportedOperationError(
                "mine() is not available on the SQLite backend",
                hint=(
                    "mining walks the schema graph with in-memory support "
                    "counting; run it on AuditService.open(source) with the "
                    "memory backend over the same data, then register the "
                    "mined templates here with add_templates()"
                ),
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
                for mined in raw.templates:
                    self.engine.add_template(mined.template)
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
        4) and materialize the Groups table in the service's database."""
        self._check_open()
        db = self.db
        if isinstance(db, SqlDatabase):
            raise UnsupportedOperationError(
                "build_groups() is not available on the SQLite backend",
                hint=(
                    "group inference materializes an in-memory Groups table; "
                    "run it on AuditService.open(source) with the memory "
                    "backend, save the database, and reopen this service "
                    "over the updated source"
                ),
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
            f"templates={len(self.engine.templates)}>"
        )
