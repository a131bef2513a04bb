"""Streaming auditing: explain accesses as they happen.

The paper frames auditing retrospectively (explain a log), but its
deployment story — a hospital compliance pipeline — wants the same
machinery *online*: when an access arrives, immediately attach its
explanations, and alert when none exists.  :class:`AccessMonitor` wraps
an :class:`~repro.core.engine.ExplanationEngine` with an append-only
ingest API and pluggable alert handlers.

Because explanation templates are ordinary queries over current database
state, streaming needs no new theory: each ingested access is appended to
the log and explained by the engine's prepared per-access probes (repeat-
access templates automatically see earlier rows, including earlier
streamed ones).

Incremental ingest path
-----------------------
Each append rides the delta maintenance stack end to end: the log table
patches its hash indexes and distinct projections in place
(:meth:`repro.db.table.Table.insert`), and the engine delta-evaluates
every template against just the new row
(:meth:`~repro.core.engine.ExplanationEngine.notify_appended`) by calling
that template's prepared point probes.  The maintenance pass and the
verdict share one evaluation: the instance-probe rows that put the new
row into a template's delta *are* its explanation instances, so the
monitor explains and flags the access from what maintenance returned and
issues no further query.  Total work per ingest is T + (extra
log-ranging variables) probe calls for T templates — 12 for the 11
standard templates — independent of log size.

Batch (set-at-a-time) ingest
----------------------------
:meth:`AccessMonitor.ingest_many` maintains the engine in ONE pass for
the whole batch, and the engine picks the strategy by batch size:
batches of at least :data:`~repro.core.engine.SEMIJOIN_BATCH_MIN` rows
take the batch-semijoin path (each template evaluated once against the
whole appended set), smaller latency-sensitive appends the per-row point
probes.  Both strategies produce identical explained/unexplained sets.

The monitor takes an injectable ``clock`` (no hidden ``datetime.now()``
in the hot path) and exposes per-ingest query/latency counters via
:meth:`AccessMonitor.stats`.
"""

from __future__ import annotations

import datetime as dt
import time
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable, Iterator
from typing import Any

from ..core.engine import ExplanationEngine
from ..core.instance import ExplanationInstance
from ..db.errors import DatabaseError


@dataclass(frozen=True)
class StreamedAccess:
    """The outcome of ingesting one access."""

    lid: Any
    date: Any
    user: Any
    patient: Any
    instances: tuple[ExplanationInstance, ...]

    @property
    def suspicious(self) -> bool:
        """True when the access has no explanation (alert condition)."""
        return not self.instances

    def headline(self) -> str:
        """The top-ranked explanation, or a no-explanation marker."""
        if self.instances:
            return self.instances[0].render()
        return "no explanation found"


AlertHandler = Callable[[StreamedAccess], None]


def log_row(log_id_attr: str, lid: Any, stamp: Any, user: Any, patient: Any) -> dict:
    """The one place an audit-log row dict is built: what a monitor
    appends, and what :meth:`repro.api.AuditService.ingest_many` checks
    against the log schema before ingesting a batch."""
    return {log_id_attr: lid, "Date": stamp, "User": user, "Patient": patient}


class AccessMonitor:
    """Appends accesses to the audit log and explains them immediately."""

    def __init__(
        self,
        engine: ExplanationEngine,
        alert_handlers: tuple[AlertHandler, ...] = (),
        clock: Callable[[], Any] | None = None,
    ) -> None:
        self.engine = engine
        self.alert_handlers = list(alert_handlers)
        #: Timestamp source for accesses ingested without an explicit date.
        self.clock = clock if clock is not None else dt.datetime.now
        log = engine.db.table(engine.log_table)
        lid_values = log.distinct_values(engine.log_id_attr)
        self._next_lid = self._initial_next_lid(lid_values)
        #: Running counters for the monitoring dashboard.
        self.seen = 0
        self.alerts = 0
        self.total_queries = 0
        self.total_seconds = 0.0
        self.last_ingest_queries = 0
        self.last_ingest_seconds = 0.0

    @staticmethod
    def _initial_next_lid(lid_values: set) -> int:
        """The first free integer log id.

        Robust to non-contiguous and mixed-type lids: only integers count
        toward the maximum (an external log may hold string ids), and bools
        are excluded even though they subclass ``int``.
        """
        ints = [
            v
            for v in lid_values
            if isinstance(v, int) and not isinstance(v, bool)
        ]
        return (max(ints) + 1) if ints else 1

    def on_alert(self, handler: AlertHandler) -> None:
        """Register a callback invoked for every unexplained access."""
        self.alert_handlers.append(handler)

    @contextmanager
    def _measured(self) -> Iterator[None]:
        """Update the per-ingest query/latency counters around one ingest
        (single access or whole batch)."""
        started = time.perf_counter()
        queries_before = self.engine.executor.queries_executed
        try:
            yield
        finally:  # a failed ingest still spent its queries and its time
            self.last_ingest_queries = (
                self.engine.executor.queries_executed - queries_before
            )
            self.last_ingest_seconds = time.perf_counter() - started
            self.total_queries += self.last_ingest_queries
            self.total_seconds += self.last_ingest_seconds

    def ingest(
        self, user: Any, patient: Any, date: dt.datetime | None = None
    ) -> StreamedAccess:
        """Append one access to the log and explain it.

        Returns the :class:`StreamedAccess`; alert handlers fire before it
        is returned when no explanation exists.  One-row case of
        :meth:`ingest_prepared`: the engine's caches are delta-patched
        with just this row.
        """
        lid = self._next_lid
        self._next_lid += 1
        stamp = date if date is not None else self.clock()
        return self.ingest_prepared([(lid, stamp, user, patient)])[0]

    def ingest_many(
        self, accesses: list[tuple[Any, Any, dt.datetime]]
    ) -> list[StreamedAccess]:
        """Ingest a batch of ``(user, patient, date)`` accesses in order.

        The batch is applied atomically: all rows are appended (one table
        maintenance pass), the engine runs one maintenance pass over the
        whole batch — batch-semijoin or per-row delta, chosen by batch
        size — and only then is each access
        explained and alerted on, in input order.  Results are identical
        to one-by-one :meth:`ingest` whenever explanations are insensitive
        to rows arriving later in the same batch, which holds for monotone
        timestamps (the streaming case); with back-dated rows the batch
        may explain an access a strict one-by-one replay would have
        alerted on.
        """
        batch = []
        for user, patient, date in accesses:
            lid = self._next_lid
            self._next_lid += 1
            stamp = date if date is not None else self.clock()
            batch.append((lid, stamp, user, patient))
        return self.ingest_prepared(batch)

    def ingest_prepared(
        self, rows: list[tuple[Any, Any, Any, Any]]
    ) -> list[StreamedAccess]:
        """Ingest ``(lid, date, user, patient)`` rows with *caller-assigned*
        log ids — what :meth:`repro.api.AuditService.ingest_many` calls
        once it has assigned the ids and checked the batch against the
        log schema.

        Maintenance matches :meth:`ingest_many`: one table append pass,
        one engine maintenance pass (strategy chosen by batch size),
        then each row is explained and alerted on in input order.  The
        monitor's own lid counter is advanced past every given integer id
        so later un-prepared :meth:`ingest` calls cannot collide.

        If an append is rejected mid-batch (:class:`~repro.db.errors.
        CapacityError`, :class:`~repro.db.errors.IntegrityError`) the
        rows before it stay in the table; they are maintained, explained
        and alerted on like any other before the error propagates, so
        the engine never falls behind the log.
        """
        ints = [
            lid
            for lid, _, _, _ in rows
            if isinstance(lid, int) and not isinstance(lid, bool)
        ]
        if ints:
            self._next_lid = max(self._next_lid, max(ints) + 1)
        if not rows:
            return []
        with self._measured():
            log = self.engine.db.table(self.engine.log_table)
            try:
                log.insert_many(
                    log_row(self.engine.log_id_attr, *row) for row in rows
                )
            except DatabaseError:
                # insert_many keeps the rows before the rejected one
                landed = [
                    row for row in rows if log.lookup(self.engine.log_id_attr, row[0])
                ]
                self._maintain(landed)
                raise
            return self._maintain(rows)

    def _maintain(self, rows: list[tuple[Any, Any, Any, Any]]) -> list[StreamedAccess]:
        """One engine maintenance pass over appended rows, then each row's
        verdict — from the instances the pass already evaluated."""
        delta = self.engine.notify_appended_many([lid for lid, _, _, _ in rows])
        return [
            self._finish(*entry, instances=delta.instances.get(entry[0]))
            for entry in rows
        ]

    def _finish(
        self,
        lid: Any,
        stamp: Any,
        user: Any,
        patient: Any,
        instances: list[ExplanationInstance] | None = None,
    ) -> StreamedAccess:
        """Give one appended row its verdict, update counters, fire
        alerts.  ``instances`` are the maintenance pass's; a row it did
        not probe individually is explained here."""
        if instances is None:
            instances = self.engine.explain(lid)
        access = StreamedAccess(
            lid=lid,
            date=stamp,
            user=user,
            patient=patient,
            instances=tuple(instances),
        )
        self.seen += 1
        if access.suspicious:
            self.alerts += 1
            for handler in self.alert_handlers:
                handler(access)
        return access

    def alert_rate(self) -> float:
        """Fraction of streamed accesses that raised an alert.

        Well-defined before any ingest: an empty stream alerts on 0.0 of
        its accesses (never a ZeroDivisionError).
        """
        if self.seen == 0:
            return 0.0
        return self.alerts / self.seen

    def stats(self) -> dict:
        """Counters for dashboards and the streaming benchmark.

        Safe to call before any ingest — every derived rate/average
        reports 0.0 over an empty stream.
        """
        seen = self.seen
        return {
            "seen": seen,
            "alerts": self.alerts,
            "alert_rate": self.alert_rate(),
            "total_queries": self.total_queries,
            "total_seconds": self.total_seconds,
            "avg_ingest_queries": self.total_queries / seen if seen else 0.0,
            "avg_ingest_seconds": self.total_seconds / seen if seen else 0.0,
            "last_ingest_queries": self.last_ingest_queries,
            "last_ingest_seconds": self.last_ingest_seconds,
        }
