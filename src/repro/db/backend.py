"""The pluggable-backend seam: executor and driver contracts.

Every tier above the storage layer (engine, facade, server) talks to storage through two small contracts defined here:

* :class:`ExecutorProtocol` — the query surface.  Implemented by the
  in-memory :class:`~repro.db.executor.Executor` (compiled hash-join
  pipeline) and by
  :class:`~repro.db.sqlbackend.SqlExecutor` (SQL pushdown via the
  dialect compiler).  :func:`make_executor` picks the right one for a
  database object, so callers never import a concrete executor.
* :class:`Driver` — the statement-runner surface a new SQL backend must
  implement (see ``docs/architecture.md`` for the full contract and
  what the differential suite pins).  Implemented first by
  :class:`~repro.db.drivers.sqlite.SqliteDriver`.

:data:`AnyDatabase` / :data:`AnyTable` are the union aliases the upper
tiers annotate with — a deliberate closed union rather than a protocol,
because the two database implementations are pinned byte-identical by
the differential suites and the upper tiers may rely on either.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any, Protocol, Union, runtime_checkable

from .database import Database
from .executor import Executor, QueryResult
from .optimizer import PlanCache
from .query import AttrRef, ConjunctiveQuery
from .schema import TableSchema
from .sqlbackend import SqlDatabase, SqlExecutor, SqlTable
from .table import Table

#: Database objects the audit tiers accept (both satisfy the same
#: catalog surface; pinned identical by the differential suites).
AnyDatabase = Union[Database, SqlDatabase]

#: Table objects the audit tiers read from and append to.
AnyTable = Union[Table, SqlTable]


@runtime_checkable
class ExecutorProtocol(Protocol):
    """The query surface every executor implementation must provide.

    Semantics are fixed by the in-memory reference implementation and
    pinned by ``tests/test_differential_executor.py``; the contract
    points that are easy to get wrong in a new backend:

    * NULL never satisfies any comparison (SQL three-valued logic), but
      a NULL *is* one distinct value in ``count_distinct`` /
      ``distinct_values`` result sets;
    * ``distinct_values_in`` drops NULL binding values, never matches
      rows whose restricted attribute is NULL, and counts as ONE query
      in ``queries_executed`` regardless of internal chunking;
    * non-distinct ``execute`` results preserve full join multiplicity
      (the multiplicity-reduction rewrite applies only to distinct
      output);
    * a ``prepare_point`` probe returns exactly the rows ``execute`` of
      the pinned query returns, a NULL value matches nothing, and every
      call counts as one query.
    """

    db: Any
    queries_executed: int
    plan_cache: PlanCache

    def execute(self, query: ConjunctiveQuery) -> QueryResult:
        """Run ``query`` and return its (optionally distinct) projection."""
        ...

    def count_distinct(
        self, query: ConjunctiveQuery, attr: AttrRef | None = None
    ) -> int:
        """Number of distinct values of ``attr`` over the query result."""
        ...

    def distinct_values(
        self, query: ConjunctiveQuery, attr: AttrRef | None = None
    ) -> set:
        """The distinct value set of ``attr`` over the query result."""
        ...

    def distinct_values_in(
        self,
        query: ConjunctiveQuery,
        attr: AttrRef,
        in_attr: AttrRef,
        in_values: Sequence[Any],
    ) -> set:
        """Batch semijoin: ``distinct_values`` with ``in_attr`` restricted
        to a binding set."""
        ...

    def prepare_point(
        self, query: ConjunctiveQuery, pin: AttrRef
    ) -> Callable[[Any], list[tuple[Any, ...]]]:
        """Compile ``query AND pin = ?`` once: ``probe(value)`` returns
        the rows of ``execute(query.pinned(pin, value))``, with
        everything that does not depend on the value resolved up front
        (the per-access ``L.Lid = ?`` question, asked per template per
        access)."""
        ...


class Driver(Protocol):
    """The statement-runner contract a SQL storage backend implements.

    A driver is deliberately dumb: it runs parameterized statements and
    moves encoded rows.  Everything semantic — compilation, value
    encoding, validation, NULL rules — lives above it in the dialect
    and :mod:`~repro.db.sqlbackend` tiers, which is what keeps a new
    backend small (connection handling plus placeholder syntax).
    """

    dialect: str

    def connect(self) -> Any:
        """Open (or return) the live connection, lazily."""
        ...

    def close(self) -> None:
        """Close the connection (idempotent; a later call reconnects)."""
        ...

    def execute(self, sql: str, params: Sequence[Any] = ()) -> list[tuple[Any, ...]]:
        """Run one parameterized statement; return all result rows."""
        ...

    def execute_batch(
        self, sql: str, params: Sequence[Any], values: Sequence[Any]
    ) -> list[tuple[Any, ...]]:
        """Run an IN-marker statement over a whole binding set, chunked
        to the backend's host-parameter limit."""
        ...

    def create_table(self, schema: TableSchema, *, reset: bool = False) -> None:
        """Create one bare table; ``reset`` drops it first."""
        ...

    def create_indexes(self, schema: TableSchema) -> None:
        """Build the table's per-column indexes (after the bulk ingest)."""
        ...

    def ingest_many(
        self, schema: TableSchema, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Bulk-insert encoded rows transactionally; returns the count."""
        ...

    def snapshot_stats(self) -> dict[str, Any]:
        """Point-in-time driver counters for observability surfaces."""
        ...


def make_executor(
    db: AnyDatabase,
    *,
    allow_cartesian: bool = False,
    plan_cache: PlanCache | None = None,
) -> ExecutorProtocol:
    """The right executor for a database object.

    A :class:`SqlDatabase` gets a :class:`SqlExecutor` (SQL pushdown);
    anything else gets the in-memory :class:`Executor`.
    """
    if isinstance(db, SqlDatabase):
        return SqlExecutor(db, allow_cartesian=allow_cartesian, plan_cache=plan_cache)
    return Executor(db, allow_cartesian=allow_cartesian, plan_cache=plan_cache)
