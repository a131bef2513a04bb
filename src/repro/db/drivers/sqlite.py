"""SQLite storage driver (stdlib ``sqlite3``) for the SQL backend.

This is the first implementation of the :class:`repro.db.backend.Driver`
contract.  Design points that matter for the audit workload:

* **Lazy connection** — the ``sqlite3`` connection is opened on first
  use, never in ``__init__``, so the connection is only ever created in
  the process (and after any fork) that uses it.
* **One connection, one lock** — the audit service serializes writers
  behind its own readers-writer lock, but readers run concurrently from
  a thread pool, so the driver guards its connection with an RLock and
  opens it with ``check_same_thread=False``.  Statement execution and
  cursor drain happen inside the lock; decoded rows are handed out as
  plain lists.
* **Autocommit + explicit batch transactions** — the connection runs in
  autocommit (``isolation_level=None``); :meth:`ingest_many` wraps each
  batch in an explicit ``BEGIN``/``COMMIT`` so a thousand-row ingest is
  one fsync, not a thousand.
* **Chunked binding sets** — SQLite caps host parameters per statement
  (999 on older builds).  :meth:`execute_batch` splits an ``IN (...)``
  binding set into chunks below that cap, substitutes the dialect's
  :data:`~repro.db.dialect.IN_MARKER` per chunk, and unions the chunk
  results — one *logical* query regardless of chunk count, mirroring
  the in-memory executor's "a batch semijoin counts as one query" rule.
* **Schema catalog table** — every ingested table's
  :class:`~repro.db.schema.TableSchema` is stored as JSON in
  ``_repro_schema``, written only after its rows are fully ingested and
  indexed, so reopening a database file can rebuild the typed catalog
  (and a crash mid-ingest leaves no catalog row, which the opener treats
  as "rebuild from source").
* **Bulk-load, then index** — :meth:`create_table` makes a bare table
  and :meth:`create_indexes` builds the per-column indexes afterwards:
  one sorted build per index instead of a B-tree update per column per
  inserted row.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from collections.abc import Iterable, Sequence
from typing import Any

from ..dialect import IN_MARKER, create_table_sql, index_sql, insert_sql, quote_ident
from ..schema import TableSchema

#: Stay comfortably below SQLITE_MAX_VARIABLE_NUMBER (999 on the oldest
#: supported builds), leaving room for a query's own literal parameters.
MAX_BATCH_PARAMS = 500

#: Rows per executemany transaction chunk during bulk ingest.
INGEST_CHUNK_ROWS = 1000

#: Name of the schema catalog table (underscore prefix keeps it out of
#: the user's table namespace — user identifiers are alphanumeric only).
SCHEMA_TABLE = "_repro_schema"


class SqliteDriver:
    """:class:`repro.db.backend.Driver` over a SQLite file (or memory).

    ``path`` of ``None`` opens a private in-memory database — same
    semantics as a file, zero filesystem footprint (used for unit tests
    and for services with no ``db_path`` configured).
    """

    dialect = "sqlite"

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._conn: sqlite3.Connection | None = None
        self._lock = threading.RLock()
        #: Statement-level counters surfaced by :meth:`snapshot_stats`.
        self.statements_executed = 0
        self.rows_ingested = 0
        self.batch_chunks = 0

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> sqlite3.Connection:
        """The live connection, opened lazily (see module docstring)."""
        with self._lock:
            if self._conn is None:
                self._conn = sqlite3.connect(
                    self.path if self.path is not None else ":memory:",
                    check_same_thread=False,
                    isolation_level=None,
                )
            return self._conn

    def close(self) -> None:
        """Close the connection (idempotent); a later call reconnects."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()) -> list[tuple[Any, ...]]:
        """Run one parameterized statement; return all rows."""
        conn = self.connect()
        with self._lock:
            self.statements_executed += 1
            cursor = conn.execute(sql, tuple(params))
            rows = cursor.fetchall()
            cursor.close()
            return rows

    def execute_batch(
        self, sql: str, params: Sequence[Any], values: Sequence[Any]
    ) -> list[tuple[Any, ...]]:
        """Run an :data:`IN_MARKER` statement over a whole binding set.

        ``values`` is split into host-parameter-safe chunks; each chunk
        substitutes its own ``?`` list for the marker and binds after
        ``params`` (the dialect emits the IN term last, so positional
        order is params-then-values).  Chunk results are concatenated —
        for the DISTINCT queries the dialect compiles, the union of
        chunk value-sets equals the value set of the unchunked query.
        """
        if IN_MARKER not in sql:
            raise ValueError("execute_batch requires an IN-marker statement")
        if not values:
            return []
        chunk_size = max(1, MAX_BATCH_PARAMS - len(params))
        out: list[tuple[Any, ...]] = []
        values = list(values)
        for start in range(0, len(values), chunk_size):
            chunk = values[start : start + chunk_size]
            marks = ", ".join("?" for _ in chunk)
            with self._lock:
                self.batch_chunks += 1
            out.extend(
                self.execute(
                    sql.replace(IN_MARKER, marks), tuple(params) + tuple(chunk)
                )
            )
        return out

    # ------------------------------------------------------------------
    # DDL + ingest
    # ------------------------------------------------------------------
    def ensure_schema_catalog(self) -> None:
        """Create the ``_repro_schema`` catalog table if absent."""
        self.execute(
            f"CREATE TABLE IF NOT EXISTS {quote_ident(SCHEMA_TABLE)} "
            "(name TEXT PRIMARY KEY, schema_json TEXT)"
        )

    def create_table(self, schema: TableSchema, *, reset: bool = False) -> None:
        """Create one bare table — no indexes, so a bulk ingest appends
        rows without updating a B-tree per column; :meth:`create_indexes`
        builds them once the rows are in.

        With ``reset`` the table and its catalog row are dropped first —
        the opener uses this when a database file exists but its catalog
        is absent or stale (e.g. a crash mid-ingest).
        """
        self.ensure_schema_catalog()
        if reset:
            self.execute(f"DROP TABLE IF EXISTS {quote_ident(schema.name)}")
            self.execute(
                f"DELETE FROM {quote_ident(SCHEMA_TABLE)} WHERE name = ?",
                (schema.name,),
            )
        self.execute(create_table_sql(schema))

    def create_indexes(self, schema: TableSchema) -> None:
        """Build the per-column indexes of one table (idempotent)."""
        for statement in index_sql(schema):
            self.execute(statement)

    def register_schema(self, schema: TableSchema, schema_json: dict[str, Any]) -> None:
        """Record a table's schema in the catalog (call *after* ingest
        and indexing — the catalog row is the backend's "table is
        complete" marker)."""
        self.execute(
            f"INSERT OR REPLACE INTO {quote_ident(SCHEMA_TABLE)} "
            "(name, schema_json) VALUES (?, ?)",
            (schema.name, json.dumps(schema_json)),
        )

    def load_schema_catalog(self) -> dict[str, dict[str, Any]]:
        """The stored catalog: ``{table name: schema JSON blob}``.

        Empty when the file has no catalog table (fresh or foreign DB).
        """
        rows = self.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ?",
            (SCHEMA_TABLE,),
        )
        if not rows:
            return {}
        return {
            name: json.loads(blob)
            for name, blob in self.execute(
                f"SELECT name, schema_json FROM {quote_ident(SCHEMA_TABLE)} "
                "ORDER BY rowid"
            )
        }

    def ingest_many(
        self, schema: TableSchema, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Bulk-insert encoded rows in chunked explicit transactions.

        Returns the number of rows ingested.  Rows must already be
        encoded (:func:`repro.db.dialect.encode_value`) and validated —
        the SQL table object owns both steps, keeping the driver a thin
        statement runner.
        """
        conn = self.connect()
        sql = insert_sql(schema)
        total = 0
        batch: list[tuple[Any, ...]] = []

        def flush() -> None:
            nonlocal total
            if not batch:
                return
            with self._lock:
                self.statements_executed += 1
                conn.execute("BEGIN")
                try:
                    conn.executemany(sql, batch)
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
                self.rows_ingested += len(batch)
            total += len(batch)
            batch.clear()

        for row in rows:
            batch.append(tuple(row))
            if len(batch) >= INGEST_CHUNK_ROWS:
                flush()
        flush()
        return total

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def table_rowcount(self, name: str) -> int:
        """``COUNT(*)`` of one table."""
        rows = self.execute(f"SELECT COUNT(*) FROM {quote_ident(name)}")
        return int(rows[0][0])

    def snapshot_stats(self) -> dict[str, Any]:
        """Point-in-time driver counters (the Driver-contract surface)."""
        with self._lock:
            return {
                "dialect": self.dialect,
                "path": self.path if self.path is not None else ":memory:",
                "connected": self._conn is not None,
                "statements_executed": self.statements_executed,
                "rows_ingested": self.rows_ingested,
                "batch_chunks": self.batch_chunks,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = self.path if self.path is not None else ":memory:"
        return f"<SqliteDriver {target!r} statements={self.statements_executed}>"
