"""SQL-backed tables, catalog, and executor — the SQLite storage backend.

This module is the storage half of the pluggable-backend seam (the
compilation half lives in :mod:`repro.db.dialect`; the statement runner
in :mod:`repro.db.drivers`).  It mirrors the in-memory substrate
surface-for-surface:

* :class:`SqlTable` — the read/write surface of
  :class:`~repro.db.table.Table` that the audit tiers actually touch
  (``rows``/``lookup``/``distinct_values``/``insert``/``insert_many``),
  evaluated by SQL statements instead of Python lists.  Rows are checked
  by the *same* batch validator as the in-memory table
  (:func:`~repro.db.table.check_rows`), so both backends reject exactly
  the same rows with the same errors.
* :class:`SqlDatabase` — the catalog surface of
  :class:`~repro.db.database.Database`, with every table's
  :class:`~repro.db.schema.TableSchema` persisted as JSON in the
  driver's ``_repro_schema`` table so reopening a database file rebuilds
  the typed catalog without the original source.
* :class:`SqlExecutor` — the query surface of
  :class:`~repro.db.executor.Executor` (``execute`` /
  ``count_distinct`` / ``distinct_values`` / ``distinct_values_in``),
  pushing every explanation query down to the database as parameterized
  SQL.  Compiled statements are memoized in the shared
  :class:`~repro.db.optimizer.PlanCache` under ``"sql"``-tagged keys.
* :func:`open_sql_database` — the opener: reuse an already-ingested
  database file, or build one by streaming a saved CSV directory (or
  copying an in-memory :class:`~repro.db.database.Database`) into it.

NULL semantics, result multiplicity, and error messages are pinned
byte-identical to the in-memory engine by the backend-parameterized
differential suites (``tests/test_differential_executor.py``,
``tests/test_sql_backend.py``).
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Any

from .csvio import _schema_from_json, _schema_to_json, read_csv_batches, read_manifest
from .database import Database
from .dialect import (
    CompiledQuery,
    check_connected,
    compile_count_distinct,
    compile_distinct_values,
    compile_distinct_values_in,
    compile_execute,
    condition_params,
    decode_value,
    encode_value,
    quote_ident,
)
from .drivers.sqlite import SCHEMA_TABLE, SqliteDriver
from .errors import QueryError, SchemaError, UnknownTableError
from .executor import QueryResult
from .optimizer import PlanCache, query_shape, shared_plan_cache
from .query import AttrRef, ConjunctiveQuery, cond_attr_refs
from .schema import ColumnType, ForeignKey, TableSchema
from .table import batched, check_rows

#: Catalog key under which the database's display name is stored (kept in
#: ``_repro_schema`` but filtered out of the table catalog — user table
#: names are alphanumeric, so the dunder name cannot collide).
_NAME_KEY = "__database__"

#: Column types whose stored form differs from the Python domain (all
#: others pass through undecoded — the row fast path).
_DECODED_TYPES = frozenset({ColumnType.DATE, ColumnType.BOOL})


def _decode_rows(
    rows: list[tuple[Any, ...]], decoders: Sequence[ColumnType]
) -> list[tuple[Any, ...]]:
    """Decode driver rows back to the Python domain (fast path: rows whose
    columns all store verbatim are returned as-is)."""
    if not any(t in _DECODED_TYPES for t in decoders):
        return rows
    return [
        tuple(decode_value(v, t) for v, t in zip(row, decoders)) for row in rows
    ]


def _encoded_rows(
    schema: TableSchema, batches: Iterable[Sequence[Sequence[Any] | Mapping[str, Any]]]
) -> Iterator[tuple[Any, ...]]:
    """Check and encode rows a batch at a time (the beyond-RAM CSV path never
    materializes the table): the rows before a bad one, then its error."""
    for batch in batches:
        good, error = check_rows(schema, batch)
        yield from (tuple(map(encode_value, row)) for row in good)
        if error is not None:
            raise error


def _build_table(
    driver: SqliteDriver,
    schema: TableSchema,
    batches: Iterable[Sequence[Sequence[Any] | Mapping[str, Any]]],
) -> None:
    """Create one table and fill it, in the order that keeps both the
    load cheap and a crash detectable: bare table, bulk ingest, *then*
    the per-column indexes (one sorted build each instead of a B-tree
    update per column per row), and the catalog row last — it is the
    "table is complete" marker :func:`open_sql_database` trusts."""
    driver.create_table(schema, reset=True)
    driver.ingest_many(schema, _encoded_rows(schema, batches))
    driver.create_indexes(schema)
    driver.register_schema(schema, _schema_to_json(schema))


class SqlTable:
    """A SQL-backed relation presenting the :class:`~repro.db.table.Table`
    read/write surface the audit tiers use.

    The in-memory table's cache-building internals (columnar mirrors,
    hash indexes, projection indexes) have no equivalent here — the
    database's own B-tree indexes play that role.
    """

    def __init__(self, driver: SqliteDriver, schema: TableSchema) -> None:
        self.driver = driver
        self.schema = schema
        cols = ", ".join(quote_ident(c.name) for c in schema.columns)
        self._select_all = (
            f"SELECT {cols} FROM {quote_ident(schema.name)} ORDER BY rowid"
        )
        self._decoders = tuple(c.ctype for c in schema.columns)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row (positional or mapping) via :meth:`insert_many`."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Insert many rows; returns the number inserted.  As in memory,
        the rows before a rejected one persist, then its error propagates."""
        encoded: list[tuple[Any, ...]] = []
        try:
            encoded.extend(_encoded_rows(self.schema, batched(rows)))
        except Exception:
            self.driver.ingest_many(self.schema, encoded)
            raise
        return self.driver.ingest_many(self.schema, encoded)

    def clear(self) -> None:
        """Remove all rows."""
        self.driver.execute(f"DELETE FROM {quote_ident(self.schema.name)}")

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.driver.table_rowcount(self.schema.name)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows())

    def rows(self) -> list[tuple[Any, ...]]:
        """All rows in insertion (rowid) order, decoded."""
        return _decode_rows(self.driver.execute(self._select_all), self._decoders)

    def column_values(self, column: str) -> list[Any]:
        """All values of one column, in insertion order."""
        i = self.schema.column_index(column)
        rows = self.driver.execute(
            f"SELECT {quote_ident(column)} FROM "
            f"{quote_ident(self.schema.name)} ORDER BY rowid"
        )
        ctype = self._decoders[i]
        return [decode_value(r[0], ctype) for r in rows]

    def distinct_values(self, column: str) -> set:
        """Distinct values of one column (NULLs excluded) — identical
        semantics to :meth:`repro.db.table.Table.distinct_values`."""
        ctype = self._decoders[self.schema.column_index(column)]
        rows = self.driver.execute(
            f"SELECT DISTINCT {quote_ident(column)} FROM "
            f"{quote_ident(self.schema.name)} "
            f"WHERE {quote_ident(column)} IS NOT NULL"
        )
        return {decode_value(r[0], ctype) for r in rows}

    def ndv(self, column: str) -> int:
        """Number of distinct non-NULL values (optimizer statistic)."""
        self.schema.column_index(column)  # raises UnknownColumnError
        rows = self.driver.execute(
            f"SELECT COUNT(DISTINCT {quote_ident(column)}) FROM "
            f"{quote_ident(self.schema.name)}"
        )
        return int(rows[0][0])

    def lookup(self, column: str, value: Any) -> list[tuple[Any, ...]]:
        """Rows where ``column == value``, in insertion order.

        A ``None`` probe matches stored NULLs (``IS NULL``) — the
        in-memory hash index keeps a NULL bucket, so parity requires the
        same here.
        """
        self.schema.column_index(column)  # raises UnknownColumnError
        base = (
            f"SELECT {', '.join(quote_ident(c.name) for c in self.schema.columns)} "
            f"FROM {quote_ident(self.schema.name)} WHERE {quote_ident(column)}"
        )
        if value is None:
            rows = self.driver.execute(f"{base} IS NULL ORDER BY rowid")
        else:
            rows = self.driver.execute(
                f"{base} = ? ORDER BY rowid", (encode_value(value),)
            )
        return _decode_rows(rows, self._decoders)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SqlTable {self.schema.name} rows={len(self)}>"


class SqlDatabase:
    """A SQL-backed catalog presenting the
    :class:`~repro.db.database.Database` surface.

    Table schemas live in the driver's ``_repro_schema`` catalog table,
    so a :class:`SqlDatabase` reopened from a file (via
    :func:`open_sql_database`) restores the full typed catalog — that is
    the restart-survival property the sharded service relies on.
    """

    def __init__(
        self,
        driver: SqliteDriver,
        name: str = "db",
        schemas: Iterable[TableSchema] = (),
    ) -> None:
        self.name = name
        self.driver = driver
        self._tables: dict[str, SqlTable] = {}
        for schema in schemas:
            self._tables[schema.name] = SqlTable(driver, schema)

    # ------------------------------------------------------------------
    # catalog operations
    # ------------------------------------------------------------------
    def create_table(self, schema: TableSchema) -> SqlTable:
        """Create an empty table — same catalog checks and errors as the
        in-memory :meth:`~repro.db.database.Database.create_table`."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        for fk in schema.foreign_keys:
            if fk.ref_table != schema.name and fk.ref_table not in self._tables:
                raise SchemaError(
                    f"table {schema.name!r} declares FK to missing table "
                    f"{fk.ref_table!r}"
                )
        _build_table(self.driver, schema, ())
        table = SqlTable(self.driver, schema)
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog and the database file."""
        if name not in self._tables:
            raise UnknownTableError(name)
        self.driver.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")
        self.driver.execute(
            f"DELETE FROM {quote_ident(SCHEMA_TABLE)} WHERE name = ?", (name,)
        )
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        """Whether a table of this name exists."""
        return name in self._tables

    def table(self, name: str) -> SqlTable:
        """Look up a table by name (raises :class:`UnknownTableError`)."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def table_names(self) -> list[str]:
        """Names of all catalog tables, in creation order."""
        return list(self._tables)

    def tables(self) -> Iterator[SqlTable]:
        """Iterate over all tables."""
        return iter(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def close(self) -> None:
        """Close the underlying driver connection (reopenable)."""
        self.driver.close()

    # ------------------------------------------------------------------
    # introspection / validation
    # ------------------------------------------------------------------
    def foreign_keys(self) -> list[tuple[str, ForeignKey]]:
        """All declared FKs as ``(owning_table, fk)`` pairs."""
        out: list[tuple[str, ForeignKey]] = []
        for table in self._tables.values():
            for fk in table.schema.foreign_keys:
                out.append((table.schema.name, fk))
        return out

    def validate_referential_integrity(self) -> list[str]:
        """Check every FK value appears in the referenced column (same
        report format as the in-memory database)."""
        violations: list[str] = []
        for owner, fk in self.foreign_keys():
            if fk.ref_table not in self._tables:
                violations.append(f"{owner}.{fk.column}: missing table {fk.ref_table}")
                continue
            ref_values = self._tables[fk.ref_table].distinct_values(fk.ref_column)
            col_idx = self._tables[owner].schema.column_index(fk.column)
            for row in self._tables[owner].rows():
                value = row[col_idx]
                if value is not None and value not in ref_values:
                    violations.append(
                        f"{owner}.{fk.column}={value!r} not found in "
                        f"{fk.ref_table}.{fk.ref_column}"
                    )
        return violations

    def total_rows(self) -> int:
        """Sum of row counts across every table."""
        return sum(len(t) for t in self._tables.values())

    def summary(self) -> str:
        """One line per table: name and row count."""
        lines = [f"database {self.name!r}: {len(self._tables)} tables"]
        for name, table in sorted(self._tables.items()):
            lines.append(f"  {name:<16} {len(table):>8} rows")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SqlDatabase {self.name!r} tables={len(self._tables)}>"


class SqlExecutor:
    """Evaluates :class:`ConjunctiveQuery` objects by SQL pushdown.

    The SQL path has one lowering: predicate pushdown is inherent to SQL
    evaluation, and unprojected tuple variables of a distinct query are
    probed through a correlated ``EXISTS``, which is the paper's
    multiplicity reduction (see :mod:`repro.db.dialect`).

    Compiled SQL is memoized in ``plan_cache`` (shared process-wide by
    default, like in-memory plans) keyed on query shape, so the
    thousands of per-access point queries a template generates compile
    once.  ``queries_executed`` counts public calls — a batch semijoin
    is ONE query no matter how many parameter chunks the driver runs.
    """

    def __init__(
        self,
        db: SqlDatabase,
        allow_cartesian: bool = False,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.db = db
        self.allow_cartesian = allow_cartesian
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        self.queries_executed = 0

    # ------------------------------------------------------------------
    # public query surface (mirrors the in-memory Executor)
    # ------------------------------------------------------------------
    def execute(self, query: ConjunctiveQuery) -> QueryResult:
        """Run ``query`` and return its (optionally distinct) projection."""
        self.queries_executed += 1
        self._validate(query)
        compiled = self._compiled("execute", query)
        rows = self._run(compiled, query)
        return QueryResult(
            tuple(query.projection), _decode_rows(rows, compiled.decoders)
        )

    def count_distinct(
        self, query: ConjunctiveQuery, attr: AttrRef | None = None
    ) -> int:
        """``COUNT(DISTINCT attr)`` with NULL counted as one value (the
        in-memory set semantics — see :func:`~repro.db.dialect.compile_count_distinct`)."""
        target = attr if attr is not None else query.projection[0]
        self.queries_executed += 1
        self._validate(query)
        compiled = self._compiled("count", query, attr=target)
        rows = self._run(compiled, query)
        return int(rows[0][0])

    def distinct_values(
        self, query: ConjunctiveQuery, attr: AttrRef | None = None
    ) -> set:
        """The distinct value set of one attribute over the query result."""
        target = attr if attr is not None else query.projection[0]
        self.queries_executed += 1
        self._validate(query)
        compiled = self._compiled("values", query, attr=target)
        rows = self._run(compiled, query)
        ctype = compiled.decoders[0]
        return {decode_value(r[0], ctype) for r in rows}

    def distinct_values_in(
        self,
        query: ConjunctiveQuery,
        attr: AttrRef,
        in_attr: AttrRef,
        in_values: Sequence[Any],
    ) -> set:
        """Batch semijoin: distinct ``attr`` values with ``in_attr``
        restricted to ``in_values``.

        NULL binding values are stripped before compilation (they can
        never match — in-memory parity), and the driver runs the
        compiled statement once per host-parameter-safe chunk of the
        binding set; the union of chunks equals the unchunked result.
        """
        self.queries_executed += 1
        self._validate(query)
        values = {v for v in in_values if v is not None}
        if not values:
            return set()
        compiled = self._compiled("semijoin", query, attr=attr, in_attr=in_attr)
        rows = self.db.driver.execute_batch(
            compiled.sql,
            condition_params(compiled, query),
            [encode_value(v) for v in values],
        )
        ctype = compiled.decoders[0]
        return {decode_value(r[0], ctype) for r in rows}

    def prepare_point(
        self, query: ConjunctiveQuery, pin: AttrRef
    ) -> Callable[[Any], list[tuple[Any, ...]]]:
        """Compile ``query AND pin = ?`` once: validation, the SQL text,
        the bind order and the row decoders are fixed here; a call
        encodes the value into its slot and runs the statement (the SQL
        twin of :class:`repro.db.executor.PointProbe`)."""
        shape = query.pinned(pin, 0)
        self._validate(shape)
        compiled = self._compiled("execute", shape)
        params = list(condition_params(compiled, shape))
        slot = compiled.param_order.index(len(query.conditions))

        def probe(value: Any) -> list[tuple[Any, ...]]:
            self.queries_executed += 1
            if value is None:
                return []  # comparison with NULL is never true
            bound = list(params)
            bound[slot] = encode_value(value)
            rows = self.db.driver.execute(compiled.sql, bound)
            return _decode_rows(rows, compiled.decoders)

        return probe

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(self, query: ConjunctiveQuery) -> None:
        """Same validation pass (and errors) as the in-memory executor."""
        for var in query.tuple_vars:
            schema = self.db.table(var.table).schema  # raises UnknownTableError
            for cond in query.conditions:
                for ref in cond_attr_refs(cond):
                    if ref.alias == var.alias and not schema.has_column(ref.attr):
                        raise QueryError(f"no column {ref.attr!r} in {var.table!r}")
            for ref in query.projection:
                if ref.alias == var.alias and not schema.has_column(ref.attr):
                    raise QueryError(f"no column {ref.attr!r} in {var.table!r}")

    def _run(
        self, compiled: CompiledQuery, query: ConjunctiveQuery
    ) -> list[tuple[Any, ...]]:
        """Run a compiled statement with ``query``'s literals bound."""
        return self.db.driver.execute(
            compiled.sql, condition_params(compiled, query)
        )

    def _compiled(
        self,
        form: str,
        query: ConjunctiveQuery,
        attr: AttrRef | None = None,
        in_attr: AttrRef | None = None,
    ) -> CompiledQuery:
        """The memoized compiled statement for one query form.

        Keys carry the database identity and a ``"sql"`` tag so compiled
        statements share the process-wide plan cache with in-memory
        plans without ever colliding.
        """
        key = (
            "sql",
            id(self.db),
            query_shape(query),
            form,
            (attr.alias, attr.attr) if attr is not None else None,
            (in_attr.alias, in_attr.attr) if in_attr is not None else None,
        )
        cached = self.plan_cache.lookup(key)
        if isinstance(cached, CompiledQuery):
            return cached
        check_connected(query, self.allow_cartesian)
        schemas = {v.table: self.db.table(v.table).schema for v in query.tuple_vars}
        if form == "execute":
            compiled = compile_execute(query, schemas)
        elif form == "count":
            assert attr is not None
            compiled = compile_count_distinct(query, schemas, attr)
        elif form == "values":
            assert attr is not None
            compiled = compile_distinct_values(query, schemas, attr)
        else:
            assert attr is not None and in_attr is not None
            compiled = compile_distinct_values_in(query, schemas, attr, in_attr)
        self.plan_cache.store(key, compiled)
        return compiled


# ----------------------------------------------------------------------
# opening / building SQL-backed databases
# ----------------------------------------------------------------------
def shard_db_path(path: str | None, index: int) -> str | None:
    """The per-shard database file derived from a configured ``db_path``.

    ``audit.db`` becomes ``audit.shard0.db``, ``audit.shard1.db``, ... —
    each shard owns a private file (private connection, private WAL).  A
    ``None`` path stays ``None`` (private in-memory databases).
    """
    if path is None:
        return None
    root, ext = os.path.splitext(path)
    return f"{root}.shard{index}{ext or '.db'}"


def _register_name(driver: SqliteDriver, name: str) -> None:
    driver.execute(
        f"INSERT OR REPLACE INTO {quote_ident(SCHEMA_TABLE)} "
        "(name, schema_json) VALUES (?, ?)",
        (_NAME_KEY, json.dumps({"name": name})),
    )


def open_sql_database(
    source: Database | str | os.PathLike | None = None,
    path: str | None = None,
    *,
    name: str | None = None,
) -> SqlDatabase:
    """Open (or build) a SQL-backed database at ``path``.

    Resolution order:

    1. **Reuse** — when the file at ``path`` already holds a complete
       ``_repro_schema`` catalog, the typed catalog is rebuilt from it
       and ``source`` is ignored entirely.  This is the restart path: a
       reopened audit service never re-ingests.
    2. **Build** — otherwise ``source`` is ingested: a CSV directory
       (saved by :func:`~repro.db.csvio.save_database`) is *streamed*
       table by table without ever materializing an in-memory
       :class:`~repro.db.table.Table` (the beyond-RAM path), while an
       in-memory :class:`~repro.db.database.Database` is copied row by
       row.  Catalog rows are registered only after a table's rows are
       fully ingested, so a crash mid-build is detected as "no catalog"
       and the next open rebuilds from source.

    ``path=None`` opens a private in-memory SQLite database (tests, and
    shards without a configured ``db_path``).
    """
    driver = SqliteDriver(path)
    catalog = driver.load_schema_catalog()
    stored = catalog.pop(_NAME_KEY, None)
    if catalog:
        schemas = [_schema_from_json(blob) for blob in catalog.values()]
        if name is None:
            name = stored["name"] if stored else "db"
        return SqlDatabase(driver, name=name, schemas=schemas)
    if source is None:
        target = path if path is not None else ":memory:"
        raise SchemaError(
            f"no audited database found at {target!r} and no source to "
            "ingest was given"
        )
    if isinstance(source, (str, os.PathLike)):
        directory = str(source)
        source_name, schemas = read_manifest(directory)
        db = SqlDatabase(driver, name=name or source_name, schemas=schemas)
        for schema in schemas:
            csv_path = os.path.join(directory, f"{schema.name}.csv")
            _build_table(driver, schema, read_csv_batches(schema, csv_path))
    else:
        db = SqlDatabase(
            driver,
            name=name or source.name,
            schemas=[t.schema for t in source.tables()],
        )
        for table in source.tables():
            _build_table(driver, table.schema, batched(table.rows()))
    _register_name(driver, db.name)
    return db
