"""Compile conjunctive explanation-template queries to parameterized SQL.

The in-memory :class:`~repro.db.executor.Executor` evaluates
:class:`~repro.db.query.ConjunctiveQuery` objects with its own hash-join
pipeline; this module lowers the *same* query objects to SQL text a
relational backend can run, so audits push down to SQLite (and, via new
:class:`~repro.db.backend.Driver` implementations, to other engines)
without touching the template language.

Compilation is dialect-light on purpose: only `?`-style positional
placeholders, double-quoted identifiers, ``SELECT``/``JOIN``-free comma
FROM lists and correlated ``EXISTS`` are emitted — the common
denominator of SQLite, Postgres (via a trivial placeholder rewrite), and
DuckDB.  Four query forms cover the executor's public surface:

* :func:`compile_execute` — ``SELECT [DISTINCT] projection`` (the
  ``execute`` path);
* :func:`compile_count_distinct` — ``SELECT COUNT(*) FROM (SELECT
  DISTINCT attr ...)``.  Deliberately *not* ``COUNT(DISTINCT attr)``:
  SQL's ``COUNT(DISTINCT …)`` ignores NULL, while the in-memory
  executor counts NULL as one distinct value; the subquery form counts
  the NULL row and stays byte-identical to the differential oracle;
* :func:`compile_distinct_values` — ``SELECT DISTINCT attr ...``
  (NULL included, matching the in-memory set semantics);
* :func:`compile_distinct_values_in` — the batch-semijoin form, which
  appends ``alias.attr IN ({placeholders})`` as the *last* WHERE term so
  binding-set values always bind after the query's own literals; the
  driver substitutes the marker per chunk (host-parameter limits).

One rule shapes every distinct form (:func:`_from_where`): a tuple
variable that contributes nothing to the output is *existentially
quantified*.  The aliases named by the projection (``attr`` /
``in_attr``) stay in ``FROM`` as plain base tables; all other aliases,
and every condition that mentions one of them, move into one correlated
``EXISTS (SELECT 1 FROM … WHERE …)`` that the backend probes through the
per-column indexes, stopping at the first witness.  That *is* the
paper's *Reducing Result Multiplicity* rewrite (Section 3.2.1) — each
output row is produced once however many join partners it has — without
building anything: the literal ``(SELECT DISTINCT needed-attrs FROM
table)`` subselects the paper prints must be materialised (and
auto-indexed) once per statement, which on SQLite cost a scan of every
joined table per point query and per IN chunk.  A non-distinct
``execute`` keeps every alias in ``FROM`` — the flat join whose raw
multiplicity the differential suite pins.

Parameters bind in *compiled* order, not condition order: the outer
``WHERE``'s literals first, then the ``EXISTS`` body's, then the binding
set.  :attr:`CompiledQuery.param_order` records it and
:func:`condition_params` applies it.

NULL semantics match the differential oracle end to end: every
comparison is SQL three-valued, so a condition touching a NULL (stored
value *or* a NULL literal bound as a parameter) excludes the row —
exactly the in-memory executor's compiled filters.

Values cross the wire through :func:`encode_value`/:func:`decode_value`:
booleans ride as 0/1 integers, datetimes as ISO-8601 text (``isoformat``
pads microseconds, so lexicographic order equals chronological order and
range conditions on DATE columns stay correct).
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import Any

from .errors import QueryError
from .query import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    Literal,
    TupleVar,
    cond_attr_refs,
)
from .schema import ColumnType, TableSchema

#: Marker substituted by the driver with one ``?`` per binding value
#: (chunked to the backend's host-parameter limit).
IN_MARKER = "{__in_placeholders__}"

#: SQL column affinity per declared column type (SQLite-compatible and
#: portable: every emitted name exists in standard SQL or degrades to a
#: sensible affinity).
_AFFINITY: dict[ColumnType, str] = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.STR: "TEXT",
    ColumnType.DATE: "TEXT",
    ColumnType.BOOL: "INTEGER",
}


def quote_ident(name: str) -> str:
    """Double-quote an identifier, doubling any ``"`` inside it.

    Table and column names are validated by the schema, but tuple-variable
    aliases (``TupleVar``/``AttrRef``) are not; the doubling is what keeps
    any alias one identifier.  Every name reaches SQL text through here,
    and no value does: literals bind as parameters."""
    return '"' + name.replace('"', '""') + '"'


def column_affinity(ctype: ColumnType) -> str:
    """The SQL column affinity a declared column type maps to."""
    return _AFFINITY[ctype]


def encode_value(value: Any) -> Any:
    """Encode one Python value for storage / parameter binding.

    ``bool`` is checked before ``int`` (it subclasses int); datetimes
    become ISO-8601 text whose lexicographic order is chronological.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, dt.datetime):
        return value.isoformat()
    return value


def decode_value(value: Any, ctype: ColumnType) -> Any:
    """Decode one stored value back to the declared Python domain."""
    if value is None:
        return None
    if ctype is ColumnType.DATE:
        return dt.datetime.fromisoformat(value)
    if ctype is ColumnType.BOOL:
        return bool(value)
    return value


def create_table_sql(schema: TableSchema) -> str:
    """``CREATE TABLE IF NOT EXISTS`` DDL for one table schema.

    Constraints are intentionally *not* emitted — validation happens in
    the Python tier (same code path as the in-memory backend), so both
    backends reject exactly the same rows with exactly the same errors.
    """
    cols = ", ".join(
        f"{quote_ident(c.name)} {column_affinity(c.ctype)}"
        for c in schema.columns
    )
    return f"CREATE TABLE IF NOT EXISTS {quote_ident(schema.name)} ({cols})"


def insert_sql(schema: TableSchema) -> str:
    """Parameterized single-row INSERT for one table schema."""
    cols = ", ".join(quote_ident(c.name) for c in schema.columns)
    marks = ", ".join("?" for _ in schema.columns)
    return (
        f"INSERT INTO {quote_ident(schema.name)} ({cols}) VALUES ({marks})"
    )


def index_sql(schema: TableSchema) -> list[str]:
    """One single-column index per column (join/probe acceleration).

    Explanation templates join and filter on arbitrary single attributes
    (the in-memory backend lazily hash-indexes every probed column);
    eagerly indexing each column keeps the SQL backend's point and
    semijoin paths index-driven too.
    """
    out = []
    for col in schema.columns:
        name = quote_ident(f"idx_{schema.name}_{col.name}")
        out.append(
            f"CREATE INDEX IF NOT EXISTS {name} ON "
            f"{quote_ident(schema.name)} ({quote_ident(col.name)})"
        )
    return out


@dataclass(frozen=True)
class CompiledQuery:
    """One lowered query: SQL text plus everything needed to run it.

    ``sql`` may contain :data:`IN_MARKER` (when ``has_in_marker`` is
    True); the driver replaces it with ``?`` placeholders per binding
    chunk.  ``param_order`` lists, in placeholder order, the positions in
    ``query.conditions`` of the conditions whose literal binds there —
    splitting conditions between the outer ``WHERE`` and the ``EXISTS``
    body reorders them, so only the compiler knows it
    (:func:`condition_params` applies it); binding-set values always bind
    *after* them.  ``decoders`` carries the declared column type of each
    output column so result rows can be decoded back to the Python
    domain.
    """

    sql: str
    param_order: tuple[int, ...]
    decoders: tuple[ColumnType, ...]
    has_in_marker: bool = False


def check_connected(query: ConjunctiveQuery, allow_cartesian: bool) -> None:
    """Raise :class:`QueryError` when the join graph is disconnected.

    Mirrors :func:`repro.db.optimizer.build_plan`: only equality
    conditions between two attribute refs of *different* aliases are join
    edges (inequalities filter, they do not connect), and the error
    message is identical so callers cannot tell the backends apart.
    """
    if allow_cartesian or len(query.tuple_vars) <= 1:
        return
    adjacent: dict[str, set[str]] = {v.alias: set() for v in query.tuple_vars}
    for cond in query.conditions:
        if cond.is_join:
            assert isinstance(cond.right, AttrRef)
            adjacent[cond.left.alias].add(cond.right.alias)
            adjacent[cond.right.alias].add(cond.left.alias)
    start = query.tuple_vars[0].alias
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbor in adjacent[frontier.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    if len(seen) != len(query.tuple_vars):
        raise QueryError(
            "query join graph is disconnected (cartesian product "
            "required); pass allow_cartesian=True to permit it"
        )


def _column(ref: AttrRef) -> str:
    return f"{quote_ident(ref.alias)}.{quote_ident(ref.attr)}"


def _table_list(tuple_vars: Iterable[TupleVar]) -> str:
    return ", ".join(
        f"{quote_ident(v.table)} {quote_ident(v.alias)}" for v in tuple_vars
    )


def _render_condition(cond: Condition) -> str:
    """One WHERE term; literal operands become ``?`` placeholders."""
    right = "?" if isinstance(cond.right, Literal) else _column(cond.right)
    return f"{_column(cond.left)} {cond.op} {right}"


def _from_where(
    query: ConjunctiveQuery,
    output: Iterable[AttrRef] | None,
    in_attr: AttrRef | None = None,
) -> tuple[str, tuple[int, ...]]:
    """The ``FROM … WHERE …`` text of one query and its bind order.

    ``output`` names the attributes the statement returns (or restricts
    through the IN marker): their aliases stay in ``FROM``; every other
    alias, and every condition that mentions one, moves into a single
    correlated ``EXISTS``.  ``None`` keeps every alias in ``FROM`` — the
    flat join whose raw multiplicity a non-distinct query must preserve.
    """
    if output is None:
        outer = {v.alias for v in query.tuple_vars}
    else:
        outer = {ref.alias for ref in output}
    outer_terms: list[str] = []
    inner_terms: list[str] = []
    outer_params: list[int] = []
    inner_params: list[int] = []
    for position, cond in enumerate(query.conditions):
        if all(ref.alias in outer for ref in cond_attr_refs(cond)):
            terms, params = outer_terms, outer_params
        else:
            terms, params = inner_terms, inner_params
        terms.append(_render_condition(cond))
        if isinstance(cond.right, Literal):
            params.append(position)
    inner_vars = [v for v in query.tuple_vars if v.alias not in outer]
    if inner_vars:
        body = f"SELECT 1 FROM {_table_list(inner_vars)}"
        if inner_terms:
            body += " WHERE " + " AND ".join(inner_terms)
        outer_terms.append(f"EXISTS ({body})")
    if in_attr is not None:
        outer_terms.append(f"{_column(in_attr)} IN ({IN_MARKER})")
    sql = "FROM " + _table_list(v for v in query.tuple_vars if v.alias in outer)
    if outer_terms:
        sql += " WHERE " + " AND ".join(outer_terms)
    return sql, tuple(outer_params + inner_params)


def condition_params(
    compiled: CompiledQuery, query: ConjunctiveQuery
) -> tuple[Any, ...]:
    """The encoded literal parameters of ``query`` in the order
    ``compiled`` binds them (``query`` may be any query of the shape
    ``compiled`` was lowered from — literal values are not compiled in)."""
    params = []
    for position in compiled.param_order:
        right = query.conditions[position].right
        assert isinstance(right, Literal)
        params.append(encode_value(right.value))
    return tuple(params)


def _decoder_for(
    ref: AttrRef,
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
) -> ColumnType:
    table = next(v.table for v in query.tuple_vars if v.alias == ref.alias)
    return schemas[table].column(ref.attr).ctype


def compile_execute(
    query: ConjunctiveQuery, schemas: Mapping[str, TableSchema]
) -> CompiledQuery:
    """Lower the ``execute`` form: ``SELECT [DISTINCT] projection``.

    Only a distinct projection may quantify the unprojected aliases away
    (see the module docstring); a non-distinct query keeps the flat join
    and its raw multiplicity to stay oracle-identical.
    """
    head = "SELECT DISTINCT" if query.distinct else "SELECT"
    cols = ", ".join(_column(r) for r in query.projection)
    tail, param_order = _from_where(
        query, query.projection if query.distinct else None
    )
    return CompiledQuery(
        sql=f"{head} {cols} {tail}",
        param_order=param_order,
        decoders=tuple(
            _decoder_for(r, query, schemas) for r in query.projection
        ),
    )


def compile_distinct_values(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    attr: AttrRef,
) -> CompiledQuery:
    """Lower the ``distinct_values`` form: ``SELECT DISTINCT attr``.

    NULL is included when present (SQL DISTINCT keeps one NULL row),
    matching the in-memory executor's value-set semantics.
    """
    tail, param_order = _from_where(query, (attr,))
    return CompiledQuery(
        sql=f"SELECT DISTINCT {_column(attr)} {tail}",
        param_order=param_order,
        decoders=(_decoder_for(attr, query, schemas),),
    )


def compile_count_distinct(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    attr: AttrRef,
) -> CompiledQuery:
    """Lower the ``count_distinct`` form.

    Emitted as ``SELECT COUNT(*) FROM (SELECT DISTINCT attr ...)`` so a
    NULL counts as one distinct value — ``COUNT(DISTINCT attr)`` would
    silently drop it and disagree with the in-memory executor.
    """
    inner = compile_distinct_values(query, schemas, attr)
    return CompiledQuery(
        sql=f"SELECT COUNT(*) FROM ({inner.sql})",
        param_order=inner.param_order,
        decoders=(ColumnType.INT,),
    )


def compile_distinct_values_in(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    attr: AttrRef,
    in_attr: AttrRef,
) -> CompiledQuery:
    """Lower the batch-semijoin form: ``distinct_values`` restricted by
    ``in_attr IN ({binding set})``.

    The IN term is the *last* term of the outer ``WHERE`` (after the
    ``EXISTS``), so the driver binds the query's own literal parameters
    first and the (chunked) binding values after —
    :meth:`repro.db.backend.Driver.execute_batch` fills the marker.  A
    stored NULL never matches IN, and NULL binding values are stripped by
    the executor before compilation, matching the in-memory semantics.
    """
    tail, param_order = _from_where(query, (attr, in_attr), in_attr)
    return CompiledQuery(
        sql=f"SELECT DISTINCT {_column(attr)} {tail}",
        param_order=param_order,
        decoders=(_decoder_for(attr, query, schemas),),
        has_in_marker=True,
    )
