"""Differential suite: the batched CSV loaders against a row-at-a-time
reference.

The reference lives here: ``csv.reader``, the per-cell
:meth:`ColumnType.parse`, the per-row type and NOT NULL predicates (with
their messages), and a :meth:`Table.insert` loop.  :func:`load_database`,
:func:`read_table_csv` and ``open_sql_database(directory)`` must load the
same rows with the same value types, and on a malformed extract raise the
same error class and message with the same rows landed before it.
"""

from __future__ import annotations

import csv
import datetime as dt
import os

import pytest

from repro.db import (
    CapacityError,
    Column,
    ColumnType,
    Database,
    IntegrityError,
    SchemaError,
    TableSchema,
    load_database,
    open_sql_database,
    read_table_csv,
    save_database,
)
from repro.db import csvio
from repro.db.table import _BATCH_ROWS, Table
from repro.ehr import SimulationConfig, simulate

SCHEMA = TableSchema(
    "T",
    (
        Column("id", ColumnType.INT, nullable=False),
        Column("score", ColumnType.FLOAT),
        Column("name", ColumnType.STR),
        Column("at", ColumnType.DATE),
        Column("ok", ColumnType.BOOL),
    ),
)
HEADER = "id,score,name,at,ok\n"


def _good(i: int) -> str:
    return f"{i},{i / 4},n{i},2010-01-{1 + i % 28:02d}T09:00:00,{'true' if i % 3 else 'no'}\n"


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------
def reference_load(
    schema: TableSchema, path: str, max_rows: int | None = None
) -> tuple[Table, Exception | None]:
    """Row at a time: the table holding every row before the first bad
    one, and that row's error (None when the file is clean)."""
    table = Table(schema, max_rows=max_rows)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return table, None
        if tuple(header) != schema.column_names:
            return table, SchemaError(
                f"CSV header {header} does not match schema "
                f"{list(schema.column_names)} for table {schema.name!r}"
            )
        while True:
            line = reader.line_num + 1
            raw = next(reader, None)
            if raw is None:
                return table, None
            try:
                table.insert(_reference_row(schema, raw, line))
            except IntegrityError as exc:
                return table, exc


def _reference_row(schema: TableSchema, raw: list[str], line: int) -> tuple:
    where = f"table {schema.name!r} line {line}"
    if len(raw) != schema.arity():
        raise IntegrityError(f"{where}: expects {schema.arity()} values, got {len(raw)}")
    values = []
    for col, cell in zip(schema.columns, raw):
        try:
            values.append(col.ctype.parse(cell))
        except ValueError:
            raise IntegrityError(
                f"{where}: column {schema.name}.{col.name} expects "
                f"{col.ctype.value}, got {cell!r}"
            ) from None
    for col, value in zip(schema.columns, values):
        if value is None and not col.nullable:
            raise IntegrityError(f"column {schema.name}.{col.name} is NOT NULL")
        if not col.ctype.validate(value):
            raise IntegrityError(
                f"column {schema.name}.{col.name} expects "
                f"{col.ctype.value}, got {type(value).__name__}: {value!r}"
            )
    return tuple(values)


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def typed(rows) -> list[tuple]:
    return [tuple((type(v), v) for v in row) for row in rows]


@pytest.fixture
def tables_built(monkeypatch):
    """Every Table the loaders construct, so a failed load's landed
    prefix can be read."""
    built: list[Table] = []

    class Recorded(Table):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(csvio, "Table", Recorded)
    return built


def _write_extract(directory, body: str) -> str:
    """A one-table database directory whose ``T.csv`` is ``body``."""
    db = Database("d")
    db.create_table(SCHEMA)
    save_database(db, str(directory))
    path = os.path.join(directory, "T.csv")
    with open(path, "w", newline="") as fh:
        fh.write(body)
    return path


def _outcome(call, built: list[Table]):
    """(error class, message, landed rows) of one loader call."""
    del built[:]
    try:
        result = call()
    except Exception as exc:  # the class is what is compared
        landed = typed(built[-1].rows()) if built else None
        return type(exc), str(exc), landed
    rows = result.table("T").rows() if hasattr(result, "table") else result.rows()
    return None, None, typed(rows)


def assert_loaders_agree(tmp_path, built, body: str, *, max_rows: int | None = None):
    path = _write_extract(tmp_path, body)
    table, error = reference_load(SCHEMA, path, max_rows)
    head = (None, None) if error is None else (type(error), str(error))
    expected = (*head, typed(table.rows()))
    assert _outcome(lambda: read_table_csv(SCHEMA, path, max_rows=max_rows), built) == expected
    assert _outcome(lambda: load_database(str(tmp_path), max_rows=max_rows), built) == expected
    if max_rows is None:
        # the sqlite build registers a table only once it is complete, so
        # only the error (or the loaded rows) is a contract there
        got = _outcome(lambda: open_sql_database(str(tmp_path), None), built)
        assert got[:2] == expected[:2]
        if error is None:
            assert got[2] == expected[2]
    return error, len(table)


# ----------------------------------------------------------------------
# clean extracts
# ----------------------------------------------------------------------
def test_tiny_world_loads_identically(tmp_path):
    world = simulate(SimulationConfig.tiny(seed=3)).db
    save_database(world, str(tmp_path))
    loaded = load_database(str(tmp_path))
    sql = open_sql_database(str(tmp_path), None)
    for original in world.tables():
        schema = original.schema
        path = os.path.join(tmp_path, f"{schema.name}.csv")
        reference, error = reference_load(schema, path)
        assert error is None
        expected = typed(reference.rows())
        assert expected == typed(original.rows())
        assert typed(loaded.table(schema.name).rows()) == expected
        assert typed(read_table_csv(schema, path).rows()) == expected
        assert typed(sql.table(schema.name).rows()) == expected
    sql.close()


def test_extract_spanning_batches_loads_identically(tmp_path, tables_built):
    body = HEADER + "".join(_good(i) for i in range(2 * _BATCH_ROWS + 7))
    assert assert_loaders_agree(tmp_path, tables_built, body) == (None, 2 * _BATCH_ROWS + 7)


# ----------------------------------------------------------------------
# hostile corpus
# ----------------------------------------------------------------------
HOSTILE = {
    "null_in_not_null": HEADER + _good(1) + ",1.5,a,,\n",
    "bad_int": HEADER + _good(1) + "x1,1.5,a,,\n",
    "bad_float": HEADER + _good(1) + "2,1.2.3,a,,\n",
    "bad_date": HEADER + _good(1) + "2,1.5,a,2010-13-45,\n",
    "bad_bool": HEADER + _good(1) + "2,1.5,a,,maybe\n",
    "short_row": HEADER + _good(1) + "2,1.5\n",
    "long_row": HEADER + _good(1) + "2,1.5,a,,true,EXTRA\n",
    "blank_line": HEADER + _good(1) + "\n" + _good(2),
    "empty_file": "",
    "header_only": HEADER,
    "bad_header": "id,score,nom,at,ok\n" + _good(1),
    "quoted_comma_and_newline": HEADER
    + '3,0.5,"a, b",,t\n4,,"two\nlines",,F\n5,,"three\r\nmore\nlines",,0\n'
    + "6,,x,,perhaps\n",
    "parse_error_beats_earlier_null_in_same_row": HEADER + ",x,a,,\n",
    "earlier_column_wins_in_same_row": HEADER + "x,y,a,,\n",
    "null_before_parse_error_in_later_row": HEADER + ",1,a,,\n2,zz,a,,\n",
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_extract(tmp_path, tables_built, case):
    error, _ = assert_loaders_agree(tmp_path, tables_built, HOSTILE[case])
    assert (error is None) == (case in ("empty_file", "header_only"))


def test_messages_name_table_column_and_line(tmp_path):
    path = _write_extract(tmp_path, HOSTILE["quoted_comma_and_newline"])
    with pytest.raises(IntegrityError) as caught:
        read_table_csv(SCHEMA, path)
    assert str(caught.value) == (
        "table 'T' line 8: column T.ok expects bool, got 'perhaps'"
    )


# ----------------------------------------------------------------------
# a bad row at the edges of a batch
# ----------------------------------------------------------------------
BAD_ROWS = {
    "null": ",1.0,a,,\n",
    "bad_int": "1.5,1.0,a,,\n",
    "arity": "1,1.0\n",
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize(
    "at", [0, _BATCH_ROWS // 2, _BATCH_ROWS - 1, _BATCH_ROWS, _BATCH_ROWS + 100]
)
def test_bad_row_first_mid_and_last_in_batch(tmp_path, tables_built, kind, at):
    rows = [_good(i) for i in range(_BATCH_ROWS + 200)]
    rows[at] = BAD_ROWS[kind]
    error, landed = assert_loaders_agree(tmp_path, tables_built, HEADER + "".join(rows))
    assert isinstance(error, IntegrityError) and landed == at


# ----------------------------------------------------------------------
# the row cap
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_max_rows_around_the_row_count(tmp_path, tables_built, delta):
    n = _BATCH_ROWS + 3
    body = HEADER + "".join(_good(i) for i in range(n))
    error, landed = assert_loaders_agree(tmp_path, tables_built, body, max_rows=n + delta)
    assert isinstance(error, CapacityError) == (delta < 0)
    assert landed == min(n, n + delta)


def test_cap_reached_on_an_invalid_row_reports_the_row(tmp_path, tables_built):
    body = HEADER + _good(1) + _good(2) + ",1.0,a,,\n"
    error, _ = assert_loaders_agree(tmp_path, tables_built, body, max_rows=2)
    assert type(error) is IntegrityError and "NOT NULL" in str(error)


def test_bool_cells_round_trip(tmp_path):
    db = Database("d")
    db.create_table(SCHEMA).insert_many(
        [(1, None, None, None, True), (2, 0.5, "", dt.datetime(2010, 1, 1), False)]
    )
    save_database(db, str(tmp_path))
    assert load_database(str(tmp_path)).table("T").rows() == [
        (1, None, None, None, True),
        (2, 0.5, None, dt.datetime(2010, 1, 1), False),
    ]
