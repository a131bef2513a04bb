"""CSV import/export for tables and whole databases.

The paper's study ships de-identified CSV extracts of the CareWeb tables;
this module provides the equivalent interchange format so users can load
their own access logs and event tables into the auditing system, and so
the synthetic generator can persist datasets for repeated experiments.

Layout of a database directory::

    mydb/
      _schema.json          # table definitions (names, types, keys)
      Log.csv
      Appointments.csv
      ...
"""

from __future__ import annotations

import csv
import json
import os
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import suppress
from itertools import chain, islice
from typing import Any

from .database import Database
from .errors import IntegrityError, SchemaError
from .schema import Column, ColumnType, ForeignKey, TableSchema
from .table import _BATCH_ROWS, Table


def write_table_csv(table: Table, path: str) -> int:
    """Write one table to ``path``; returns the number of rows written."""
    schema = table.schema
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.column_names)
        for row in table.rows():
            writer.writerow(
                [col.ctype.render(v) for col, v in zip(schema.columns, row)]
            )
    return len(table)


def read_csv_batches(schema: TableSchema, path: str) -> Iterator[list[tuple]]:
    """Stream a CSV (with header) as small batches of row tuples, a column
    at a time through its type's parser.  A record of the wrong length or
    a malformed cell raises :class:`IntegrityError` naming table, column
    and line once the rows before it are yielded; NOT NULL and types are
    the consumer's to check (:func:`~repro.db.table.check_rows`)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        if tuple(header) != schema.column_names:
            raise SchemaError(
                f"CSV header {header} does not match schema "
                f"{list(schema.column_names)} for table {schema.name!r}"
            )
        parsers = [col.ctype.parser for col in schema.columns]
        first_line = reader.line_num + 1
        # tuples, which the collector untracks (csv's lists would survive it)
        while raw := list(map(tuple, islice(reader, _BATCH_ROWS))):
            bad, problem, width = len(raw), "", len(parsers)
            if set(map(len, raw)) != {width}:
                bad = next(i for i, cells in enumerate(raw) if len(cells) != width)
                problem = f"expects {width} values, got {len(raw[bad])}"
            flat, columns = list(chain.from_iterable(raw[:bad])), []
            for i, (col, parse) in enumerate(zip(schema.columns, parsers)):
                values = _parse_column(parse, flat[i::width])
                if len(values) < bad:
                    bad, where = len(values), f"column {schema.name}.{col.name}"
                    problem = f"{where} expects {col.ctype.value}, got {raw[bad][i]!r}"
                columns.append(values)
            if bad:
                yield list(zip(*columns))
            if problem:  # a quoted cell keeps the line breaks csv.reader counted
                before = "\0".join(cell for cells in raw[:bad] for cell in cells)
                line = first_line + bad + len(re.findall(r"\r\n?|\n", before))
                raise IntegrityError(f"table {schema.name!r} line {line}: {problem}")
            first_line = reader.line_num + 1


def _parse_column(parse: Callable[[str], Any], cells: list[str]) -> Sequence[Any]:
    """A column's cells parsed (empty -> None) up to the first malformed
    one: the result is short exactly when a cell is malformed."""
    if "" in cells:
        parsed: Iterable[Any] = (None if cell == "" else parse(cell) for cell in cells)
    elif parse is str:
        return cells
    else:
        parsed = map(parse, cells)
    values: list[Any] = []
    with suppress(ValueError):  # extend keeps the cells parsed so far
        values.extend(parsed)
    return values


def read_table_csv(
    schema: TableSchema, path: str, *, max_rows: int | None = None
) -> Table:
    """Load a CSV (with header) into a new table conforming to ``schema``.

    ``max_rows`` caps the table (see :class:`Table`); exceeding it raises
    :class:`~repro.db.errors.CapacityError` mid-load.
    """
    table = Table(schema, max_rows=max_rows)
    for batch in read_csv_batches(schema, path):
        table.insert_many(batch)
    return table


def _schema_to_json(schema: TableSchema) -> dict:
    return {
        "name": schema.name,
        "columns": [
            {"name": c.name, "type": c.ctype.value, "nullable": c.nullable}
            for c in schema.columns
        ],
        "primary_key": list(schema.primary_key),
        "foreign_keys": [
            {"column": fk.column, "ref_table": fk.ref_table, "ref_column": fk.ref_column}
            for fk in schema.foreign_keys
        ],
    }


def _schema_from_json(blob: dict) -> TableSchema:
    return TableSchema(
        name=blob["name"],
        columns=tuple(
            Column(c["name"], ColumnType(c["type"]), c.get("nullable", True))
            for c in blob["columns"]
        ),
        primary_key=tuple(blob.get("primary_key", [])),
        foreign_keys=tuple(
            ForeignKey(fk["column"], fk["ref_table"], fk["ref_column"])
            for fk in blob.get("foreign_keys", [])
        ),
    )


def save_database(db: Database, directory: str) -> None:
    """Persist every table of ``db`` under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "name": db.name,
        "tables": [_schema_to_json(t.schema) for t in db.tables()],
    }
    with open(os.path.join(directory, "_schema.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    for table in db.tables():
        write_table_csv(table, os.path.join(directory, f"{table.schema.name}.csv"))


def read_manifest(directory: str) -> tuple[str, list[TableSchema]]:
    """The database name and table schemas of a saved database directory."""
    with open(os.path.join(directory, "_schema.json")) as fh:
        manifest = json.load(fh)
    name = manifest.get("name", "db")
    return name, [_schema_from_json(blob) for blob in manifest["tables"]]


def load_database(directory: str, *, max_rows: int | None = None) -> Database:
    """Load a database previously written by :func:`save_database`.

    ``max_rows`` caps every table (the in-memory backend's explicit RAM
    ceiling — the CLI's ``--max-table-rows``); a directory whose log
    exceeds it raises :class:`~repro.db.errors.CapacityError` and should
    be audited with ``--backend sqlite`` instead.
    """
    name, schemas = read_manifest(directory)
    db = Database(name)
    # two passes so FK targets exist before FK owners are validated
    for schema in schemas:
        db.add_table(Table(schema, max_rows=max_rows))
    for schema in schemas:
        path = os.path.join(directory, f"{schema.name}.csv")
        target = db.table(schema.name)
        for batch in read_csv_batches(schema, path):
            target.insert_many(batch)
    return db
