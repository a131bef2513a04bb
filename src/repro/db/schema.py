"""Schema objects: column types, columns, foreign keys, table schemas.

The catalog model is intentionally close to what the paper's mining
algorithms consume (Section 3.1): the set of *edges* usable in an
explanation path is derived from key/foreign-key relationships declared
here, plus administrator-specified relationships and permitted self-joins
(declared on :class:`repro.core.graph.SchemaGraph`).
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from .errors import SchemaError, UnknownColumnError


class ColumnType(enum.Enum):
    """Supported column value domains.

    The engine is dynamically typed at storage level (rows hold Python
    objects); the declared type drives CSV (de)serialization, validation,
    and optimizer statistics.
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"
    DATE = "date"
    BOOL = "bool"

    def parse(self, text: str) -> Any:
        """Parse a CSV cell: ``""`` is NULL, a malformed cell a ValueError."""
        return None if text == "" else self.parser(text)

    @property
    def parser(self) -> Callable[[str], Any]:
        """The parser of a non-empty cell (loaders pick it once per column)."""
        return _DOMAINS[self][0]

    def render(self, value: Any) -> str:
        """Serialize a Python value of this type into a CSV cell."""
        if value is None:
            return ""
        if self is ColumnType.DATE:
            return value.isoformat()
        if self is ColumnType.BOOL:
            return "true" if value else "false"
        return str(value)

    def validate(self, value: Any) -> bool:
        """Return True when ``value`` is acceptable for this column type:
        NULL or an instance of its value types, and no bool for a number."""
        types = _DOMAINS[self][1]
        return type(value) in types or (
            isinstance(value, tuple(types)) and not isinstance(value, bool)
        )


_BOOL_SPELLINGS = dict.fromkeys(("1", "true", "t", "yes"), True)
_BOOL_SPELLINGS.update(dict.fromkeys(("0", "false", "f", "no"), False))


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_SPELLINGS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a bool: {text!r}") from None


#: Per column type: the parser of a non-empty CSV cell, and the types its
#: values have, NULL's included (see :meth:`ColumnType.validate`).
_DOMAINS: dict[ColumnType, tuple[Callable[[str], Any], frozenset[type]]] = {
    ColumnType.INT: (int, frozenset({int, type(None)})),
    ColumnType.FLOAT: (float, frozenset({int, float, type(None)})),
    ColumnType.STR: (str, frozenset({str, type(None)})),
    ColumnType.DATE: (_dt.datetime.fromisoformat, frozenset({_dt.datetime, type(None)})),
    ColumnType.BOOL: (_parse_bool, frozenset({bool, type(None)})),
}


@dataclass(frozen=True)
class Column:
    """A single named, typed column."""

    name: str
    ctype: ColumnType = ColumnType.STR
    nullable: bool = True
    #: the value types of ``ctype`` (a batch check's fast path)
    value_types: frozenset[type] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")
        object.__setattr__(self, "value_types", _DOMAINS[self.ctype][1])


@dataclass(frozen=True)
class ForeignKey:
    """A declared key/foreign-key relationship.

    ``column`` in the owning table references ``ref_table.ref_column``.
    These relationships are the primary source of join edges for
    explanation-template mining (paper Section 3.1, assumption 2).
    """

    column: str
    ref_table: str
    ref_column: str

    def __str__(self) -> str:
        return f"{self.column} -> {self.ref_table}.{self.ref_column}"


@dataclass(frozen=True)
class TableSchema:
    """An immutable table definition.

    Parameters
    ----------
    name:
        Table name; must be a valid identifier.
    columns:
        Ordered column definitions; names must be unique.
    primary_key:
        Names of the primary-key columns (possibly empty for logs that
        use a surrogate id column declared like any other column).
    foreign_keys:
        Declared references into other tables.
    """

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...] = ()
    foreign_keys: tuple[ForeignKey, ...] = ()
    _index: Mapping[str, int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name: {self.name!r}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}: {names}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        for pk in self.primary_key:
            if pk not in self._index:
                raise SchemaError(f"primary key column {pk!r} not in table {self.name!r}")
        for fk in self.foreign_keys:
            if fk.column not in self._index:
                raise SchemaError(f"foreign key column {fk.column!r} not in table {self.name!r}")

    @staticmethod
    def build(
        name: str,
        columns: Sequence[Column | tuple[str, ColumnType] | str],
        primary_key: Iterable[str] = (),
        foreign_keys: Iterable[ForeignKey] = (),
    ) -> "TableSchema":
        """Convenience constructor accepting lightweight column specs.

        ``columns`` items may be :class:`Column` instances, ``(name, type)``
        pairs, or bare names (typed STR).
        """
        cols: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                cols.append(spec)
            elif isinstance(spec, tuple):
                cols.append(Column(spec[0], spec[1]))
            else:
                cols.append(Column(spec))
        return TableSchema(
            name=name,
            columns=tuple(cols),
            primary_key=tuple(primary_key),
            foreign_keys=tuple(foreign_keys),
        )

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(c.name for c in self.columns)

    def has_column(self, name: str) -> bool:
        """Whether a column of this name exists."""
        return name in self._index

    def column_index(self, name: str) -> int:
        """Position of ``name`` in a stored row tuple."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def column(self, name: str) -> Column:
        """Look up a column definition by name."""
        return self.columns[self.column_index(name)]

    def arity(self) -> int:
        """Number of columns (stored row width)."""
        return len(self.columns)

    def __str__(self) -> str:
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self.columns)
        return f"{self.name}({cols})"
