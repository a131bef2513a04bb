"""Row storage with delta-maintained hash indexes and distinct projections.

A :class:`Table` stores rows as plain tuples in insertion order.  Five
access structures matter for the auditing workload:

* **column arrays** (``column -> [values in row order]``), a columnar
  mirror of the row store built lazily per column; bulk projections and
  index builds read a few flat lists instead of touching every row tuple,
  which is what the set-at-a-time (batch semijoin) evaluation path wants;
* **hash indexes** (``value -> [row positions]``) on single columns, built
  lazily the first time a column is used as a join key or point-predicate
  probe;
* **distinct projections** (``set of value tuples``), which implement the
  paper's *Reducing Result Multiplicity* optimization (Section 3.2.1): the
  support of a path only needs the distinct combinations of the attributes
  the path touches, so each tuple variable is reduced to a deduplicated
  projection before joining;
* **projection indexes** (``join key -> [distinct projected tuples]``),
  hash indexes *over* a distinct projection, which let the executor run
  index-nested-loop joins when the probe side is tiny (the streaming
  per-access point queries); and
* **key structures** — the NULL-free key set of some columns
  (:meth:`key_set`), the per-key minimum or maximum of a column
  (:meth:`key_extremum`), and the per-key list of row positions
  (:meth:`key_groups`).  They answer a join whose columns are dropped
  right after it without fanning out: "is there a row with this key?",
  "is there one whose column beats this value?", and "which rows carry
  this key?" (any column, read from the column arrays at the positions).

Projection indexes and key structures share one key convention
(:meth:`_key_of`): a bare value for one key column, a value tuple for
several, and a key holding a NULL is left out (NULL never joins).  Hash
and projection indexes also expose **batch probes** (:meth:`lookup_many`,
:meth:`projection_probe`) so the executor can resolve a whole set of
binding values in one call — the storage-level primitive behind batch
semijoin evaluation.

Delta maintenance contract
--------------------------
All these structures are built lazily and then **maintained in place** on
append.  The one write path is :meth:`insert_many` (:meth:`insert` is its
one-row case; a CSV load hands it small batches): it checks a batch a
column at a time (:func:`check_rows`), appends the rows before the first
bad one, and patches every already-built structure with just those rows
(O(#cached structures) per row), so a streaming workload never pays a
rebuild.  Full invalidation happens only on destructive operations —
:meth:`clear` — which drop every cached structure.  The invariants are
exercised by ``tests/test_property_incremental.py``, which checks that a
delta-maintained table is indistinguishable from a freshly rebuilt one
after any interleaving of inserts, rejected batches and reads.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, islice
from typing import Any

from .errors import CapacityError, IntegrityError, UnknownColumnError
from .schema import TableSchema

#: Rows per batch of a CSV load or ``insert_many``: small, so a batch's
#: temporaries die young (docs/architecture.md, "Loading an extract").
_BATCH_ROWS = 512


def tuple_getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """A fast ``row -> (row[p] for p in positions)`` projector.

    ``operator.itemgetter`` runs the extraction in C but returns a bare
    scalar for a single position; wrap that case so callers always get
    tuples.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return operator.itemgetter(*positions)


def coerce_row(schema: TableSchema, row: Sequence[Any] | Mapping[str, Any]) -> tuple:
    """Normalize a positional or mapping row to a schema-ordered tuple.

    Mapping rows fill absent columns with ``None`` and reject unknown
    keys; positional rows must match the schema arity exactly.
    """
    if isinstance(row, Mapping):
        values = [row.get(c.name) for c in schema.columns]
        if len(values) - values.count(None) < len(row):  # a key is no column
            extra = set(row) - set(schema.column_names)
            if extra:
                raise UnknownColumnError(schema.name, sorted(extra)[0])
        return tuple(values)
    tup = tuple(row)
    if len(tup) != schema.arity():
        raise IntegrityError(
            f"table {schema.name!r} expects {schema.arity()} values, got {len(tup)}"
        )
    return tup


def batched(rows: Iterable[Any]) -> Iterator[Sequence[Any]]:
    """``rows`` in lists of at most ``_BATCH_ROWS`` (a short one as is)."""
    if isinstance(rows, (list, tuple)) and len(rows) <= _BATCH_ROWS:
        yield rows
        return
    it = iter(rows)
    while batch := list(islice(it, _BATCH_ROWS)):
        yield batch


def check_rows(
    schema: TableSchema, rows: Sequence[Sequence[Any] | Mapping[str, Any]]
) -> tuple[Sequence[tuple], Exception | None]:
    """Coerce and validate rows a column at a time: the tuples of the rows
    before the first bad one, and its error (None if all are good).  Both
    backends check here, so SQLite's lax affinity never admits a row the
    in-memory table rejects; per-value checks only locate a bad row.
    """
    error: Exception | None = None
    tuples: Sequence[tuple] = rows  # type: ignore[assignment]
    if set(map(type, rows)) != {tuple} or set(map(len, rows)) != {schema.arity()}:
        tuples = []
        for row in rows:
            try:
                tuples.append(coerce_row(schema, row))
            except Exception as exc:
                error = exc
                break
    # columns sliced from one flat list: zip(*rows) allocates an iterator per row
    bad, flat = len(tuples), list(chain.from_iterable(tuples))
    for i, col in enumerate(schema.columns):
        values = flat[i :: len(schema.columns)]
        if not col.nullable and None in values[:bad]:
            bad = values.index(None)
            error = IntegrityError(f"column {schema.name}.{col.name} is NOT NULL")
        if not col.value_types.issuperset(map(type, values)):
            for at, value in enumerate(values[:bad]):
                if not col.ctype.validate(value):
                    bad, error = at, IntegrityError(
                        f"column {schema.name}.{col.name} expects "
                        f"{col.ctype.value}, got {type(value).__name__}: {value!r}"
                    )
                    break
    return tuples[:bad], error


class Table:
    """A mutable, in-memory relation conforming to a :class:`TableSchema`.

    ``max_rows`` (keyword-only) caps the table's size: an insert that
    would exceed it raises :class:`CapacityError`.  The audit CLI uses
    this to make the in-memory backend's RAM ceiling explicit — logs
    beyond the cap must be audited via the SQLite backend.
    """

    def __init__(self, schema: TableSchema, *, max_rows: int | None = None) -> None:
        self.schema = schema
        self.max_rows = max_rows
        self._rows: list[tuple] = []
        #: column -> [values in row order] (the columnar mirror)
        self._column_store: dict[str, list[Any]] = {}
        self._indexes: dict[str, dict[Any, list[int]]] = {}
        self._distinct_cache: dict[tuple[str, ...], set[tuple]] = {}
        #: (attrs, key_attrs) -> {key -> [distinct projected tuples]}
        self._proj_index_cache: dict[
            tuple[tuple[str, ...], tuple[str, ...]], dict[Any, list[tuple]]
        ] = {}
        #: column names -> row projector (schema-only, so never invalidated)
        self._row_getters: dict[tuple[str, ...], Callable[[tuple], tuple]] = {}
        #: key columns -> non-NULL keys (bare values for one column)
        self._key_sets: dict[tuple[str, ...], set] = {}
        #: (key columns, column, largest) -> {key -> min/max of column}
        self._extrema: dict[tuple[tuple[str, ...], str, bool], dict] = {}
        #: key columns -> {key -> row positions}
        self._key_groups: dict[tuple[str, ...], dict[Any, tuple[int, ...]]] = {}
        #: every cached structure an append patches (cleared, never rebound)
        self._structures: tuple[dict, ...] = (
            self._column_store, self._indexes, self._distinct_cache,
            self._proj_index_cache, self._key_sets, self._extrema, self._key_groups,
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row, given positionally or as a column->value mapping
        (the one-row case of :meth:`insert_many`)."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> int:
        """Insert rows (positional or column->value mappings); returns the
        number inserted.  The rows before the first bad one land, then its
        :class:`IntegrityError` (arity, type, NULL) or :class:`CapacityError`
        (past ``max_rows``) is raised.  Structures are delta-maintained."""
        n, it = 0, iter(rows)  # not batched(): a generator slows one-row inserts
        while batch := list(islice(it, _BATCH_ROWS)):
            good, error = check_rows(self.schema, batch)
            if self.max_rows is not None and len(self._rows) + len(good) > self.max_rows:
                good = good[: self.max_rows - len(self._rows)]
                error = CapacityError(
                    f"table {self.schema.name!r} is capped at {self.max_rows} rows; "
                    "audit larger logs with the SQLite backend (--backend sqlite)"
                )
            if any(self._structures):  # a fresh table (a load) has none
                for pos, tup in enumerate(good, len(self._rows)):
                    self._apply_insert(pos, tup)
            self._rows.extend(good)
            n += len(good)
            if error is not None:
                raise error
            if len(batch) < _BATCH_ROWS:
                break  # the input is spent
        return n

    def clear(self) -> None:
        """Remove all rows (destructive: drops every cached structure)."""
        self._rows.clear()
        for structure in self._structures:
            structure.clear()

    def _apply_insert(self, pos: int, tup: tuple) -> None:
        """Patch every cached structure with one appended row (delta insert)."""
        col_idx = self.schema.column_index
        for column, values in self._column_store.items():
            values.append(tup[col_idx(column)])
        for column, mapping in self._indexes.items():
            mapping.setdefault(tup[col_idx(column)], []).append(pos)
        # Distinct projections first: a projection index gains an entry
        # only when its projection gains a tuple.
        fresh: dict[tuple[str, ...], tuple | None] = {}
        for attrs, cache in self._distinct_cache.items():
            proj = self.row_getter(attrs)(tup)
            if proj in cache:
                fresh[attrs] = None
            else:
                cache.add(proj)
                fresh[attrs] = proj
        for (attrs, key_attrs), index in self._proj_index_cache.items():
            proj = fresh[attrs]
            if proj is not None and (key := self._key_of(key_attrs, tup)) is not None:
                index.setdefault(key, []).append(proj)
        for attrs, keys in self._key_sets.items():
            key = self._key_of(attrs, tup)
            if key is not None:
                keys.add(key)
        for (attrs, column, largest), best in self._extrema.items():
            key, value = self._key_of(attrs, tup), tup[col_idx(column)]
            if key is None or value is None:
                continue
            current = best.get(key)
            if current is None or (value > current if largest else value < current):
                best[key] = value
        for attrs, groups in self._key_groups.items():
            key = self._key_of(attrs, tup)
            if key is not None:
                groups[key] = groups.get(key, ()) + (pos,)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def rows(self) -> list[tuple]:
        """All rows (the live list; treat as read-only)."""
        return self._rows

    def row(self, position: int) -> tuple:
        """The row tuple at a storage position."""
        return self._rows[position]

    def row_getter(self, columns: Sequence[str]) -> Callable[[tuple], tuple]:
        """A cached ``row -> (row[c] for c in columns)`` projector.

        Lets callers that hold only column *names* (cached plans, prepared
        point probes) project stored rows without carrying schema offsets
        of their own: the offsets live with the table they belong to.
        """
        key = tuple(columns)
        getter = self._row_getters.get(key)
        if getter is None:
            getter = tuple_getter([self.schema.column_index(c) for c in key])
            self._row_getters[key] = getter
        return getter

    def column_array(self, column: str) -> list[Any]:
        """One column's values in row order (the live columnar array).

        Built lazily on first access, then delta-maintained: every
        :meth:`insert` appends the new value in place.  Treat as
        read-only — it is the cached columnar mirror of the row store.
        """
        if column not in self._column_store:
            idx = self.schema.column_index(column)
            self._column_store[column] = [r[idx] for r in self._rows]
        return self._column_store[column]

    def column_values(self, column: str) -> list[Any]:
        """All values of one column, in row order (a fresh copy)."""
        return list(self.column_array(column))

    def distinct_values(self, column: str) -> set:
        """Distinct values of one column (NULLs excluded), read off the
        column array — or off its 1-column projection, if one is cached."""
        cached = self._distinct_cache.get((column,))
        values = {t[0] for t in cached} if cached else set(self.column_array(column))
        return values - {None} if None in values else values

    def ndv(self, column: str) -> int:
        """Number of distinct non-NULL values (optimizer statistic), read
        off the column's distinct projection."""
        d = self.project_distinct((column,))
        return len(d) - ((None,) in d)

    def index_for(self, column: str) -> dict[Any, list[int]]:
        """Hash index ``value -> [row positions]``, built lazily and cached."""
        if column not in self._indexes:
            mapping: dict[Any, list[int]] = {}
            for pos, value in enumerate(self.column_array(column)):
                mapping.setdefault(value, []).append(pos)
            self._indexes[column] = mapping
        return self._indexes[column]

    def project_distinct(self, columns: Sequence[str]) -> set[tuple]:
        """Distinct combinations of ``columns``, cached.

        This is the engine-level realization of the paper's multiplicity
        reduction: ``SELECT DISTINCT a, b FROM T`` evaluated once, reused
        across all candidate paths that touch the same attributes, and
        delta-maintained across appends.
        """
        key = tuple(columns)
        if key not in self._distinct_cache:
            arrays = [self.column_array(c) for c in key]
            self._distinct_cache[key] = set(zip(*arrays)) if arrays else set()
        return self._distinct_cache[key]

    def projection_index(
        self, attrs: Sequence[str], key_attrs: Sequence[str]
    ) -> dict[Any, list[tuple]]:
        """Hash index over ``project_distinct(attrs)`` keyed by ``key_attrs``
        (keys as in :meth:`key_set`: bare values for one key column).

        Maps each non-NULL key to the list of distinct projected tuples
        carrying it.  The executor probes this for index-nested-loop joins
        when the other side of a join is tiny (e.g. a single log row
        selected by a point predicate), so a per-access explanation query
        touches O(matches) rows instead of hashing the whole relation.
        Built lazily; delta-maintained on append.
        """
        cache_key = (tuple(attrs), tuple(key_attrs))
        index = self._proj_index_cache.get(cache_key)
        if index is None:
            distinct = self.project_distinct(attrs)
            key_of = operator.itemgetter(*map(cache_key[0].index, cache_key[1]))
            index = {}
            for key, proj in _non_null(map(key_of, distinct), distinct, cache_key[1]):
                index.setdefault(key, []).append(proj)
            self._proj_index_cache[cache_key] = index
        return index

    def projection_index_scalar(
        self, attrs: Sequence[str], key_attr: str
    ) -> dict[Any, list[tuple]]:
        # A delegate, not an API: perfbench's traced run patches this method
        # by name (perfbench/layers.py), so it stays until that tracer reads
        # spans from the library.  Nothing in the library calls it.
        return self.projection_index(attrs, (key_attr,))

    # ------------------------------------------------------------------
    # key structures (a join whose columns are dropped right after it)
    # ------------------------------------------------------------------
    def key_set(self, attrs: Sequence[str]) -> set:
        """The non-NULL keys of ``attrs``: bare values for one column,
        value tuples for several (a tuple holding a NULL is left out —
        NULL never joins).

        The probe set of a semijoin: "does some row carry this key?" is
        one membership test.  Built lazily from :meth:`project_distinct`;
        delta-maintained on append.
        """
        key = tuple(attrs)
        keys = self._key_sets.get(key)
        if keys is None:
            distinct = self.project_distinct(key)
            if len(key) == 1:
                keys = {t[0] for t in distinct}
                keys.discard(None)
            else:
                keys = {t for t in distinct if None not in t}
            self._key_sets[key] = keys
        return keys

    def key_extremum(
        self, attrs: Sequence[str], column: str, largest: bool
    ) -> dict[Any, Any]:
        """``key -> min`` (``max`` when ``largest``) of ``column`` over the
        rows whose key (as in :meth:`key_set`) and ``column`` are non-NULL.

        "Does some row with this key have ``column < v``?" is ``min < v``,
        so an inequality against a dropped column costs one lookup.  Built
        lazily from the columnar mirror; delta-maintained on append.
        """
        cache_key = (tuple(attrs), column, largest)
        best = self._extrema.get(cache_key)
        if best is None:
            best = {}
            get = best.get
            for key, value in self._keyed(cache_key[0], column):
                current = get(key)
                if current is None or (value > current if largest else value < current):
                    best[key] = value
            self._extrema[cache_key] = best
        return best

    def key_groups(self, attrs: Sequence[str]) -> dict[Any, tuple[int, ...]]:
        """``key -> row positions`` over the rows whose key (as in
        :meth:`key_set`) is non-NULL — e.g. the accesses of each
        ``(Patient, User)`` pair.  Built lazily from the columnar mirror;
        delta-maintained on append.  A group is a tuple (the cyclic
        garbage collector untracks it; a list per key it would scan on
        every full collection), so an append rebuilds the key's group.
        """
        key = tuple(attrs)
        groups = self._key_groups.get(key)
        if groups is None:
            groups = {}
            get = groups.get
            for k, pos in self._keyed(key):
                groups[k] = get(k, ()) + (pos,)
            self._key_groups[key] = groups
        return groups

    def _keyed(self, attrs: tuple[str, ...], column: str = "") -> Iterator[tuple]:
        """``(key, value)`` per row — the value of ``column``, else the
        row's position — rows with a NULL key or value left out (tested
        row by row only when a column read holds a NULL)."""
        arrays = [self.column_array(a) for a in attrs]
        values = self.column_array(column) if column else range(len(self._rows))
        keys: Iterable = arrays[0] if len(attrs) == 1 else zip(*arrays)
        if any(None in a for a in arrays) or (column and None in values):
            return _non_null(keys, values, attrs)
        return zip(keys, values)

    def _key_of(self, attrs: tuple[str, ...], row: tuple) -> Any:
        """One row's key as the key structures store it, None if NULL."""
        key = self.row_getter(attrs)(row)
        if None in key:
            return None
        return key[0] if len(attrs) == 1 else key

    def lookup(self, column: str, value: Any) -> list[tuple]:
        """Rows where ``column == value`` (via the hash index)."""
        return [self._rows[p] for p in self.index_for(column).get(value, ())]

    # ------------------------------------------------------------------
    # batch probes (the storage primitive behind semijoin evaluation)
    # ------------------------------------------------------------------
    def lookup_many(self, column: str, values: Iterable[Any]) -> list[tuple]:
        """Rows where ``column`` matches any probe value (full multiplicity,
        grouped by probe value in first-seen order; NULLs never match).

        The whole batch resolves with one C-level keys-view set
        intersection against the hash index (NULL discarded afterwards —
        the index does carry a NULL bucket).
        """
        index, rows = self.index_for(column), self._rows
        if not isinstance(values, (set, frozenset)):
            values = dict.fromkeys(values)  # dedup, first-seen order kept
        hits = index.keys() & values
        hits.discard(None)
        return [rows[p] for v in values if v in hits for p in index[v]]

    def projection_probe(
        self, attrs: Sequence[str], key_attrs: Sequence[str], values: Iterable[Any]
    ) -> dict[Any, list[tuple]]:
        """Batch probe of :meth:`projection_index`: ``key -> [distinct
        projected tuples]`` for every probe key with a match, by one set
        intersection for the whole batch.  NULL-bearing probe keys never
        match (the index has no such key).
        """
        index = self.projection_index(attrs, key_attrs)
        if not isinstance(values, (set, frozenset)):
            values = set(values)
        return {v: index[v] for v in index.keys() & values}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Table {self.schema.name} rows={len(self._rows)}>"


def _non_null(
    keys: Iterable, values: Iterable, key_attrs: Sequence[str]
) -> Iterator[tuple]:
    """``(key, value)`` pairs, those with a NULL in either left out; a key
    is a bare value for one key column, a tuple for several."""
    pairs = zip(keys, values)
    if len(key_attrs) == 1:
        return ((k, v) for k, v in pairs if k is not None and v is not None)
    return ((k, v) for k, v in pairs if None not in k and v is not None)
