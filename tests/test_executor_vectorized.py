"""Differential tests: the batch-at-a-time pipeline vs row-at-a-time oracles.

The executor's join pipeline and the table-level batch probes
(``lookup_many`` / ``projection_probe`` over the projection indexes,
keyed by bare values for one key column) replace per-row dict probes with C-level
keys-view set intersections, specialized filter comprehensions, and
``itemgetter`` projections.  Every one of those paths must give exactly
what a row-at-a-time evaluation gives — same multisets of projected rows,
same probe dictionaries — across NULL join keys, mixed-type columns, and
post-ingest delta states, for both multiplicity settings.  The
row-at-a-time side is the nested-loop brute-force reference of
``test_differential_executor`` for queries, and a loop or comprehension
over ``Table.rows()`` for the probes.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.db import (
    AttrRef,
    ColumnType,
    Condition,
    ConjunctiveQuery,
    Database,
    Executor,
    Literal,
    TableSchema,
    TupleVar,
)
from test_differential_executor import (
    CONFIGS,
    VALUE_DOMAIN,
    random_attr,
    random_database,
    random_query,
    reference_distinct_in,
    reference_evaluate,
)


def _mixed_db() -> Database:
    """INT and STR columns side by side, NULLs in both, join keys that
    collide across types only by accident (1 vs "1" must not join)."""
    db = Database("mixed")
    users = db.create_table(
        TableSchema.build(
            "Users",
            [("uid", ColumnType.INT), ("dept", ColumnType.STR)],
        )
    )
    visits = db.create_table(
        TableSchema.build(
            "Visits",
            [("uid", ColumnType.INT), ("ward", ColumnType.STR)],
        )
    )
    users.insert_many(
        [(1, "radiology"), (2, None), (None, "icu"), (3, "icu"), (1, "icu")]
    )
    visits.insert_many(
        [(1, "icu"), (2, "icu"), (None, "er"), (4, "er"), (1, None)]
    )
    return db


def assert_vectorized_matches(db, query, **executor_kw) -> None:
    """The pipeline == the brute-force reference, both multiplicity
    settings."""
    expected = Counter(reference_evaluate(db, query))
    for distinct_reduction in CONFIGS:
        executor = Executor(db, distinct_reduction=distinct_reduction, **executor_kw)
        got = Counter(executor.execute(query).rows)
        assert got == expected, (
            f"pipeline != reference (distinct_reduction="
            f"{distinct_reduction}) for:\n{query}"
        )


def scan_rows(table, column, values) -> list:
    """``lookup_many`` computed row by row: per distinct non-NULL probe
    value in first-seen order, the rows holding it."""
    col = table.schema.column_index(column)
    return [
        row
        for value in dict.fromkeys(values)
        if value is not None
        for row in table.rows()
        if row[col] == value
    ]


def scan_projection(table, attrs, key_attrs) -> dict:
    """``projection_index`` computed row by row: per non-NULL key (a bare
    value for one key column), the set of distinct projected tuples."""
    out: dict = {}
    for row in table.rows():
        named = dict(zip(table.schema.column_names, row))
        key = tuple(named[a] for a in key_attrs)
        if None in key:
            continue
        key = key[0] if len(key) == 1 else key
        out.setdefault(key, set()).add(tuple(named[a] for a in attrs))
    return out


# ----------------------------------------------------------------------
# executor pipeline: random sweep + delta states
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_random_queries_vectorized_matches_rowwise(seed):
    rng = random.Random(42_000 + seed)
    db = random_database(rng)
    for _ in range(8):
        assert_vectorized_matches(db, random_query(rng, db))


@pytest.mark.parametrize("seed", range(6))
def test_random_cartesian_vectorized_matches_rowwise(seed):
    rng = random.Random(43_000 + seed)
    db = random_database(rng)
    for _ in range(4):
        assert_vectorized_matches(
            db, random_query(rng, db, connected=False), allow_cartesian=True
        )


@pytest.mark.parametrize("seed", range(6))
def test_post_ingest_delta_states_stay_identical(seed):
    """Warm every cache with a query, ingest more rows (delta
    maintenance patches indexes in place), re-run: the pipeline must see
    the new rows and still agree with the from-scratch reference."""
    rng = random.Random(44_000 + seed)
    db = random_database(rng)
    queries = [random_query(rng, db) for _ in range(4)]
    for query in queries:  # warm the caches pre-ingest
        assert_vectorized_matches(db, query)
    for name in db.table_names():
        table = db.table(name)
        width = len(table.schema.columns)
        for _ in range(rng.randrange(1, 5)):
            table.insert([rng.choice(VALUE_DOMAIN) for _ in range(width)])
    for query in queries:  # same queries over the delta-maintained caches
        assert_vectorized_matches(db, query)


def test_mixed_type_columns_vectorized_matches_rowwise():
    db = _mixed_db()
    tvars = [TupleVar("U", "Users"), TupleVar("V", "Visits")]
    queries = [
        ConjunctiveQuery.build(
            tvars,
            [Condition(AttrRef("U", "uid"), "=", AttrRef("V", "uid"))],
            [AttrRef("U", "dept"), AttrRef("V", "ward")],
            distinct=distinct,
        )
        for distinct in (True, False)
    ] + [
        ConjunctiveQuery.build(
            tvars,
            [
                Condition(AttrRef("U", "dept"), "=", AttrRef("V", "ward")),
                Condition(AttrRef("V", "ward"), "=", Literal("icu")),
            ],
            [AttrRef("U", "uid"), AttrRef("V", "uid")],
            distinct=True,
        )
    ]
    for query in queries:
        assert_vectorized_matches(db, query)


@pytest.mark.parametrize("seed", range(6))
def test_batch_semijoin_vectorized_matches_rowwise(seed):
    """distinct_values_in: the explain_batch primitive, both multiplicity
    settings."""
    rng = random.Random(45_000 + seed)
    db = random_database(rng)
    for _ in range(6):
        query = random_query(rng, db)
        attr = query.projection[0]
        in_attr = random_attr(rng, list(query.tuple_vars), db)
        values = {
            rng.choice(VALUE_DOMAIN + [7]) for _ in range(rng.randrange(0, 6))
        }
        expected = reference_distinct_in(db, query, attr, in_attr, values)
        for distinct_reduction in CONFIGS:
            executor = Executor(db, distinct_reduction=distinct_reduction)
            got = executor.distinct_values_in(query, attr, in_attr, values)
            assert got == expected, (
                f"batch semijoin mismatch (distinct_reduction="
                f"{distinct_reduction}) for:\n{query}"
            )


# ----------------------------------------------------------------------
# table-level batch probes
# ----------------------------------------------------------------------
class TestLookupMany:
    def _table(self):
        db = _mixed_db()
        return db.table("Visits")

    def test_matches_per_value_loop_with_nulls(self):
        table = self._table()
        for values in ([1, None, 4, 99], {1, None, 4, 99}, [], [None]):
            got = table.lookup_many("uid", values)
            assert got == scan_rows(table, "uid", values)
            assert all(row[0] is not None for row in got)

    def test_null_probe_never_matches_null_rows(self):
        table = self._table()
        # the index has a NULL bucket (row 2); the probe must not see it
        assert None in table.index_for("uid")
        assert table.lookup_many("uid", [None, 1]) == [
            table.row(p) for p in table.index_for("uid")[1]
        ]

    def test_duplicate_probe_values_collapse(self):
        table = self._table()
        assert table.lookup_many("uid", [1, 1, 2, 1]) == table.lookup_many(
            "uid", [1, 2]
        )

    def test_lookup_many_matches_rowwise(self):
        table = self._table()
        values = [1, None, 2, 8]
        got = Counter(table.lookup_many("uid", values))
        col = table.schema.column_index("uid")
        wanted = {v for v in values if v is not None}
        assert got == Counter(r for r in table.rows() if r[col] in wanted)
        assert got  # non-vacuous: uid 1 matches two rows

    def test_probe_after_ingest_sees_delta(self):
        table = self._table()
        assert table.lookup_many("uid", [77]) == []
        table.insert((77, "icu"))
        got = table.lookup_many("uid", [77])
        assert got == scan_rows(table, "uid", [77])
        assert got == [(77, "icu")]


class TestProjectionProbes:
    def _table(self):
        return _mixed_db().table("Visits")

    def test_one_key_matches_rowwise(self):
        table = self._table()
        index = table.projection_index(("uid", "ward"), ("uid",))
        assert {k: set(v) for k, v in index.items()} == scan_projection(
            table, ("uid", "ward"), ("uid",)
        )
        assert None not in index
        assert set(index) == {1, 2, 4}  # bare keys, NULL left out

    def test_two_keys_match_rowwise(self):
        table = self._table()
        index = table.projection_index(("uid", "ward"), ("ward", "uid"))
        assert {k: set(v) for k, v in index.items()} == scan_projection(
            table, ("uid", "ward"), ("ward", "uid")
        )
        assert not any(None in k for k in index)
        assert set(index) == {("icu", 1), ("icu", 2), ("er", 4)}

    def test_probe_matches_rowwise(self):
        table = self._table()
        for key_attrs, values in (
            (("uid",), {1, 2, None, 123}),
            (("ward", "uid"), [("icu", 1), ("er", None), ("er", 4), ("er", 9)]),
        ):
            got = table.projection_probe(("uid", "ward"), key_attrs, values)
            expected = scan_projection(table, ("uid", "ward"), key_attrs)
            assert {k: set(v) for k, v in got.items()} == {
                k: v for k, v in expected.items() if k in set(values)
            }
            assert got  # non-vacuous

    def test_index_is_delta_maintained(self):
        table = self._table()
        warm = table.projection_probe(("uid", "ward"), ("uid",), {1})
        assert set(warm) == {1}
        assert set(warm[1]) == {(1, "icu"), (1, None)}
        table.insert((1, "er"))
        table.insert((None, "morgue"))  # NULL key: must not enter the index
        after = table.projection_probe(("uid", "ward"), ("uid",), {1, None})
        assert set(after) == {1}
        assert after[1][-1] == (1, "er")  # the delta appends in place
        assert set(after[1]) == {(1, "icu"), (1, None), (1, "er")}
        index = table.projection_index(("uid", "ward"), ("uid",))
        assert {k: set(v) for k, v in index.items()} == scan_projection(
            table, ("uid", "ward"), ("uid",)
        )
