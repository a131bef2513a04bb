"""Differential tests: the batch-at-a-time pipeline vs row-at-a-time oracles.

The executor's join pipeline and the table-level batch probes
(``probe_many`` / ``lookup_many`` / the projection indexes and their
scalar-keyed variants) replace per-row dict probes with C-level
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


def scan_positions(table, column, values) -> dict:
    """``probe_many`` computed row by row: per non-NULL probe value, the
    positions of the rows holding it."""
    col = table.schema.column_index(column)
    out = {}
    for value in values:
        if value is None:
            continue
        hits = [i for i, row in enumerate(table.rows()) if row[col] == value]
        if hits:
            out[value] = hits
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
class TestProbeMany:
    def _table(self):
        db = _mixed_db()
        return db.table("Visits")

    def test_matches_per_value_loop_with_nulls(self):
        table = self._table()
        for values in ([1, None, 4, 99], {1, None, 4, 99}, [], [None]):
            got = table.probe_many("uid", values)
            assert got == scan_positions(table, "uid", values)
            assert None not in got

    def test_null_probe_never_matches_null_rows(self):
        table = self._table()
        # the index has a NULL bucket (row 2); the probe must not see it
        assert None in table.index_for("uid")
        assert table.probe_many("uid", [None, 1]) == {
            1: table.index_for("uid")[1]
        }

    def test_duplicate_probe_values_collapse(self):
        table = self._table()
        assert table.probe_many("uid", [1, 1, 2, 1]) == table.probe_many(
            "uid", {1, 2}
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
        before = table.probe_many("uid", [77])
        assert before == {}
        table.insert((77, "icu"))
        got = table.probe_many("uid", [77])
        assert got == scan_positions(table, "uid", [77])
        assert got == {77: [len(table.rows()) - 1]}


class TestProjectionProbes:
    def _table(self):
        return _mixed_db().table("Visits")

    def test_tuple_keys_match_rowwise(self):
        table = self._table()
        index = table.projection_index(("uid", "ward"), ("uid",))
        expected: dict = {}
        for uid, ward in table.rows():
            if uid is not None:
                expected.setdefault((uid,), set()).add((uid, ward))
        assert {k: set(v) for k, v in index.items()} == expected
        assert (None,) not in index
        assert index  # non-vacuous: uid 1 and 4 match

    def test_scalar_probe_matches_tuple_probe(self):
        table = self._table()
        values = {1, 2, None, 123}
        scalar = table.projection_probe_scalar(("uid", "ward"), "uid", values)
        tupled = table.projection_index(("uid", "ward"), ("uid",))
        assert {(k,): v for k, v in scalar.items()} == {
            k: v for k, v in tupled.items() if k[0] in values
        }
        assert None not in scalar

    def test_scalar_index_is_delta_maintained(self):
        table = self._table()
        warm = table.projection_probe_scalar(("uid", "ward"), "uid", {1})
        assert set(warm) == {1}
        assert set(warm[1]) == {(1, "icu"), (1, None)}
        table.insert((1, "er"))
        table.insert((None, "morgue"))  # NULL key: must not enter the index
        after = table.projection_probe_scalar(
            ("uid", "ward"), "uid", {1, None}
        )
        assert set(after) == {1}
        assert after[1][-1] == (1, "er")  # the delta appends in place
        assert set(after[1]) == {(1, "icu"), (1, None), (1, "er")}


class TestIntColumnArray:
    def test_int_column_with_null_has_no_mirror(self):
        table = _mixed_db().table("Users")
        assert table.int_column_array("uid") is None  # NULL in column
        assert table.int_column_array("dept") is None  # STR column

    def test_mirror_tracks_ingest_and_tombstones_on_null(self):
        db = Database("ints")
        table = db.create_table(
            TableSchema.build("T", [("a", ColumnType.INT)])
        )
        table.insert_many([(1,), (2,)])
        mirror = table.int_column_array("a")
        assert list(mirror) == [1, 2]
        table.insert((3,))
        assert list(table.int_column_array("a")) == [1, 2, 3]
        table.insert((None,))  # NULL kills the typed mirror for good
        assert table.int_column_array("a") is None
        assert table.column_array("a") == [1, 2, 3, None]

    def test_overflow_tombstones_mirror(self):
        db = Database("ints")
        table = db.create_table(
            TableSchema.build("T", [("a", ColumnType.INT)])
        )
        table.insert((1,))
        assert list(table.int_column_array("a")) == [1]
        table.insert((2**80,))  # does not fit array('q')
        assert table.int_column_array("a") is None
        assert table.column_array("a") == [1, 2**80]
