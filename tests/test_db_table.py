"""Unit tests for repro.db.table: storage, indexes, distinct projections."""

import pytest

from repro.db import ColumnType, IntegrityError, Table, TableSchema, UnknownColumnError


@pytest.fixture
def table():
    schema = TableSchema.build(
        "Appointments",
        ["Patient", "Doctor", ("Day", ColumnType.INT)],
    )
    t = Table(schema)
    t.insert_many(
        [
            ("Alice", "Dave", 1),
            ("Bob", "Mike", 2),
            ("Alice", "Dave", 3),
            ("Carol", "Dave", 1),
        ]
    )
    return t


class TestInsert:
    def test_positional(self, table):
        table.insert(("Dan", "Mike", 9))
        assert len(table) == 5

    def test_mapping(self, table):
        table.insert({"Patient": "Dan", "Doctor": "Mike", "Day": 9})
        assert table.rows()[-1] == ("Dan", "Mike", 9)

    def test_mapping_missing_defaults_null(self, table):
        table.insert({"Patient": "Dan"})
        assert table.rows()[-1] == ("Dan", None, None)

    def test_mapping_unknown_column(self, table):
        with pytest.raises(UnknownColumnError):
            table.insert({"Nope": 1})

    def test_arity_mismatch(self, table):
        with pytest.raises(IntegrityError):
            table.insert(("onlyone",))

    def test_type_violation(self, table):
        with pytest.raises(IntegrityError):
            table.insert(("Dan", "Mike", "not-an-int"))

    def test_not_null_enforced(self):
        from repro.db import Column

        strict = TableSchema.build("S", [Column("a", nullable=False)])
        t = Table(strict)
        with pytest.raises(IntegrityError):
            t.insert((None,))

    def test_insert_many_returns_count(self, table):
        assert table.insert_many([("X", "Y", 1), ("Z", "W", 2)]) == 2


class TestAccess:
    def test_len(self, table):
        assert len(table) == 4

    def test_iteration(self, table):
        assert list(table)[0] == ("Alice", "Dave", 1)

    def test_column_values(self, table):
        assert table.column_values("Patient") == ["Alice", "Bob", "Alice", "Carol"]

    def test_distinct_values(self, table):
        assert table.distinct_values("Doctor") == {"Dave", "Mike"}

    def test_distinct_excludes_null(self, table):
        table.insert(("Dan", None, 5))
        assert table.distinct_values("Doctor") == {"Dave", "Mike"}

    def test_ndv(self, table):
        assert table.ndv("Patient") == 3
        assert table.ndv("Day") == 3

    def test_row_by_position(self, table):
        assert table.row(1) == ("Bob", "Mike", 2)


class TestIndexes:
    def test_index_lookup(self, table):
        idx = table.index_for("Doctor")
        assert sorted(idx["Dave"]) == [0, 2, 3]

    def test_lookup_rows(self, table):
        rows = table.lookup("Patient", "Alice")
        assert len(rows) == 2
        assert all(r[0] == "Alice" for r in rows)

    def test_lookup_missing_value(self, table):
        assert table.lookup("Patient", "Nobody") == []

    def test_index_invalidated_on_insert(self, table):
        table.index_for("Doctor")
        table.insert(("Eve", "Dave", 7))
        assert len(table.lookup("Doctor", "Dave")) == 4


class TestDistinctProjection:
    def test_projection(self, table):
        proj = table.project_distinct(("Patient", "Doctor"))
        assert proj == {("Alice", "Dave"), ("Bob", "Mike"), ("Carol", "Dave")}

    def test_projection_cached(self, table):
        first = table.project_distinct(("Patient",))
        second = table.project_distinct(("Patient",))
        assert first is second

    def test_cache_invalidated_on_insert(self, table):
        table.project_distinct(("Patient",))
        table.insert(("New", "Dave", 8))
        assert ("New",) in table.project_distinct(("Patient",))

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0
        assert table.project_distinct(("Patient",)) == set()


class TestColumnarStore:
    def test_column_array_live_and_cached(self, table):
        arr = table.column_array("Patient")
        assert arr == ["Alice", "Bob", "Alice", "Carol"]
        assert table.column_array("Patient") is arr

    def test_column_array_delta_maintained(self, table):
        arr = table.column_array("Doctor")
        table.insert(("Dan", "Mike", 9))
        assert arr[-1] == "Mike"
        assert arr == [r[1] for r in table.rows()]

    def test_column_values_returns_copy(self, table):
        values = table.column_values("Patient")
        values.append("mutated")
        assert table.column_values("Patient") == [
            "Alice", "Bob", "Alice", "Carol"
        ]

    def test_cleared_on_destructive_ops(self, table):
        table.column_array("Patient")
        table.clear()
        assert table._column_store == {}
        assert table.column_array("Patient") == []


class TestBatchProbes:
    def test_probe_many_groups_positions(self, table):
        out = table.probe_many("Doctor", ["Dave", "Mike", "Nobody"])
        assert out == {"Dave": [0, 2, 3], "Mike": [1]}

    def test_probe_many_skips_null(self, table):
        table.insert((None, "Dave", 4))
        assert None not in table.probe_many("Patient", [None, "Bob"])
        assert table.probe_many("Patient", [None]) == {}

    def test_lookup_many_full_multiplicity(self, table):
        rows = table.lookup_many("Patient", ["Alice", "Carol"])
        assert sorted(rows) == sorted(
            [("Alice", "Dave", 1), ("Alice", "Dave", 3), ("Carol", "Dave", 1)]
        )
        assert table.lookup_many("Patient", []) == []

    def test_probe_many_delta_maintained(self, table):
        table.probe_many("Doctor", ["Dave"])  # warm the index
        table.insert(("Zoe", "Dave", 5))
        assert table.probe_many("Doctor", ["Dave"])["Dave"] == [0, 2, 3, 4]

    def test_projection_index(self, table):
        out = table.projection_index(("Patient", "Doctor"), ("Doctor",))
        assert set(out) == {("Dave",), ("Mike",)}
        assert sorted(out[("Dave",)]) == [("Alice", "Dave"), ("Carol", "Dave")]
        assert ("Nobody",) not in out

    def test_projection_index_skips_null_keys(self, table):
        table.insert((None, None, 4))
        out = table.projection_index(("Patient", "Doctor"), ("Doctor",))
        assert (None,) not in out
        assert out[("Mike",)] == [("Bob", "Mike")]
