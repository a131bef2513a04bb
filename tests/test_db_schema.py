"""Unit tests for repro.db.schema: column types, schemas, constraints."""

import datetime as dt

import pytest

from repro.db import Column, ColumnType, ForeignKey, SchemaError, TableSchema


class TestColumnType:
    def test_int_roundtrip(self):
        assert ColumnType.INT.parse("42") == 42
        assert ColumnType.INT.render(42) == "42"

    def test_float_roundtrip(self):
        assert ColumnType.FLOAT.parse("2.5") == 2.5
        assert ColumnType.FLOAT.render(2.5) == "2.5"

    def test_str_roundtrip(self):
        assert ColumnType.STR.parse("abc") == "abc"
        assert ColumnType.STR.render("abc") == "abc"

    def test_bool_parse_variants(self):
        for text in ("1", "true", "T", "YES"):
            assert ColumnType.BOOL.parse(text) is True
        assert ColumnType.BOOL.parse("false") is False

    def test_bool_parse_rejects_unknown_spellings(self):
        for text in ("0", "false", " F ", "No"):
            assert ColumnType.BOOL.parse(text) is False
        for text in ("maybe", "2", "y", "truthy"):
            with pytest.raises(ValueError, match="not a bool"):
                ColumnType.BOOL.parse(text)

    def test_malformed_cells_raise_value_error(self):
        for ctype, text in (
            (ColumnType.INT, "x1"),
            (ColumnType.FLOAT, "1.2.3"),
            (ColumnType.DATE, "2010-13-45"),
        ):
            with pytest.raises(ValueError):
                ctype.parse(text)

    def test_bool_render(self):
        assert ColumnType.BOOL.render(True) == "true"
        assert ColumnType.BOOL.render(False) == "false"

    def test_date_roundtrip(self):
        stamp = dt.datetime(2010, 1, 3, 10, 16, 57)
        assert ColumnType.DATE.parse(stamp.isoformat()) == stamp
        assert ColumnType.DATE.parse(ColumnType.DATE.render(stamp)) == stamp

    def test_empty_string_is_null(self):
        for ctype in ColumnType:
            assert ctype.parse("") is None

    def test_null_renders_empty(self):
        for ctype in ColumnType:
            assert ctype.render(None) == ""

    def test_validate_int_rejects_bool(self):
        assert not ColumnType.INT.validate(True)
        assert ColumnType.INT.validate(3)

    def test_validate_float_accepts_int(self):
        assert ColumnType.FLOAT.validate(3)
        assert ColumnType.FLOAT.validate(3.5)

    def test_validate_null_always_ok(self):
        for ctype in ColumnType:
            assert ctype.validate(None)

    def test_validate_date(self):
        assert ColumnType.DATE.validate(dt.datetime(2010, 1, 1))
        assert not ColumnType.DATE.validate("2010-01-01")


class TestColumn:
    def test_default_type_is_str(self):
        assert Column("Patient").ctype is ColumnType.STR

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("bad name")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("")

    def test_underscores_allowed(self):
        assert Column("Group_id").name == "Group_id"


class TestTableSchema:
    def make(self):
        return TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
            primary_key=["Lid"],
        )

    def test_column_names(self):
        assert self.make().column_names == ("Lid", "Date", "User", "Patient")

    def test_column_index(self):
        schema = self.make()
        assert schema.column_index("Lid") == 0
        assert schema.column_index("Patient") == 3

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            self.make().column_index("Nope")

    def test_has_column(self):
        schema = self.make()
        assert schema.has_column("User")
        assert not schema.has_column("user")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema.build("T", ["a", "a"])

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema.build("T", ["a"], primary_key=["b"])

    def test_fk_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema.build(
                "T", ["a"], foreign_keys=[ForeignKey("b", "Other", "x")]
            )

    def test_build_accepts_mixed_specs(self):
        schema = TableSchema.build(
            "T", [Column("a"), ("b", ColumnType.INT), "c"]
        )
        assert schema.column("a").ctype is ColumnType.STR
        assert schema.column("b").ctype is ColumnType.INT
        assert schema.column("c").ctype is ColumnType.STR

    def test_str_rendering(self):
        assert "Log(" in str(self.make())

    def test_arity(self):
        assert self.make().arity() == 4

    def test_invalid_table_name(self):
        with pytest.raises(SchemaError):
            TableSchema.build("bad name", ["a"])

    def test_foreign_key_str(self):
        fk = ForeignKey("Doctor", "Users", "User")
        assert str(fk) == "Doctor -> Users.User"
