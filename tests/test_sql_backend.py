"""The SQLite storage backend: dialect, driver, catalog, and lifecycle.

The differential suites pin the SQL pushdown executor byte-identical to
the in-memory engine and the brute-force oracle; this module covers the
directed surfaces around that core:

* value round-trips (DATE/BOOL column decoding) and NULL semantics of
  the :class:`~repro.db.sqlbackend.SqlTable` catalog mirror;
* validation-error parity with the in-memory :class:`~repro.db.Table`
  (same exception types, same messages, same partial-insert prefix);
* the :class:`~repro.db.SqliteDriver` contract — lazy connection,
  chunked batch-``IN`` pushdown beyond ``MAX_BATCH_PARAMS``, ingest
  accounting, idempotent close;
* template-to-SQL compilation shapes (multiplicity-preserving counts,
  the ``IN``-marker semijoin, existential aliases behind ``EXISTS``) and
  plan-cache memoization;
* the plan-shape tripwire: every template form runs index-driven, with
  nothing materialised per statement;
* restart-reopen of file-backed databases (the log-id sequence
  continues past rows ingested before the restart);
* the memory backend's explicit row cap (:class:`~repro.db.CapacityError`)
  and the CLI path that audits past it with ``--backend sqlite``.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.api import (
    AuditConfig,
    AuditService,
    CapacityError,
    MineRequest,
    UnsupportedOperationError,
    open_service,
    open_sql_database,
    save_database,
)
from repro.db import (
    AttrRef,
    ColumnType,
    Condition,
    ConjunctiveQuery,
    Database,
    Executor,
    Literal,
    PlanCache,
    QueryError,
    SchemaError,
    SqlDatabase,
    SqlExecutor,
    SqliteDriver,
    Table,
    TableSchema,
    TupleVar,
    UnknownColumnError,
    make_executor,
)
from repro.db.dialect import (
    IN_MARKER,
    compile_count_distinct,
    compile_distinct_values,
    compile_distinct_values_in,
    compile_execute,
    condition_params,
)
from repro.db.drivers.sqlite import MAX_BATCH_PARAMS
from repro.ehr import SimulationConfig, simulate

MIXED_SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INT), ("d", ColumnType.DATE), ("b", ColumnType.BOOL)],
)

STAMP = dt.datetime(2026, 3, 4, 5, 6, 7)


def _fresh_db():
    return simulate(SimulationConfig.tiny(seed=7)).db


def _mixed_tables():
    """The same mixed-type table on both backends."""
    mem = Database("twin").create_table(MIXED_SCHEMA)
    sql = SqlDatabase(SqliteDriver(None), name="twin").create_table(MIXED_SCHEMA)
    return mem, sql


# ----------------------------------------------------------------------
# SqlTable: value round-trips, NULL semantics, error parity
# ----------------------------------------------------------------------
class TestSqlTable:
    def test_date_and_bool_round_trip(self):
        _, sql = _mixed_tables()
        sql.insert_many([(1, STAMP, True), (2, None, False)])
        rows = sql.rows()
        assert rows == [(1, STAMP, True), (2, None, False)]
        assert isinstance(rows[0][1], dt.datetime)
        assert rows[0][2] is True and rows[1][2] is False

    def test_null_lookup_and_distinct(self):
        _, sql = _mixed_tables()
        sql.insert_many([(1, STAMP, True), (None, STAMP, None), (1, None, False)])
        # lookup(col, None) selects the NULL rows, like the in-memory index
        assert sql.lookup("k", None) == [(None, STAMP, None)]
        assert sql.lookup("k", 1) == [(1, STAMP, True), (1, None, False)]
        # distinct_values excludes NULL (the FK-validation contract)
        assert sql.distinct_values("k") == {1}
        assert sql.ndv("k") == 1
        assert sql.column_values("k") == [1, None, 1]
        assert len(sql) == 3

    def test_rows_keep_insertion_order(self):
        _, sql = _mixed_tables()
        sql.insert_many([(i, None, None) for i in (5, 3, 9)])
        assert [r[0] for r in sql] == [5, 3, 9]
        sql.clear()
        assert len(sql) == 0

    @pytest.mark.parametrize(
        "bad",
        [
            (1,),  # arity
            {"k": 1, "zzz": 2},  # unknown column
            ("x", None, None),  # type mismatch
        ],
    )
    def test_validation_errors_match_memory(self, bad):
        mem, sql = _mixed_tables()
        with pytest.raises(Exception) as from_mem:
            mem.insert(bad)
        with pytest.raises(Exception) as from_sql:
            sql.insert(bad)
        assert type(from_sql.value) is type(from_mem.value)
        assert str(from_sql.value) == str(from_mem.value)

    def test_insert_many_keeps_valid_prefix(self):
        """A mid-batch validation error persists the valid prefix on
        both backends (same rows, same error)."""
        rows = [(1, None, None), (2, None, None), ("bad", None, None)]
        mem, sql = _mixed_tables()
        with pytest.raises(Exception) as from_mem:
            mem.insert_many(rows)
        with pytest.raises(Exception) as from_sql:
            sql.insert_many(rows)
        assert str(from_sql.value) == str(from_mem.value)
        assert sql.rows() == mem.rows() == [(1, None, None), (2, None, None)]

    def test_unknown_column_errors(self):
        _, sql = _mixed_tables()
        with pytest.raises(UnknownColumnError):
            sql.lookup("nope", 1)
        with pytest.raises(UnknownColumnError):
            sql.distinct_values("nope")


class TestSqlDatabase:
    def test_catalog_mirrors_memory_database(self):
        db = SqlDatabase(SqliteDriver(None), name="cat")
        db.create_table(MIXED_SCHEMA)
        assert db.has_table("T") and "T" in db and len(db) == 1
        assert db.table_names() == ["T"]
        with pytest.raises(SchemaError, match="already exists"):
            db.create_table(MIXED_SCHEMA)
        db.drop_table("T")
        assert not db.has_table("T")
        db.close()
        db.close()  # idempotent

    def test_referential_validation(self):
        db = SqlDatabase(SqliteDriver(None))
        users = TableSchema.build("Users", ["User"], primary_key=["User"])
        from repro.db import ForeignKey

        log = TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), "User"],
            foreign_keys=[ForeignKey("User", "Users", "User")],
        )
        db.create_table(users).insert(("u1",))
        db.create_table(log).insert_many([(1, "u1"), (2, "ghost")])
        violations = db.validate_referential_integrity()
        assert len(violations) == 1 and "ghost" in violations[0]
        assert db.total_rows() == 3


# ----------------------------------------------------------------------
# driver contract
# ----------------------------------------------------------------------
class TestSqliteDriver:
    def test_lazy_connection_and_stats(self, tmp_path):
        driver = SqliteDriver(str(tmp_path / "lazy.db"))
        assert driver.snapshot_stats()["connected"] is False
        driver.execute("SELECT 1")
        stats = driver.snapshot_stats()
        assert stats["connected"] is True
        assert stats["dialect"] == "sqlite"
        driver.close()
        driver.close()

    def test_batch_in_chunks_past_max_params(self):
        db = SqlDatabase(SqliteDriver(None))
        table = db.create_table(
            TableSchema.build("N", [("k", ColumnType.INT)])
        )
        n = MAX_BATCH_PARAMS * 2 + 50
        table.insert_many([(i,) for i in range(n)])
        sql = f'SELECT DISTINCT "k" FROM "N" WHERE "k" IN ({IN_MARKER})'
        rows = db.driver.execute_batch(sql, (), list(range(n)))
        assert {r[0] for r in rows} == set(range(n))
        stats = db.driver.snapshot_stats()
        assert stats["batch_chunks"] == 3
        assert stats["rows_ingested"] == n

    def test_batch_requires_marker_and_handles_empty(self):
        driver = SqliteDriver(None)
        with pytest.raises(ValueError, match="IN-marker"):
            driver.execute_batch("SELECT 1", (), [1])
        assert driver.execute_batch(f"SELECT {IN_MARKER}", (), []) == []


# ----------------------------------------------------------------------
# compilation and executor plumbing
# ----------------------------------------------------------------------
def _single_table_query():
    tvar = TupleVar("A", "T")
    return ConjunctiveQuery.build(
        (tvar,),
        (Condition(AttrRef("A", "k"), "=", Literal(1)),),
        (AttrRef("A", "k"),),
        distinct=True,
    )


#: A tuple-variable alias carrying ``"`` (aliases are not validated), and
#: condition literals that would rewrite the statement if spliced into it.
HOSTILE_ALIAS = 'L"; DROP TABLE "Log'
HOSTILE_LITERALS = ("x' OR '1'='1", '"; DROP TABLE Log; --')
HOSTILE_SCHEMA = TableSchema.build(
    "Log", [("Lid", ColumnType.INT), "User", "Note"]
)


def _hostile_query():
    """``A.Lid`` for the hostile alias ``A`` whose User is the first
    literal and who shares that User with some row (alias ``B"``) whose
    Note is the second; ``B"`` is existential, so the distinct forms
    compile it into ``EXISTS``."""
    a, b = HOSTILE_ALIAS, 'B"'
    return ConjunctiveQuery.build(
        (TupleVar(a, "Log"), TupleVar(b, "Log")),
        (
            Condition(AttrRef(a, "User"), "=", Literal(HOSTILE_LITERALS[0])),
            Condition(AttrRef(a, "User"), "=", AttrRef(b, "User")),
            Condition(AttrRef(b, "Note"), "=", Literal(HOSTILE_LITERALS[1])),
        ),
        (AttrRef(a, "Lid"),),
        distinct=True,
    )


_HOSTILE_IN = AttrRef(HOSTILE_ALIAS, "User")

#: form -> (compile it, run it on an executor); every SQL form the
#: executor lowers splices aliases through ``quote_ident``.
HOSTILE_FORMS = {
    "execute": (
        lambda q: compile_execute(q, {"Log": HOSTILE_SCHEMA}),
        lambda ex, q: sorted(ex.execute(q).rows),
    ),
    "count_distinct": (
        lambda q: compile_count_distinct(
            q, {"Log": HOSTILE_SCHEMA}, q.projection[0]
        ),
        lambda ex, q: ex.count_distinct(q),
    ),
    "distinct_values": (
        lambda q: compile_distinct_values(
            q, {"Log": HOSTILE_SCHEMA}, q.projection[0]
        ),
        lambda ex, q: ex.distinct_values(q),
    ),
    "distinct_values_in": (
        lambda q: compile_distinct_values_in(
            q, {"Log": HOSTILE_SCHEMA}, q.projection[0], _HOSTILE_IN
        ),
        lambda ex, q: ex.distinct_values_in(
            q, q.projection[0], _HOSTILE_IN, HOSTILE_LITERALS
        ),
    ),
}


class TestCompilation:
    @pytest.mark.parametrize("form", sorted(HOSTILE_FORMS))
    def test_hostile_alias_and_literals_cannot_rewrite_the_statement(
        self, form
    ):
        """``quote_ident`` is the one chokepoint names pass into SQL text,
        and literals never reach it: an alias holding ``"`` stays one
        identifier, and hostile strings bind as parameters."""
        compile_form, run = HOSTILE_FORMS[form]
        query = _hostile_query()
        compiled = compile_form(query)
        for literal in HOSTILE_LITERALS:
            assert literal not in compiled.sql
        assert '"L""; DROP TABLE ""Log"' in compiled.sql
        assert sorted(condition_params(compiled, query)) == sorted(
            HOSTILE_LITERALS
        )

        mem = Database("hostile")
        mem.create_table(HOSTILE_SCHEMA).insert_many(
            [
                (1, HOSTILE_LITERALS[0], HOSTILE_LITERALS[1]),
                (2, HOSTILE_LITERALS[0], "ok"),
                (3, "bob", HOSTILE_LITERALS[1]),
            ]
        )
        sql = open_sql_database(mem, None)
        before = {name: len(sql.table(name)) for name in sql.table_names()}
        answer = run(SqlExecutor(sql), query)
        assert answer == run(Executor(mem), query)
        assert answer in ([(1,), (2,)], 2, {1, 2})
        assert {name: len(sql.table(name)) for name in sql.table_names()} == (
            before
        )
        assert before == {"Log": 3}

    def test_count_distinct_counts_null_as_a_value(self):
        """COUNT(*) over a DISTINCT subquery, not COUNT(DISTINCT col) —
        the in-memory count_distinct counts NULL as a distinct value."""
        compiled = compile_count_distinct(
            _single_table_query(), {"T": MIXED_SCHEMA}, AttrRef("A", "k")
        )
        assert "COUNT(*)" in compiled.sql
        assert "DISTINCT" in compiled.sql
        assert "COUNT(DISTINCT" not in compiled.sql

    def test_semijoin_carries_in_marker(self):
        compiled = compile_distinct_values_in(
            _single_table_query(),
            {"T": MIXED_SCHEMA},
            AttrRef("A", "k"),
            AttrRef("A", "b"),
        )
        assert compiled.has_in_marker
        assert IN_MARKER in compiled.sql

    def test_existential_alias_moves_into_exists(self):
        """Only projected aliases stay in FROM; parameters bind in
        compiled order (outer WHERE, then EXISTS body)."""
        query = ConjunctiveQuery.build(
            (TupleVar("A", "T"), TupleVar("B", "T")),
            (
                Condition(AttrRef("B", "b"), "=", Literal(True)),
                Condition(AttrRef("A", "k"), "=", AttrRef("B", "k")),
                Condition(AttrRef("A", "k"), ">", Literal(1)),
            ),
            (AttrRef("A", "k"),),
            distinct=True,
        )
        compiled = compile_execute(query, {"T": MIXED_SCHEMA})
        assert compiled.sql == (
            'SELECT DISTINCT "A"."k" FROM "T" "A" WHERE "A"."k" > ? AND '
            'EXISTS (SELECT 1 FROM "T" "B" WHERE "B"."b" = ? AND '
            '"A"."k" = "B"."k")'
        )
        assert compiled.param_order == (2, 0)
        assert condition_params(compiled, query) == (1, 1)
        semijoin = compile_distinct_values_in(
            query, {"T": MIXED_SCHEMA}, AttrRef("A", "k"), AttrRef("A", "d")
        )
        assert semijoin.sql.endswith(f') AND "A"."d" IN ({IN_MARKER})')
        assert semijoin.param_order == (2, 0)

    def test_non_distinct_execute_keeps_the_flat_join(self):
        query = ConjunctiveQuery.build(
            (TupleVar("A", "T"), TupleVar("B", "T")),
            (Condition(AttrRef("A", "k"), "=", AttrRef("B", "k")),),
            (AttrRef("A", "k"),),
            distinct=False,
        )
        compiled = compile_execute(query, {"T": MIXED_SCHEMA})
        assert compiled.sql == (
            'SELECT "A"."k" FROM "T" "A", "T" "B" WHERE "A"."k" = "B"."k"'
        )

    def test_plan_cache_memoizes_compiled_queries(self):
        db = SqlDatabase(SqliteDriver(None))
        db.create_table(MIXED_SCHEMA).insert_many([(1, None, None)])
        cache = PlanCache(max_size=8)
        executor = SqlExecutor(db, plan_cache=cache)
        query = _single_table_query()
        executor.execute(query)
        misses = cache.stats()["misses"]
        executor.execute(query)
        assert cache.stats()["misses"] == misses
        assert cache.stats()["hits"] >= 1
        assert executor.queries_executed == 2

    def test_disconnected_join_graph_error_parity(self):
        mem_db = Database("d")
        mem_db.create_table(MIXED_SCHEMA).insert((1, None, None))
        sql_db = open_sql_database(mem_db, None)
        query = ConjunctiveQuery.build(
            (TupleVar("A", "T"), TupleVar("B", "T")),
            (),
            (AttrRef("A", "k"),),
            distinct=True,
        )
        with pytest.raises(QueryError) as from_mem:
            Executor(mem_db).execute(query)
        with pytest.raises(QueryError) as from_sql:
            SqlExecutor(sql_db).execute(query)
        assert str(from_sql.value) == str(from_mem.value)
        assert (
            SqlExecutor(sql_db, allow_cartesian=True).execute(query).rows
            == Executor(mem_db, allow_cartesian=True).execute(query).rows
        )

    def test_make_executor_dispatches_on_database_type(self):
        mem_db = Database("d")
        mem_db.create_table(MIXED_SCHEMA)
        assert isinstance(make_executor(mem_db), Executor)
        assert isinstance(
            make_executor(open_sql_database(mem_db, None)), SqlExecutor
        )


# ----------------------------------------------------------------------
# plan shape: every statement form is index-driven
# ----------------------------------------------------------------------
class TestPlanShape:
    """No test that compares results can see a lowering that re-builds a
    whole table per statement — the rows come out the same.  The query
    plan shows it: a materialised subselect, a co-routine, an automatic
    (per-statement) index, or a full scan of a base table."""

    FORBIDDEN = ("MATERIALIZE", "CO-ROUTINE", "AUTOMATIC")

    @pytest.fixture(scope="class")
    def world(self):
        from repro.api.service import standard_templates
        from repro.audit.handcrafted import same_department_templates
        from repro.ehr.schema import build_careweb_graph

        sql_db = open_sql_database(_fresh_db(), None)
        templates = standard_templates(sql_db)
        # Log -> Appointments -> Users -> Users -> Log: a multi-hop path
        templates += same_department_templates(build_careweb_graph(sql_db))[:1]
        schemas = {t.schema.name: t.schema for t in sql_db.tables()}
        return sql_db, schemas, templates

    def assert_index_driven(self, sql_db, compiled, query, in_values=()):
        sql = compiled.sql.replace(IN_MARKER, ", ".join("?" for _ in in_values))
        params = condition_params(compiled, query) + tuple(in_values)
        plan = [
            row[-1]
            for row in sql_db.driver.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        ]
        assert any(line.startswith("SEARCH") for line in plan), plan
        for line in plan:
            assert not any(word in line for word in self.FORBIDDEN), (sql, plan)
            assert not line.startswith("SCAN"), (sql, plan)

    def extra_queries(self):
        """Shapes the standard set lacks: a self-join whose inner alias
        carries an inequality against a literal, and a two-hop path."""
        log, lid = TupleVar("L", "Log"), AttrRef("L", "Lid")
        self_join = ConjunctiveQuery.build(
            (log, TupleVar("P", "Log")),
            (
                Condition(AttrRef("P", "Date"), "<", Literal(STAMP)),
                Condition(AttrRef("L", "Patient"), "=", AttrRef("P", "Patient")),
                Condition(AttrRef("P", "User"), "=", AttrRef("L", "User")),
                Condition(AttrRef("P", "Lid"), "!=", AttrRef("L", "Lid")),
            ),
            (lid,),
            distinct=True,
        )
        two_hop = ConjunctiveQuery.build(
            (log, TupleVar("A", "Appointments"), TupleVar("U", "Users")),
            (
                Condition(AttrRef("L", "Patient"), "=", AttrRef("A", "Patient")),
                Condition(AttrRef("A", "Doctor"), "=", AttrRef("U", "User")),
                Condition(AttrRef("U", "Department"), "=", Literal("Pediatrics")),
            ),
            (lid,),
            distinct=True,
        )
        return [self_join, two_hop]

    def test_point_execute_form(self, world):
        sql_db, schemas, templates = world
        queries = [t.instance_query(lid=1) for t in templates]
        for query in self.extra_queries():
            pin = Condition(AttrRef("L", "Lid"), "=", Literal(1))
            queries.append(
                ConjunctiveQuery.build(
                    query.tuple_vars,
                    (*query.conditions, pin),
                    query.projection,
                    distinct=True,
                )
            )
        for query in queries:
            self.assert_index_driven(sql_db, compile_execute(query, schemas), query)

    def test_semijoin_form(self, world):
        sql_db, schemas, templates = world
        lid = AttrRef("L", "Lid")
        queries = [t.support_query() for t in templates] + self.extra_queries()
        for query in queries:
            compiled = compile_distinct_values_in(query, schemas, lid, lid)
            self.assert_index_driven(sql_db, compiled, query, in_values=(1, 2, 3))


# ----------------------------------------------------------------------
# open_sql_database lifecycle
# ----------------------------------------------------------------------
class TestOpenSqlDatabase:
    def test_reopen_without_source(self, tmp_path):
        path = str(tmp_path / "world.db")
        mem_db = Database("world")
        mem_db.create_table(MIXED_SCHEMA).insert_many(
            [(1, STAMP, True), (None, None, None)]
        )
        open_sql_database(mem_db, path).close()
        reopened = open_sql_database(None, path)
        assert reopened.name == "world"
        assert reopened.table_names() == ["T"]
        assert reopened.table("T").rows() == [(1, STAMP, True), (None, None, None)]
        reopened.close()

    @staticmethod
    def _index_names(sql_db):
        return {
            row[0]
            for row in sql_db.driver.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }

    def test_every_build_path_ends_up_indexed(self, tmp_path):
        """Tables are bulk-loaded bare and indexed afterwards; an empty
        ``create_table`` must still come out with its indexes."""
        wanted = {"idx_T_k", "idx_T_d", "idx_T_b"}
        created = SqlDatabase(SqliteDriver(None))
        created.create_table(MIXED_SCHEMA)
        assert wanted <= self._index_names(created)
        mem_db = Database("world")
        mem_db.create_table(MIXED_SCHEMA).insert((1, STAMP, True))
        assert wanted <= self._index_names(open_sql_database(mem_db, None))
        save_database(mem_db, str(tmp_path / "csv"))
        assert wanted <= self._index_names(
            open_sql_database(str(tmp_path / "csv"), None)
        )

    def test_crash_before_indexing_leaves_no_catalog_row(self, tmp_path, monkeypatch):
        """The catalog row is written after ingest *and* indexing, so a
        build that dies in between is rebuilt from source on reopen."""
        path = str(tmp_path / "world.db")
        mem_db = Database("world")
        mem_db.create_table(MIXED_SCHEMA).insert((1, STAMP, True))

        def die(self, schema):
            raise RuntimeError("killed while indexing")

        with monkeypatch.context() as patch:
            patch.setattr(SqliteDriver, "create_indexes", die)
            with pytest.raises(RuntimeError, match="killed"):
                open_sql_database(mem_db, path)
        with pytest.raises(SchemaError, match="no audited database"):
            open_sql_database(None, path)
        rebuilt = open_sql_database(mem_db, path)
        assert rebuilt.table("T").rows() == [(1, STAMP, True)]
        assert "idx_T_k" in self._index_names(rebuilt)
        rebuilt.close()

    def test_missing_file_without_source_is_an_error(self, tmp_path):
        with pytest.raises(SchemaError, match="no audited database"):
            open_sql_database(None, str(tmp_path / "absent.db"))



# ----------------------------------------------------------------------
# service lifecycle: restart-reopen, writers, capacity
# ----------------------------------------------------------------------
class TestServiceLifecycle:
    def test_single_node_restart_reopen(self, tmp_path):
        db_dir = str(tmp_path / "hospital")
        save_database(_fresh_db(), db_dir)
        config = AuditConfig(backend="sqlite", db_path=str(tmp_path / "audit.db"))
        with AuditService.open(db_dir, config=config) as first:
            ghost = first.ingest("zz-nobody", "zz-ghost")
            assert ghost.suspicious
            queue_before = {v.lid for v in first.report().queue}
        with AuditService.open(db_dir, config=config) as second:
            # the ingested access survived process death…
            assert {v.lid for v in second.report().queue} == queue_before
            assert ghost.lid in queue_before
            # …and the log-id sequence continues past it
            assert second.ingest("zz-nobody", "zz-ghost-2").lid == ghost.lid + 1

    def test_mine_and_groups_raise_on_sqlite(self):
        config = AuditConfig(backend="sqlite", eager_warm=False)
        with AuditService.open(_fresh_db(), config=config) as service:
            with pytest.raises(UnsupportedOperationError) as excinfo:
                service.mine(MineRequest())
            assert "memory backend" in excinfo.value.hint
            with pytest.raises(UnsupportedOperationError):
                service.build_groups()

    def test_capacity_error_points_at_sqlite(self):
        table = Table(MIXED_SCHEMA, max_rows=2)
        table.insert((1, None, None))
        table.insert((2, None, None))
        with pytest.raises(CapacityError, match="--backend sqlite"):
            table.insert((3, None, None))
        assert len(table) == 2


# ----------------------------------------------------------------------
# CLI: auditing a log larger than the in-memory row cap
# ----------------------------------------------------------------------
class TestCliBeyondCap:
    @pytest.fixture(scope="class")
    def db_dir(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("clidb") / "hospital")
        save_database(_fresh_db(), out)
        return out

    def test_memory_backend_hits_the_cap(self, db_dir):
        from repro.cli import main

        with pytest.raises(CapacityError, match="--backend sqlite"):
            main(["audit", "--db", db_dir, "--json", "--max-table-rows", "100"])

    def test_sqlite_backend_audits_past_the_cap(self, db_dir, tmp_path, capsys):
        from repro.cli import main

        assert main(["audit", "--db", db_dir, "--json"]) == 0
        reference = capsys.readouterr().out
        code = main(
            [
                "audit",
                "--db",
                db_dir,
                "--json",
                "--backend",
                "sqlite",
                "--db-path",
                str(tmp_path / "cli-audit.db"),
                "--max-table-rows",
                "100",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == reference
