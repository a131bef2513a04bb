"""Edge-case and failure-injection tests across modules: empty inputs,
degenerate logs, corrupt CSVs, single-row tables, and boundary configs."""

import datetime as dt
import os

import pytest

from repro.core import (
    ExplanationEngine,
    MiningConfig,
    OneWayMiner,
    SchemaGraph,
    SupportEvaluator,
    TwoWayMiner,
)
from repro.db import (
    ColumnType,
    Database,
    IntegrityError,
    SchemaError,
    TableSchema,
    read_table_csv,
)
from repro.ehr import SimulationConfig, simulate
from repro.evalx import (
    first_access_lids,
    lids_on_days,
    log_epoch,
    restrict_log,
)
from repro.groups import build_access_matrix, build_hierarchy, similarity_graph


@pytest.fixture
def empty_hospital_db():
    db = Database("empty")
    db.create_table(
        TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
        )
    )
    db.create_table(TableSchema.build("Appointments", ["Patient", "Doctor"]))
    return db


class TestEmptyInputs:
    def test_mining_empty_log(self, empty_hospital_db):
        graph = SchemaGraph(empty_hospital_db)
        from repro.core import SchemaAttr

        graph.add_relationship(
            SchemaAttr("Log", "Patient"), SchemaAttr("Appointments", "Patient")
        )
        graph.add_relationship(
            SchemaAttr("Appointments", "Doctor"), SchemaAttr("Log", "User")
        )
        result = OneWayMiner(empty_hospital_db, graph).mine()
        # threshold is 0 on an empty log: templates trivially supported,
        # but none explain anything
        for mined in result.templates:
            assert mined.support == 0

    def test_engine_empty_log(self, empty_hospital_db):
        engine = ExplanationEngine(empty_hospital_db)
        assert engine.coverage() == 0.0
        assert engine.unexplained_lids() == set()

    def test_first_accesses_empty(self, empty_hospital_db):
        assert first_access_lids(empty_hospital_db) == set()

    def test_log_epoch_empty_raises(self, empty_hospital_db):
        with pytest.raises(ValueError):
            log_epoch(empty_hospital_db)

    def test_restrict_to_nothing(self, empty_hospital_db):
        derived = restrict_log(empty_hospital_db, set())
        assert len(derived.table("Log")) == 0

    def test_groups_from_no_accesses(self):
        am = build_access_matrix([])
        assert similarity_graph(am) == {}
        hierarchy = build_hierarchy({})
        assert hierarchy.levels[0] == {}


class TestDegenerateLogs:
    def test_single_access_log(self):
        db = Database()
        db.create_table(
            TableSchema.build(
                "Log",
                [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
            )
        )
        db.table("Log").insert((1, dt.datetime(2010, 1, 4), "u", "p"))
        assert first_access_lids(db) == {1}
        assert lids_on_days(db, [1]) == {1}
        assert lids_on_days(db, [2]) == set()

    def test_same_timestamp_ties_break_by_lid(self):
        db = Database()
        db.create_table(
            TableSchema.build(
                "Log",
                [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
            )
        )
        stamp = dt.datetime(2010, 1, 4, 9, 0)
        db.table("Log").insert((2, stamp, "u", "p"))
        db.table("Log").insert((1, stamp, "u", "p"))
        assert first_access_lids(db) == {1}

    def test_all_accesses_by_one_user(self):
        db = Database()
        db.create_table(
            TableSchema.build(
                "Log",
                [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
            )
        )
        for i in range(5):
            db.table("Log").insert(
                (i, dt.datetime(2010, 1, 4 + i), "solo", f"p{i}")
            )
        am = build_access_matrix(
            (row[2], row[3]) for row in db.table("Log").rows()
        )
        adjacency = similarity_graph(am)
        # one user: no edges, one singleton group
        assert adjacency == {"solo": {}}
        hierarchy = build_hierarchy(adjacency)
        assert len(hierarchy.groups_at(0)) == 1


class TestFailureInjection:
    def test_corrupt_csv_wrong_arity(self, tmp_path):
        """A malformed cell names the table, column and line."""
        schema = TableSchema.build("T", [("a", ColumnType.INT), "b"])
        path = os.path.join(tmp_path, "t.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n1,x\nnot-an-int,y\n")
        with pytest.raises(IntegrityError) as caught:
            read_table_csv(schema, path)
        assert str(caught.value) == (
            "table 'T' line 3: column T.a expects int, got 'not-an-int'"
        )

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,x\n2\n", "table 'T' line 3: expects 2 values, got 1"),
            ("1,x,EXTRA\n", "table 'T' line 2: expects 2 values, got 3"),
        ],
    )
    def test_corrupt_csv_row_length(self, tmp_path, body, message):
        """A record of the wrong length is rejected, not truncated."""
        schema = TableSchema.build("T", [("a", ColumnType.INT), "b"])
        path = os.path.join(tmp_path, "t.csv")
        with open(path, "w") as fh:
            fh.write("a,b\n" + body)
        with pytest.raises(IntegrityError) as caught:
            read_table_csv(schema, path)
        assert str(caught.value) == message

    def test_corrupt_csv_bad_header(self, tmp_path):
        schema = TableSchema.build("T", ["a", "b"])
        path = os.path.join(tmp_path, "t.csv")
        with open(path, "w") as fh:
            fh.write("x,y\n1,2\n")
        with pytest.raises(SchemaError):
            read_table_csv(schema, path)

    def test_empty_csv_gives_empty_table(self, tmp_path):
        schema = TableSchema.build("T", ["a"])
        path = os.path.join(tmp_path, "t.csv")
        open(path, "w").close()
        assert len(read_table_csv(schema, path)) == 0

    def test_fk_violation_reported_not_fatal(self):
        sim = simulate(SimulationConfig.tiny())
        sim.db.table("Log").insert(
            (10**6, dt.datetime(2010, 1, 5), "ghost-user", "p00000")
        )
        violations = sim.db.validate_referential_integrity()
        assert any("ghost-user" in v for v in violations)


class TestBoundaryConfigs:
    def test_one_day_simulation(self):
        sim = simulate(SimulationConfig.tiny().scaled(n_days=1))
        assert sim.log_size > 0
        epoch = log_epoch(sim.db)
        assert all(
            (d.date() - epoch.date()).days == 0
            for d in sim.db.table("Log").column_values("Date")
        )

    def test_zero_noise_and_snoops(self):
        sim = simulate(
            SimulationConfig.tiny().scaled(
                noise_fraction=0.0, n_snooping_incidents=0
            )
        )
        assert not sim.lids_tagged("noise")
        assert not sim.lids_tagged("snoop")

    def test_zero_repeats(self):
        sim = simulate(
            SimulationConfig.tiny().scaled(repeat_rate_per_user_day=0.0)
        )
        assert not sim.lids_tagged("repeat")

    def test_max_length_one_mining(self, fig3_db, fig3_graph):
        cfg = MiningConfig(support_fraction=0.5, max_length=1, max_tables=3)
        result = OneWayMiner(fig3_db, fig3_graph, cfg).mine()
        assert all(m.length <= 1 for m in result.templates)

    def test_two_way_max_length_one(self, fig3_db, fig3_graph):
        cfg = MiningConfig(support_fraction=0.5, max_length=1, max_tables=3)
        result = TwoWayMiner(fig3_db, fig3_graph, cfg).mine()
        assert all(m.length <= 1 for m in result.templates)

    def test_support_threshold_of_one_hundred_percent(self, fig3_db, fig3_graph):
        cfg = MiningConfig(support_fraction=1.0, max_length=4, max_tables=3)
        result = OneWayMiner(fig3_db, fig3_graph, cfg).mine()
        log_size = len(fig3_db.table("Log"))
        assert all(m.support == log_size for m in result.templates)


class TestUnicodeAndExoticValues:
    def test_unicode_ids_roundtrip(self):
        db = Database()
        db.create_table(
            TableSchema.build(
                "Log",
                [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
            )
        )
        db.create_table(TableSchema.build("Appointments", ["Patient", "Doctor"]))
        db.table("Log").insert(
            (1, dt.datetime(2010, 1, 4), "Д-р Иванов", "患者一")
        )
        db.table("Appointments").insert(("患者一", "Д-р Иванов"))
        graph = SchemaGraph(db)
        from repro.core import SchemaAttr

        graph.add_relationship(
            SchemaAttr("Log", "Patient"), SchemaAttr("Appointments", "Patient")
        )
        graph.add_relationship(
            SchemaAttr("Appointments", "Doctor"), SchemaAttr("Log", "User")
        )
        result = OneWayMiner(
            db, graph, MiningConfig(support_fraction=0.5, max_length=2, max_tables=2)
        ).mine()
        assert any(m.support == 1 for m in result.templates)

    def test_evaluator_large_threshold(self, fig3_db, fig3_graph):
        ev = SupportEvaluator(fig3_db)
        from repro.core import Path

        seed = Path.forward_seed(fig3_graph, fig3_graph.start_edges()[0])
        # astronomically high threshold: support_or_skip must still answer
        assert ev.support_or_skip(seed, threshold=10**9) is not None
