"""Focused tests for small helpers not covered elsewhere."""

import pytest

from repro.db import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    QueryError,
    TupleVar,
)
from repro.db.executor import explain_query
from repro.evalx import PrecisionRecall


class TestExplainQueryHelper:
    def test_plan_summary(self, fig3_db):
        L, A = TupleVar("L", "Log"), TupleVar("A", "Appointments")
        q = ConjunctiveQuery.build(
            [L, A],
            [
                Condition(AttrRef("L", "Patient"), "=", AttrRef("A", "Patient")),
                Condition(AttrRef("A", "Doctor"), "=", AttrRef("L", "User")),
            ],
            [AttrRef("L", "Lid")],
        )
        text = explain_query(fig3_db, q)
        assert "2 vars" in text and "2 joins" in text and "0 filters" in text

    def test_names_driver_and_stage_kinds(self, hospital_db):
        """``drive`` describes the whole-log batch semijoin of
        ``explain_all``: a chain template runs over the log's distinct
        join keys with a semijoin stage; so does repeat-access, whose
        ``Log_1`` is not joined at all: its ``Date`` inequality keeps the
        ids whose date beats their key's minimum."""
        from repro.audit.handcrafted import event_user_template, repeat_access_template
        from repro.core import SchemaGraph

        graph, lid = SchemaGraph(hospital_db), AttrRef("L", "Lid")
        appointments = event_user_template(graph, "Appointments", "Doctor")
        assert explain_query(hospital_db, appointments.support_query(), lid) == (
            "join pipeline over 2 vars (L:5, Appointments_1:2); 2 joins, "
            "0 filters; drives from L keys (Patient, User), "
            "Appointments_1 semijoin"
        )
        repeat = repeat_access_template(graph)
        assert explain_query(hospital_db, repeat.support_query(), lid) == (
            "join pipeline over 2 vars (L:5, Log_1:5); 2 joins, 1 filters; "
            "drives from L keys (Patient, User), ids by L.Date > min(Log_1.Date)"
        )


class TestConditionHelpers:
    def test_flipped_inequality(self):
        c = Condition(AttrRef("A", "x"), "<", AttrRef("B", "y"))
        flipped = c.flipped()
        assert flipped.op == ">" and flipped.left == AttrRef("B", "y")

    def test_flip_literal_rejected(self):
        from repro.db import Literal

        c = Condition(AttrRef("A", "x"), "<", Literal(1))
        with pytest.raises(QueryError):
            c.flipped()

    def test_canonical_orders_equality(self):
        c = Condition(AttrRef("B", "y"), "=", AttrRef("A", "x"))
        canon = c.canonical()
        assert canon.left == AttrRef("A", "x")

    def test_is_join_classification(self):
        from repro.db import Literal

        join = Condition(AttrRef("A", "x"), "=", AttrRef("B", "y"))
        same_var = Condition(AttrRef("A", "x"), "=", AttrRef("A", "y"))
        literal = Condition(AttrRef("A", "x"), "=", Literal(1))
        ineq = Condition(AttrRef("A", "x"), "<", AttrRef("B", "y"))
        assert join.is_join
        assert not same_var.is_join
        assert not literal.is_join
        assert not ineq.is_join


class TestMetricsHelpers:
    def test_as_row_keys(self):
        row = PrecisionRecall(1, 1, 2, 2).as_row()
        assert set(row) == {"precision", "recall", "recall_normalized"}

    def test_str_contains_counts(self):
        text = str(PrecisionRecall(3, 1, 10, 8))
        assert "3/10 real" in text and "1 fake" in text


class TestQueryAccessors:
    def test_var_lookup(self):
        L = TupleVar("L", "Log")
        q = ConjunctiveQuery.build([L], [], [AttrRef("L", "Lid")])
        assert q.var("L") is L or q.var("L") == L
        with pytest.raises(QueryError):
            q.var("X")

    def test_join_vs_filter_split(self):
        from repro.db import Literal

        L, A = TupleVar("L", "Log"), TupleVar("A", "Appointments")
        q = ConjunctiveQuery.build(
            [L, A],
            [
                Condition(AttrRef("L", "Patient"), "=", AttrRef("A", "Patient")),
                Condition(AttrRef("A", "Date"), ">", Literal(0)),
            ],
            [AttrRef("L", "Lid")],
        )
        assert len(q.join_conditions()) == 1
        assert len(q.filter_conditions()) == 1


class TestSimulationResultHelpers:
    def test_lids_tagged_multiple(self):
        from repro.ehr import SimulationConfig, simulate

        sim = simulate(SimulationConfig.tiny(seed=4))
        both = sim.lids_tagged("noise", "snoop")
        assert both == sim.lids_tagged("noise") | sim.lids_tagged("snoop")

    def test_group_profile_top_departments(self):
        from repro.evalx import GroupProfile

        profile = GroupProfile(
            group_id=1,
            size=5,
            departments=(("A", 3), ("B", 1), ("C", 1)),
        )
        assert profile.top_departments(2) == [("A", 3), ("B", 1)]
