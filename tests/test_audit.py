"""Tests for the audit layer: hand-crafted templates, NL rendering, and
the service's patient portal and compliance report — on a tiny simulated
hospital."""

import pytest

from repro.api import AuditService
from repro.audit import (
    all_event_user_templates,
    dataset_a_doctor_templates,
    describe_careweb_path,
    event_group_template,
    event_same_department_template,
    event_user_template,
    group_templates,
    repeat_access_template,
    same_department_templates,
    with_careweb_description,
)
from repro.core import ExplanationEngine, SupportEvaluator
from repro.db import AttrRef, Executor
from repro.ehr import SimulationConfig, build_careweb_graph, simulate
from repro.groups import build_groups_table, hierarchy_from_log


@pytest.fixture(scope="module")
def sim():
    return simulate(SimulationConfig.tiny())


@pytest.fixture(scope="module")
def db(sim):
    hierarchy, _ = hierarchy_from_log(sim.db)
    build_groups_table(sim.db, hierarchy)
    return sim.db


@pytest.fixture(scope="module")
def graph(db):
    return build_careweb_graph(db)


class TestHandcraftedTemplates:
    def test_event_user_template_shape(self, graph):
        t = event_user_template(graph, "Appointments", "Doctor")
        assert t.length == 2 and t.is_simple
        assert t.tables_referenced() == {"Log", "Appointments"}
        assert "appointment" in t.describe_template()

    def test_repeat_access_is_decorated(self, graph):
        t = repeat_access_template(graph)
        assert t.is_decorated
        assert t.length == 2
        assert t.tables_referenced() == {"Log"}

    def test_group_template_depth_decoration(self, graph):
        t0 = event_group_template(graph, "Appointments", "Doctor")
        t1 = event_group_template(graph, "Appointments", "Doctor", depth=1)
        assert t0.is_simple and t1.is_decorated
        assert t0.length == t1.length == 4
        assert t0.signature() != t1.signature()

    def test_same_department_template(self, graph):
        t = event_same_department_template(graph, "Visits", "Doctor")
        assert t.length == 4
        assert "Users" in t.tables_referenced()

    def test_dataset_a_bundle(self, graph):
        templates = dataset_a_doctor_templates(graph)
        assert len(templates) == 3
        assert all(t.length == 2 for t in templates)

    def test_all_event_user_bundle(self, graph):
        templates = all_event_user_templates(graph)
        # 10 event-table user columns (Log excluded)
        assert len(templates) == 10

    def test_group_bundle_with_depth(self, graph):
        templates = group_templates(graph, depth=1)
        assert len(templates) == 3
        assert all(t.is_decorated for t in templates)

    def test_same_dept_bundle(self, graph):
        assert len(same_department_templates(graph)) == 3


class TestTemplateSemantics:
    """Hand-crafted templates must explain exactly the right ground-truth
    access classes (checked against the simulator's hidden reason tags)."""

    def test_appt_template_explains_doctor_accesses(self, sim, db, graph):
        engine = ExplanationEngine(db)
        explained = engine.explained_lids(
            event_user_template(graph, "Appointments", "Doctor")
        )
        doctor_lids = sim.lids_tagged("appt-doctor")
        # a solid majority of treating-doctor accesses are explainable
        # (gaps come only from the simulated extract dropout)
        assert len(explained & doctor_lids) / len(doctor_lids) > 0.5

    def test_repeat_template_matches_structural_repeats(self, db, graph):
        from repro.evalx import repeat_access_lids

        engine = ExplanationEngine(db)
        explained = engine.explained_lids(repeat_access_template(graph))
        assert explained == repeat_access_lids(db)

    def test_group_templates_cover_care_team(self, sim, db, graph):
        engine = ExplanationEngine(db)
        explained = set()
        for t in group_templates(graph, depth=1):
            explained |= engine.explained_lids(t)
        team_lids = sim.lids_tagged("care-team")
        assert len(explained & team_lids) / len(team_lids) > 0.4

    def test_support_query_counts_the_explained_set(self, db, graph):
        """``COUNT(DISTINCT L.Lid)`` of a length-2, a length-4 group and
        the log self-join template is the size of its explained set, none
        empty; a repeated support lookup is answered from the cache."""
        engine = ExplanationEngine(db)
        executor = Executor(db)
        for template in (
            event_user_template(graph, "Appointments", "Doctor"),
            event_group_template(graph, "Appointments", "Doctor", depth=1),
            repeat_access_template(graph),
        ):
            count = executor.count_distinct(template.support_query())
            assert count == len(engine.explained_lids(template)) > 0
        evaluator = SupportEvaluator(db)
        query = event_user_template(graph, "Labs", "Performer").support_query()
        first = evaluator.support_of_query(query, AttrRef("L", "Lid"))
        assert evaluator.support_of_query(query, AttrRef("L", "Lid")) == first
        assert evaluator.stats.cache_hits == 1

    def test_snooping_not_explained_by_direct_templates(self, sim, db, graph):
        engine = ExplanationEngine(db)
        explained = set()
        for t in dataset_a_doctor_templates(graph):
            explained |= engine.explained_lids(t)
        snoops = sim.lids_tagged("snoop")
        assert not (explained & snoops)


class TestNaturalLanguage:
    def test_describe_known_tables(self, graph):
        t = event_user_template(graph, "Medications", "Signer")
        text = t.describe_template()
        assert "medication" in text and "[L.User]" in text

    def test_describe_path_for_groups(self, graph):
        t = event_group_template(graph, "Appointments", "Doctor")
        text = describe_careweb_path(t.path)
        assert "collaborative group" in text

    def test_describe_repeat(self, graph):
        t = repeat_access_template(graph)
        assert "previously accessed" in t.describe_template()

    def test_with_description_no_overwrite(self, graph):
        t = event_user_template(graph, "Visits", "Doctor")
        assert with_careweb_description(t) is t

    def test_with_description_fills_missing(self, graph):
        from repro.core import ExplanationTemplate

        bare = ExplanationTemplate(
            path=event_user_template(graph, "Visits", "Doctor").path
        )
        enriched = with_careweb_description(bare)
        assert enriched.description is not None
        assert "visit" in enriched.description


@pytest.fixture(scope="module")
def service(db, graph):
    templates = dataset_a_doctor_templates(graph)
    templates.append(repeat_access_template(graph))
    templates.extend(group_templates(graph, depth=1))
    templates.extend(all_event_user_templates(graph))
    with AuditService.open(db, templates=templates) as service:
        yield service


class TestPortal:
    def test_report_covers_all_accesses(self, service, db):
        patient = next(iter(db.table("Log").distinct_values("Patient")))
        entries = service.patient_report(patient).entries
        assert len(entries) == len(db.table("Log").lookup("Patient", patient))

    def test_entries_sorted_by_time(self, service, db):
        patient = sorted(db.table("Log").distinct_values("Patient"))[0]
        entries = service.patient_report(patient).entries
        dates = [e.date for e in entries]
        assert dates == sorted(dates)

    def test_suspicious_flag(self, service, sim):
        snoops = sim.lids_tagged("snoop")
        if not snoops:
            pytest.skip("no snooping incidents in this seed")
        lid = next(iter(snoops))
        log = sim.db.table("Log")
        row = [r for r in log.rows() if r[0] == lid][0]
        entries = service.patient_report(row[3]).entries
        flagged = {e.lid for e in entries if e.suspicious}
        assert lid in flagged or lid in {
            e.lid for e in entries if not e.explanations
        }


class TestComplianceReport:
    def test_queue_sorted_and_unexplained(self, service):
        queue = service.report().queue
        assert {e.lid for e in queue} == service.unexplained_lids()
        dates = [e.date for e in queue]
        assert dates == sorted(dates)

    def test_snoops_in_queue(self, service, sim):
        queue_lids = {e.lid for e in service.report().queue}
        snoops = sim.lids_tagged("snoop")
        # scripted snooping incidents must surface in the review queue
        assert snoops <= queue_lids

    def test_risk_ranking_descending(self, service):
        counts = [n for _, n in service.report().user_risk]
        assert counts == sorted(counts, reverse=True)

    def test_summary_format(self, service):
        text = service.summary()
        assert "review queue" in text and "explained" in text
