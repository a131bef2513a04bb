"""Tests for the ExplanationEngine facade: explaining accesses, coverage,
and the misuse-detection (unexplained) queue — paper Example 1.1."""

import pytest

from repro.core import (
    EdgeKind,
    ExplanationEngine,
    ExplanationTemplate,
    Path,
    SchemaAttr,
    SchemaEdge,
)
from repro.db import AttrRef, Condition


def edge(t1, a1, t2, a2, kind=EdgeKind.ADMIN):
    return SchemaEdge(SchemaAttr(t1, a1), SchemaAttr(t2, a2), kind)


@pytest.fixture
def templates(hospital_graph):
    appt = ExplanationTemplate(
        path=Path.forward_seed(
            hospital_graph, edge("Log", "Patient", "Appointments", "Patient")
        ).extend_forward(edge("Appointments", "Doctor", "Log", "User")),
        description="[L.Patient] had an appointment with [L.User].",
        name="appt-with-dr",
    )
    group = ExplanationTemplate(
        path=(
            Path.forward_seed(
                hospital_graph, edge("Log", "Patient", "Appointments", "Patient")
            )
            .extend_forward(edge("Appointments", "Doctor", "Groups", "User"))
            .extend_forward(
                edge("Groups", "Group_id", "Groups", "Group_id", EdgeKind.SELF_JOIN)
            )
            .extend_forward(edge("Groups", "User", "Log", "User"))
        ),
        description=(
            "[L.Patient] had an appointment with [Groups_2.User], and "
            "[L.User] works with [Groups_2.User]."
        ),
        name="appt-with-group",
    )
    repeat = ExplanationTemplate(
        path=Path.forward_seed(
            hospital_graph,
            edge("Log", "Patient", "Log", "Patient", EdgeKind.SELF_JOIN),
        ).extend_forward(edge("Log", "User", "Log", "User", EdgeKind.SELF_JOIN)),
        decorations=(
            Condition(AttrRef("L", "Date"), ">", AttrRef("Log_1", "Date")),
        ),
        description="[L.User] previously accessed [L.Patient]'s record.",
        name="repeat-access",
    )
    return [appt, group, repeat]


@pytest.fixture
def engine(hospital_db, templates):
    return ExplanationEngine(hospital_db, templates)


class TestExplainedSets:
    def test_appt_template_lids(self, engine, templates):
        # Dave accessed Alice twice (116, 130); Alice had appt with Dave
        assert engine.explained_lids(templates[0]) == {116, 130}

    def test_group_template_lids(self, engine, templates):
        # Nick and Ron are in Dave's group; Dave's own accesses also covered
        assert engine.explained_lids(templates[1]) == {100, 116, 127, 130}

    def test_repeat_template_lids(self, engine, templates):
        # only lid 130 is a strictly-later re-access by the same user
        assert engine.explained_lids(templates[2]) == {130}

    def test_all_explained_and_unexplained(self, engine):
        assert engine.all_explained_lids() == {100, 116, 127, 130}
        # Eve's access to Bob (900) has no explanation: the misuse queue
        assert engine.unexplained_lids() == {900}

    def test_coverage(self, engine):
        assert engine.coverage() == pytest.approx(4 / 5)

    def test_coverage_empty_log(self, hospital_db, templates):
        hospital_db.table("Log").clear()
        engine = ExplanationEngine(hospital_db, templates)
        assert engine.coverage() == 0.0


class TestExplain:
    def test_explained_access_ranked_by_length(self, engine):
        instances = engine.explain(116)
        assert instances
        # shortest explanation (appt, length 2) ranks first
        assert instances[0].template.name == "appt-with-dr"
        assert instances[0].path_length == 2
        lengths = [i.path_length for i in instances]
        assert lengths == sorted(lengths)

    def test_nurse_access_explained_via_group(self, engine):
        instances = engine.explain(100)
        assert {i.template.name for i in instances} == {"appt-with-group"}
        text = instances[0].render()
        assert "Alice" in text and "Dave" in text and "Nick" in text

    def test_unexplained_access_yields_empty(self, engine):
        assert engine.explain(900) == []

    def test_explain_or_flag(self, engine):
        _, suspicious = engine.explain_or_flag(900)
        assert suspicious
        _, suspicious = engine.explain_or_flag(116)
        assert not suspicious

    def test_repeat_decoration_respected(self, engine):
        # lid 116 (Dave's first access) must NOT be explained by repeat
        names = {i.template.name for i in engine.explain(116)}
        assert "repeat-access" not in names
        names130 = {i.template.name for i in engine.explain(130)}
        assert "repeat-access" in names130


class TestEngineManagement:
    def test_duplicate_templates_deduped(self, hospital_db, templates):
        engine = ExplanationEngine(hospital_db, templates + templates)
        assert len(engine.templates) == len(templates)

    def test_cache_invalidation(self, engine, hospital_db, templates):
        assert engine.explained_lids(templates[0]) == {116, 130}
        hospital_db.table("Log").insert((131, 10, "Dave", "Alice"))
        engine.invalidate_cache()
        assert 131 in engine.explained_lids(templates[0])


def test_engine_coverage_counts_and_support_counts(fig3_db, fig3_graph):
    from repro.audit.handcrafted import event_user_template

    template = event_user_template(fig3_graph, "Appointments", "Doctor")
    engine = ExplanationEngine(fig3_db, [template])
    total, unexplained = engine.coverage_counts()
    assert total == len(engine.all_lids())
    assert unexplained == len(engine.unexplained_lids())
    if total:
        assert engine.coverage() == (total - unexplained) / total
    (count,) = engine.support_counts([template])
    assert count == len(engine.explained_lids(template))
