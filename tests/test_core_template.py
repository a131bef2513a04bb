"""Tests for explanation templates, instances, and NL rendering."""

import pytest

from repro.core import (
    EdgeKind,
    ExplanationInstance,
    ExplanationTemplate,
    Path,
    SchemaAttr,
    SchemaEdge,
    dedupe_templates,
    rank_instances,
)
from repro.db import AttrRef, Condition, Executor, Literal


def edge(t1, a1, t2, a2, kind=EdgeKind.ADMIN):
    return SchemaEdge(SchemaAttr(t1, a1), SchemaAttr(t2, a2), kind)


@pytest.fixture
def appt_template(fig3_graph):
    path = Path.forward_seed(
        fig3_graph, edge("Log", "Patient", "Appointments", "Patient")
    ).extend_forward(edge("Appointments", "Doctor", "Log", "User"))
    return ExplanationTemplate(
        path=path,
        description=(
            "[L.Patient] had an appointment with [L.User] on "
            "[Appointments_1.Date]."
        ),
        name="appt-with-dr",
    )


class TestTemplateBasics:
    def test_requires_closed_path(self, fig3_graph):
        partial = Path.forward_seed(
            fig3_graph, edge("Log", "Patient", "Appointments", "Patient")
        )
        with pytest.raises(ValueError):
            ExplanationTemplate(path=partial)

    def test_simple_vs_decorated(self, appt_template):
        assert appt_template.is_simple and not appt_template.is_decorated
        decorated = ExplanationTemplate(
            path=appt_template.path,
            decorations=(
                Condition(
                    AttrRef("Appointments_1", "Date"), ">", Literal(0)
                ),
            ),
        )
        assert decorated.is_decorated and not decorated.is_simple

    def test_length_ignores_decorations(self, appt_template):
        decorated = ExplanationTemplate(
            path=appt_template.path,
            decorations=(
                Condition(AttrRef("Appointments_1", "Date"), ">", Literal(0)),
            ),
        )
        assert decorated.length == appt_template.length == 2

    def test_signature_distinguishes_decorations(self, appt_template):
        decorated = ExplanationTemplate(
            path=appt_template.path,
            decorations=(
                Condition(AttrRef("Appointments_1", "Date"), ">", Literal(0)),
            ),
        )
        assert decorated.signature() != appt_template.signature()

    def test_tables_referenced(self, appt_template):
        assert appt_template.tables_referenced() == {"Log", "Appointments"}

    def test_display_name_custom_and_auto(self, appt_template):
        assert appt_template.display_name() == "appt-with-dr"
        anonymous = ExplanationTemplate(path=appt_template.path)
        assert "len2" in anonymous.display_name()
        assert "Appointments" in anonymous.display_name()

    def test_to_sql_both_forms(self, appt_template):
        plain = appt_template.to_sql()
        assert "FROM Log L, Appointments Appointments_1" in plain
        reduced = appt_template.to_sql(reduced=True)
        assert "SELECT DISTINCT" in reduced and "FROM Appointments)" in reduced


class TestQueries:
    def test_support_query_counts(self, fig3_db, appt_template):
        ex = Executor(fig3_db)
        assert ex.count_distinct(appt_template.support_query()) == 1

    def test_instance_query_projection_covers_placeholders(self, appt_template):
        q = appt_template.instance_query()
        assert AttrRef("L", "Lid") in q.projection
        assert AttrRef("Appointments_1", "Date") in q.projection
        assert AttrRef("L", "Patient") in q.projection

    def test_instance_query_lid_restriction(self, fig3_db, appt_template):
        ex = Executor(fig3_db)
        assert ex.execute(appt_template.instance_query(lid=1)).rows
        assert not ex.execute(appt_template.instance_query(lid=2)).rows

    def test_decorations_restrict_support(self, fig3_db, appt_template):
        ex = Executor(fig3_db)
        decorated = ExplanationTemplate(
            path=appt_template.path,
            decorations=(
                Condition(AttrRef("Appointments_1", "Date"), ">", Literal(99)),
            ),
        )
        assert ex.count_distinct(decorated.support_query()) == 0


class TestDescriptionsAndInstances:
    def test_placeholders_parsed(self, appt_template):
        refs = appt_template.placeholders()
        assert AttrRef("L", "Patient") in refs
        assert AttrRef("Appointments_1", "Date") in refs

    def test_auto_description_generated(self, appt_template):
        anonymous = ExplanationTemplate(path=appt_template.path)
        text = anonymous.describe_template()
        assert "[L.User]" in text and "[L.Patient]" in text

    def test_instance_render(self, appt_template):
        inst = ExplanationInstance(
            template=appt_template,
            lid=1,
            bindings={"L.Patient": "Alice", "L.User": "Dave", "Appointments_1.Date": 1},
        )
        assert inst.render() == "Alice had an appointment with Dave on 1."

    def test_unbound_placeholder_left_intact(self, appt_template):
        inst = ExplanationInstance(
            template=appt_template, lid=1, bindings={"L.Patient": "Alice"}
        )
        assert "[L.User]" in inst.render()

    def test_render_matches_placeholder_substitution(self, appt_template):
        """The format compiled at construction fills exactly what a
        regex substitution over the description would: braces stay
        literal, repeats fill twice, malformed brackets are text."""
        import re

        description = (
            "{0} [L.User] saw {x} [L.Patient] ({[L.User]}) [L.User "
            "[Nope.] [L.Missing] %s {{}}"
        )
        template = ExplanationTemplate(
            path=appt_template.path, description=description
        )
        bindings = {"L.User": "Dave", "L.Patient": 7, "Other.X": None}

        def reference(match):
            key = f"{match.group(1)}.{match.group(2)}"
            return str(bindings[key]) if key in bindings else match.group(0)

        expected = re.sub(
            r"\[([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)\]", reference, description
        )
        assert template.render(bindings) == expected
        inst = ExplanationInstance(template=template, lid=1, bindings=bindings)
        assert inst.render() == expected

    def test_derived_constants_are_not_identity(self, appt_template):
        import pickle

        twin = ExplanationTemplate(
            path=appt_template.path,
            description=appt_template.description,
            name=appt_template.name,
        )
        assert twin == appt_template and hash(twin) == hash(appt_template)
        assert appt_template.rank_prefix == (
            appt_template.length,
            appt_template.display_name(),
        )
        copy = pickle.loads(pickle.dumps(appt_template))
        bindings = {"L.Patient": "Alice", "L.User": "Dave"}
        assert copy.render(bindings) == appt_template.render(bindings)
        assert copy.rank_prefix == appt_template.rank_prefix

    def test_rank_ascending_by_length(self, fig3_graph, appt_template):
        long_path = (
            Path.forward_seed(
                fig3_graph, edge("Log", "Patient", "Appointments", "Patient")
            )
            .extend_forward(
                edge("Appointments", "Doctor", "Doctor_Info", "Doctor")
            )
            .extend_forward(
                edge(
                    "Doctor_Info",
                    "Department",
                    "Doctor_Info",
                    "Department",
                    EdgeKind.SELF_JOIN,
                )
            )
            .extend_forward(edge("Doctor_Info", "Doctor", "Log", "User"))
        )
        long_template = ExplanationTemplate(path=long_path, name="dept")
        a = ExplanationInstance(template=long_template, lid=1, bindings={})
        b = ExplanationInstance(template=appt_template, lid=1, bindings={})
        ranked = rank_instances([a, b])
        assert ranked[0].template is appt_template
        assert ranked[0].path_length == 2 and ranked[1].path_length == 4

    def test_str_forms(self, appt_template):
        inst = ExplanationInstance(template=appt_template, lid=1, bindings={})
        assert "lid=1" in str(inst)
        assert "appt-with-dr" in str(appt_template)


class TestDedupe:
    def test_dedupe_by_signature(self, fig3_graph, appt_template):
        # same path built backwards => same signature => deduped
        bwd = Path.backward_seed(
            fig3_graph, edge("Appointments", "Doctor", "Log", "User")
        ).extend_backward(edge("Log", "Patient", "Appointments", "Patient"))
        twin = ExplanationTemplate(path=bwd)
        out = dedupe_templates([appt_template, twin])
        assert len(out) == 1 and out[0] is appt_template

    def test_dedupe_keeps_distinct(self, appt_template, fig3_graph):
        other_path = Path.forward_seed(
            fig3_graph, edge("Log", "Patient", "Appointments", "Patient")
        ).extend_forward(edge("Appointments", "Doctor", "Log", "User"))
        decorated = ExplanationTemplate(
            path=other_path,
            decorations=(
                Condition(AttrRef("Appointments_1", "Date"), ">", Literal(0)),
            ),
        )
        assert len(dedupe_templates([appt_template, decorated])) == 2
