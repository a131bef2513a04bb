"""End-to-end integration tests: the full paper pipeline on a tiny
hospital — simulate, infer groups, mine with every algorithm, explain,
and detect misuse — with cross-checks against the simulator's hidden
ground truth."""

import pytest

from repro.api import AuditService
from repro.audit import (
    all_event_user_templates,
    group_templates,
    repeat_access_template,
)
from repro.core import (
    BridgedMiner,
    ExplanationEngine,
    MiningConfig,
    OneWayMiner,
    TwoWayMiner,
)
from repro.ehr import SimulationConfig, build_careweb_graph
from repro.evalx import (
    CareWebStudy,
    event_frequency,
    group_predictive_power,
    mined_predictive_power,
    overall_coverage,
    template_stability,
)


@pytest.fixture(scope="module")
def study():
    return CareWebStudy.prepare(SimulationConfig.small(seed=21))


@pytest.fixture(scope="module")
def mining_result(study):
    config = MiningConfig(support_fraction=0.01, max_length=4, max_tables=3)
    return OneWayMiner(study.mining_db(), study.mining_graph(), config).mine()


class TestFullPipeline:
    def test_all_algorithms_agree_on_careweb(self, study):
        config = MiningConfig(support_fraction=0.02, max_length=4, max_tables=3)
        db, graph = study.mining_db(), study.mining_graph()
        results = [
            OneWayMiner(db, graph, config).mine(),
            TwoWayMiner(db, graph, config).mine(),
            BridgedMiner(db, graph, config, bridge_length=2).mine(),
            BridgedMiner(db, graph, config, bridge_length=3).mine(),
        ]
        sigs = [r.signatures() for r in results]
        assert all(s == sigs[0] for s in sigs)
        supports = [
            {m.template.signature(): m.support for m in r.templates}
            for r in results
        ]
        assert all(s == supports[0] for s in supports)

    def test_mined_lengths_shape(self, mining_result):
        by_length = mining_result.templates_by_length()
        # the paper's Table 1 shape: len3 dominates, len2 and len4 small
        assert len(by_length.get(3, [])) > len(by_length.get(2, []))
        assert len(by_length.get(3, [])) > len(by_length.get(4, []))
        assert len(by_length.get(2, [])) >= 5

    def test_group_templates_mined(self, mining_result):
        tables = [m.template.tables_referenced() for m in mining_result.templates]
        assert any("Groups" in t for t in tables)
        assert any("Users" in t for t in tables)

    def test_headline_coverage(self, study):
        # the paper's flagship number is >94%; the tiny hospital with its
        # deliberate extract gaps still explains the vast majority
        assert overall_coverage(study) > 0.85

    def test_event_coverage_shape(self, study):
        all_acc = event_frequency(study.db)
        first_acc = event_frequency(
            study.db, lids=study.first_lids(), include_repeat=False
        )
        assert all_acc["All"] > first_acc["All"]

    def test_snooping_lands_in_queue(self, study):
        graph = build_careweb_graph(study.db)
        templates = all_event_user_templates(graph)
        templates.append(repeat_access_template(graph))
        templates.extend(group_templates(graph, depth=1))
        with AuditService.open(study.db, templates=templates) as service:
            queue = {e.lid for e in service.report().queue}
        snoops = study.sim.lids_tagged("snoop")
        assert snoops, "fixture must script snooping incidents"
        assert snoops <= queue

    def test_queue_is_small_fraction(self, study):
        graph = build_careweb_graph(study.db)
        templates = all_event_user_templates(graph)
        templates.append(repeat_access_template(graph))
        templates.extend(group_templates(graph, depth=1))
        engine = ExplanationEngine(study.db, templates)
        total = len(engine.all_lids())
        assert len(engine.unexplained_lids()) < total * 0.2

    def test_mined_power_improves_with_length(self, study, mining_result):
        rows = mined_predictive_power(study, mining_result=mining_result)
        by_label = {r.label: r.scores for r in rows}
        assert by_label["All"].recall >= by_label["2"].recall

    def test_group_power_depth1_beats_samedept(self, study):
        rows = group_predictive_power(study)
        by_label = {r.label: r.scores for r in rows}
        assert by_label["1"].recall > by_label["Same Dept."].recall

    def test_stability_common_core(self, study):
        config = MiningConfig(support_fraction=0.02, max_length=3, max_tables=3)
        stability = template_stability(study, config=config)
        assert stability.common.get(2, 0) >= 3

    def test_explain_known_access(self, study, mining_result):
        from repro.audit import with_careweb_description

        engine = ExplanationEngine(
            study.db,
            [with_careweb_description(m.template) for m in mining_result.templates],
        )
        doctor_lids = sorted(study.sim.lids_tagged("appt-doctor"))
        explained_any = 0
        for lid in doctor_lids[:25]:
            instances = engine.explain(lid)
            if instances:
                explained_any += 1
                assert instances[0].path_length <= instances[-1].path_length
                assert "accessed" in instances[0].render()
        assert explained_any > 10
