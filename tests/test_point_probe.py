"""Prepared point probes at the template level, on both backends.

``tests/test_differential_executor.py`` pins ``prepare_point`` to the
brute-force reference on random queries; this module pins it on the
queries the engine actually prepares — every handcrafted template plus
mined and decorated ones, pinned on ``L`` and on every other
log-ranging variable — and then checks the two properties a *held*
handle must keep:

* **staleness** — a probe used before and after the table drops its
  caches, is cleared and reloaded, after templates are added and after a
  thousand appends returns what a fresh ``execute`` returns;
* **the ingest verdict** — the instances and flag a monitor takes from
  its maintenance pass equal what an engine built from scratch over the
  grown log explains, for single, back-dated and batched ingests.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from collections import Counter

import pytest
from test_differential_executor import BACKENDS, all_executors, reference_evaluate
from test_streaming import _stream, build_engine

from repro.api import AuditConfig, AuditService
from repro.audit import AccessMonitor
from repro.audit.handcrafted import (
    event_group_template,
    event_user_template,
    repeat_access_template,
)
from repro.core import ExplanationEngine
from repro.core.engine import SEMIJOIN_BATCH_MIN
from repro.core.mining import MiningConfig, OneWayMiner
from repro.db import AttrRef, Condition, Literal, make_executor, open_sql_database
from repro.ehr import EPOCH


def _decorated(template, *conditions):
    return dataclasses.replace(
        template, decorations=template.decorations + tuple(conditions), name=None
    )


def _all_templates(db, graph):
    appt = event_user_template(graph, "Appointments", "Doctor")
    group = event_group_template(graph, "Appointments", "Doctor")
    repeat = repeat_access_template(graph)
    mined = OneWayMiner(
        db, graph, MiningConfig(support_fraction=0.2, max_length=4)
    ).mine()
    assert mined.templates
    return [
        appt,
        group,
        event_group_template(graph, "Appointments", "Doctor", depth=1),
        repeat,
        *(m.template for m in mined.templates),
        # literal decorations: on the pinned variable, on a joined one, NULL
        _decorated(appt, Condition(AttrRef("L", "User"), "=", Literal("Dave"))),
        _decorated(group, Condition(AttrRef("Appointments_1", "Date"), "=", Literal(1))),
        _decorated(appt, Condition(AttrRef("L", "User"), "=", Literal(None))),
        # inequality decorations: against a literal and across variables
        _decorated(appt, Condition(AttrRef("Appointments_1", "Date"), ">=", Literal(1))),
        _decorated(appt, Condition(AttrRef("L", "Date"), ">", AttrRef("Appointments_1", "Date"))),
        _decorated(repeat, Condition(AttrRef("Log_1", "Date"), "!=", Literal(2))),
    ]


@pytest.fixture
def awkward_hospital(hospital_db):
    """The conftest hospital plus the rows a point probe must not trip
    on: a duplicated log id, and NULL join keys on both sides."""
    hospital_db.table("Log").insert_many(
        [
            (130, 10, "Dave", "Alice"),  # lid 130 twice
            (140, 11, None, "Alice"),
            (141, 12, "Dave", None),
            (142, None, "Dave", "Alice"),
        ]
    )
    hospital_db.table("Appointments").insert_many(
        [(None, "Dave", 3), ("Alice", None, 3)]
    )
    hospital_db.table("Groups").insert((1, None, "Nick"))
    return hospital_db


def test_every_template_probe_matches_oracle_and_execute(awkward_hospital, hospital_graph):
    db = awkward_hospital
    lids = sorted(db.table("Log").distinct_values("Lid")) + [7, None]
    pinned_variables = 0
    for template in _all_templates(db, hospital_graph):
        support = template.support_query()
        cases = [(template.instance_query(), AttrRef("L", "Lid"))] + [
            (support, AttrRef(var.alias, "Lid"))
            for var in support.tuple_vars
            if var.table == "Log"
        ]
        pinned_variables += len(cases)
        for query, pin in cases:
            for label, executor in all_executors(db):
                probe = executor.prepare_point(query, pin)
                for lid in lids:
                    pinned = query.pinned(pin, lid)
                    got = Counter(probe(lid))
                    where = f"{template.display_name()} {pin}={lid!r} ({label})"
                    assert got == Counter(reference_evaluate(db, pinned)), where
                    assert got == Counter(executor.execute(pinned).rows), where
    # the repeat-access self-join was pinned on L and on its second log alias
    assert pinned_variables > 2 * len(_all_templates(db, hospital_graph))


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_explain_equals_per_template_instance_queries(
    awkward_hospital, hospital_graph, backend
):
    """``engine.explain`` (prepared probes) returns exactly what executing
    each template's pinned instance query returns."""
    db = awkward_hospital if backend == "memory" else open_sql_database(awkward_hospital, None)
    templates = _all_templates(awkward_hospital, hospital_graph)
    engine = ExplanationEngine(db, templates)
    reference = make_executor(db)
    for lid in [100, 116, 130, 140, 141, 900, 7, None]:
        expected = Counter()
        for template in engine.templates:
            query = template.instance_query().pinned(AttrRef("L", "Lid"), lid)
            names = [str(c) for c in query.projection]
            for row in reference.execute(query).rows:
                expected[(template.display_name(), tuple(zip(names, row)))] += 1
        got = Counter(
            (i.template.display_name(), tuple(i.bindings.items()))
            for i in engine.explain(lid)
        )
        assert got == expected, lid


# ----------------------------------------------------------------------
# staleness: a held probe never reads a dropped index or a replaced table
# ----------------------------------------------------------------------
def _assert_fresh(probe, executor, query, pin, values):
    for value in values:
        assert Counter(probe(value)) == Counter(
            executor.execute(query.pinned(pin, value)).rows
        ), value


def test_probe_survives_cache_drops_reloads_and_growth(hospital_db, hospital_graph):
    log = hospital_db.table("Log")
    executor = make_executor(hospital_db)
    repeat = repeat_access_template(hospital_graph)
    group = event_group_template(hospital_graph, "Appointments", "Doctor")
    held = [
        (q, pin, executor.prepare_point(q, pin))
        for q, pin in (
            (repeat.instance_query(), AttrRef("L", "Lid")),
            (repeat.support_query(), AttrRef("Log_1", "Lid")),
            (group.instance_query(), AttrRef("L", "Lid")),
        )
    ]
    values = [100, 116, 130, 900, 5000, 5999, None]

    def check():
        for query, pin, probe in held:
            _assert_fresh(probe, executor, query, pin, values)

    check()  # first use builds the indexes the probes read
    rows = list(log.rows())
    log.clear()
    assert all(probe(130) == [] for _, _, probe in held)
    log.insert_many(rows)
    check()
    log.insert_many(
        (5000 + i, 20 + i, ("Dave", "Nick", "Eve")[i % 3], ("Alice", "Bob")[i % 2])
        for i in range(1000)
    )
    check()
    # a *replaced* table (what build_groups does) is seen by name
    groups = hospital_db.table("Groups")
    kept = [r for r in groups.rows() if r[2] != "Nick"]
    hospital_db.drop_table("Groups")
    hospital_db.create_table(groups.schema).insert_many(kept)
    check()
    assert held[2][2](100) == []  # Nick left Dave's group


def test_engine_probes_follow_add_templates_and_invalidation(hospital_db, hospital_graph):
    appt = event_user_template(hospital_graph, "Appointments", "Doctor")
    repeat = repeat_access_template(hospital_graph)
    service = AuditService.open(hospital_db, templates=[appt], config=AuditConfig())
    assert {i.template.name for i in service.engine.explain(130)} == {appt.name}
    service.add_templates([repeat])
    assert {i.template.name for i in service.engine.explain(130)} == {
        appt.name,
        repeat.name,
    }
    prepared = service.engine._probes()
    service.engine.invalidate_cache()
    assert service.engine._probes() is prepared  # names only: nothing to drop
    fresh = ExplanationEngine(hospital_db, [appt, repeat])
    for lid in (100, 116, 130, 900):
        assert [i.render() for i in service.engine.explain(lid)] == [
            i.render() for i in fresh.explain(lid)
        ]


def test_warm_prepares_probes_without_building_indexes(hospital_db, hospital_graph):
    """Compilation happens where a writer warms the engine — never on a
    reader — and touches no index or projection the audit did not
    already build."""
    templates = [
        event_user_template(hospital_graph, "Appointments", "Doctor"),
        event_group_template(hospital_graph, "Appointments", "Doctor"),
        repeat_access_template(hospital_graph),
    ]
    engine = ExplanationEngine(hospital_db, templates)
    engine.unexplained_lids()

    def built():
        return {
            t.schema.name: (
                set(t._indexes),
                set(t._distinct_cache),
                set(t._proj_index_cache),
            )
            for t in hospital_db.tables()
        }

    before = built()
    assert engine._prepared is None
    engine.warm()
    assert engine._prepared is not None and built() == before
    service = AuditService.open(hospital_db, templates=templates)
    prepared = service.engine._prepared
    assert prepared is not None
    service.explain(130)
    service.patient_report("Alice")
    assert service.engine._prepared is prepared


# ----------------------------------------------------------------------
# ingest verdicts against a fresh engine
# ----------------------------------------------------------------------
def test_ingest_verdicts_match_fresh_engine_explain():
    """After every ingest — one at a time, back-dated, and a batch large
    enough for the semijoin strategy — each returned access carries what
    an engine built from scratch over the grown log explains."""
    eng, sim = build_engine()
    monitor = AccessMonitor(eng)
    stream = _stream(sim, 12)
    stream.append(stream[0][:2] + (EPOCH + dt.timedelta(days=1),))  # back-dated

    def check(accesses):
        fresh = ExplanationEngine(sim.db, eng.templates)
        for access in accesses:
            expected = fresh.explain(access.lid)
            assert [i.render() for i in access.instances] == [
                i.render() for i in expected
            ], access.lid
            assert access.suspicious == (not expected), access.lid
        assert eng.unexplained_lids() == fresh.unexplained_lids()

    for user, patient, date in stream:
        check([monitor.ingest(user, patient, date)])
    check(monitor.ingest_many(_stream(sim, SEMIJOIN_BATCH_MIN)))
