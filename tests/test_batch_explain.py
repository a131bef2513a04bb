"""Property tests for the set-at-a-time (batch semijoin) engine path.

The contract under test: ``ExplanationEngine.explain_batch`` — one
semijoin per template — partitions a set of accesses exactly as the
per-access/point machinery would, on arbitrary interleavings of appends;
``notify_appended_many``'s semijoin strategy computes the same delta as
the per-row point strategy; and the plan cache never re-plans a repeated
template shape while staying correct as tables grow underneath a cached
plan.
"""

from __future__ import annotations

import random

import pytest

from repro.audit import AccessMonitor, all_event_user_templates
from repro.audit.handcrafted import (
    event_group_template,
    event_user_template,
    repeat_access_template,
)
from repro.core import ExplanationEngine
from repro.core.engine import SEMIJOIN_BATCH_MIN, BatchExplanation
from repro.db import AttrRef, ColumnType, Database, Executor, TableSchema
from repro.db.optimizer import PlanCache
from repro.ehr import SimulationConfig, build_careweb_graph, simulate

USERS = ["Dave", "Nick", "Ron", "Eve", "Sam", "Zed"]
PATIENTS = ["Alice", "Bob", "Carol"]


def _hospital() -> Database:
    db = Database("hospital")
    log = db.create_table(
        TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.INT), "User", "Patient"],
            primary_key=["Lid"],
        )
    )
    appts = db.create_table(
        TableSchema.build(
            "Appointments", ["Patient", "Doctor", ("Date", ColumnType.INT)]
        )
    )
    groups = db.create_table(
        TableSchema.build(
            "Groups",
            [("Group_Depth", ColumnType.INT), ("Group_id", ColumnType.INT), "User"],
        )
    )
    log.insert_many(
        [
            (100, 1, "Nick", "Alice"),
            (116, 2, "Dave", "Alice"),
            (130, 9, "Dave", "Alice"),
            (900, 4, "Eve", "Bob"),
        ]
    )
    appts.insert_many([("Alice", "Dave", 1), ("Bob", "Sam", 2)])
    groups.insert_many(
        [(1, 10, "Dave"), (1, 10, "Nick"), (1, 10, "Ron"), (1, 11, "Sam")]
    )
    return db


def _templates(db: Database):
    from repro.core import SchemaGraph

    graph = SchemaGraph(db)
    graph.allow_self_join("Groups", "Group_id")
    graph.allow_self_join("Log", "Patient")
    graph.allow_self_join("Log", "User")
    return [
        event_user_template(graph, "Appointments", "Doctor"),
        event_group_template(graph, "Appointments", "Doctor"),
        repeat_access_template(graph),
    ]


def _engine(db: Database, **kw) -> ExplanationEngine:
    return ExplanationEngine(db, _templates(db), **kw)


def _random_appends(rng: random.Random, db: Database, n: int) -> list[int]:
    lids = []
    next_lid = 1000
    for _ in range(n):
        row = (next_lid, rng.randrange(0, 20), rng.choice(USERS), rng.choice(PATIENTS))
        db.table("Log").insert(row)
        lids.append(next_lid)
        next_lid += rng.choice([1, 1, 2, 7])
    return lids


# ----------------------------------------------------------------------
# explain_batch == the sequential notify_appended path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_explain_batch_equals_sequential_notify(seed):
    """Appends maintained one-by-one vs one cold batch partition."""
    rng = random.Random(9000 + seed)
    db = _hospital()
    sequential = _engine(db)
    if rng.random() < 0.5:
        sequential.coverage()  # warm aggregates up front on some runs
    appended = []
    for _ in range(rng.randrange(3, 20)):
        appended += _random_appends(rng, db, 1)
        sequential.notify_appended(appended[-1])
        if rng.random() < 0.3:
            sequential.unexplained_lids()  # mid-stream reads
    batch_engine = _engine(db)  # cold: sees only the final log
    result = batch_engine.explain_batch(appended)
    explained = set(appended) & sequential.all_explained_lids()
    assert set(result.explained) == explained
    assert set(result.unexplained) == set(appended) - explained
    # and the whole-log partition agrees with the sequential aggregates
    whole = batch_engine.explain_all()
    assert set(whole.explained) == sequential.all_explained_lids()
    assert set(whole.unexplained) == sequential.unexplained_lids()


@pytest.mark.parametrize("seed", range(8))
def test_semijoin_delta_equals_point_delta(seed):
    """notify_appended_many: semijoin and point strategies, same delta."""
    rng = random.Random(9500 + seed)
    db_a, db_b = _hospital(), _hospital()
    point = _engine(db_a)
    semi = _engine(db_b)
    point.unexplained_lids()
    semi.unexplained_lids()
    batch_a = _random_appends(rng, db_a, rng.randrange(1, 12))
    batch_b = list(batch_a)
    for _lid, row in zip(batch_b, db_a.table("Log").rows()[-len(batch_a):]):
        db_b.table("Log").insert(row)
    newly_point = point.notify_appended_many(batch_a, use_semijoin=False)
    newly_semi = semi.notify_appended_many(batch_b, use_semijoin=True)
    assert newly_point == newly_semi
    assert point.all_explained_lids() == semi.all_explained_lids()
    assert point.unexplained_lids() == semi.unexplained_lids()
    fresh = _engine(db_a)
    assert point.all_explained_lids() == fresh.all_explained_lids()


def test_semijoin_delta_retro_explains_older_access():
    """A back-dated batch retro-explains older rows via the self-join."""
    db = _hospital()
    engine = _engine(db)
    engine.unexplained_lids()
    db.table("Log").insert((1500, 10, "Zed", "Carol"))
    engine.notify_appended(1500)
    assert 1500 in engine.unexplained_lids()
    # a big batch containing Zed's *earlier* access (out-of-order arrival)
    batch = []
    for i in range(10):
        lid = 1600 + i
        db.table("Log").insert((lid, 5, "Zed", "Carol"))
        batch.append(lid)
    newly = engine.notify_appended_many(batch, use_semijoin=True)
    assert 1500 in newly
    assert 1500 in engine.all_explained_lids()
    fresh = _engine(db)
    assert engine.all_explained_lids() == fresh.all_explained_lids()
    assert engine.unexplained_lids() == fresh.unexplained_lids()


def test_notify_auto_strategy_thresholds():
    """use_semijoin=None routes small batches to point, large to semijoin."""
    db = _hospital()
    engine = _engine(db)
    engine.unexplained_lids()
    small = _random_appends(random.Random(1), db, SEMIJOIN_BATCH_MIN - 1)
    before = engine.executor.queries_executed
    engine.notify_appended_many(small)
    point_queries = engine.executor.queries_executed - before
    large = _random_appends(random.Random(2), db, SEMIJOIN_BATCH_MIN)
    before = engine.executor.queries_executed
    engine.notify_appended_many(large)
    semijoin_queries = engine.executor.queries_executed - before
    # the semijoin pass is O(templates × log-vars), flat in batch size
    assert semijoin_queries <= 2 * len(engine.templates)
    assert point_queries >= len(small)  # point path scales with the batch


# ----------------------------------------------------------------------
# explain_batch / explain_all surface
# ----------------------------------------------------------------------
def test_explain_batch_empty_and_unknown_ids():
    engine = _engine(_hospital())
    empty = engine.explain_batch([])
    assert empty.explained == frozenset() and empty.unexplained == frozenset()
    assert empty.coverage == 0.0
    result = engine.explain_batch([116, 424242, None])
    assert 116 in result.explained  # Dave has an appointment with Alice
    assert 424242 in result.unexplained  # not in the log at all
    assert None in result.unexplained  # NULL ids never match
    assert result.is_explained(116) and not result.is_explained(424242)


def test_explain_batch_partition_tiles_batch():
    engine = _engine(_hospital())
    batch = [100, 116, 130, 900]
    result = engine.explain_batch(batch)
    assert result.explained | result.unexplained == set(batch)
    assert not result.explained & result.unexplained
    assert len(result) == len(batch)
    assert result.coverage == pytest.approx(len(result.explained) / len(batch))


def test_batch_equals_per_access_point_queries_on_a_simulated_world():
    """On a simulated log with the ten event-user templates plus repeat
    access, one batch semijoin partitions the first accesses exactly as
    pinning each support query to one log id at a time does."""
    db = simulate(SimulationConfig.tiny(seed=7)).db
    graph = build_careweb_graph(db)
    templates = all_event_user_templates(graph) + [repeat_access_template(graph)]
    lids = sorted(db.table("Log").distinct_values("Lid"))[:300]
    batch = ExplanationEngine(db, templates).explain_batch(lids)
    assert batch.explained | batch.unexplained == set(lids)
    assert not batch.explained & batch.unexplained
    assert batch.explained and batch.unexplained
    executor, pin = Executor(db), AttrRef("L", "Lid")
    queries = [t.support_query() for t in templates]
    point = {
        lid
        for lid in lids
        if any(executor.distinct_values(q.pinned(pin, lid), pin) for q in queries)
    }
    assert point == batch.explained


def test_batch_and_point_engine_paths_agree():
    """The whole-log semijoin pass equals the union of every template's
    own full evaluation, and the aggregates built from it agree."""
    db = _hospital()
    batch_engine = _engine(db)
    point_engine = _engine(db)
    union: set = set()
    for template in point_engine.templates:
        union |= point_engine.explained_lids(template)
    assert batch_engine.explain_all().explained == union
    assert batch_engine.all_explained_lids() == union
    assert batch_engine.unexplained_lids() == point_engine.all_lids() - union
    assert batch_engine.coverage() == pytest.approx(
        1 - len(point_engine.all_lids() - union) / len(point_engine.all_lids())
    )


def test_explain_all_warms_per_template_caches():
    """A whole-log batch IS each template's full explained set."""
    engine = _engine(_hospital())
    engine.explain_all()
    for template in engine.templates:
        if engine._sig(template) in engine._lid_cache:
            fresh = _engine(engine.db)
            assert engine._lid_cache[engine._sig(template)] == (
                fresh.explained_lids(fresh.templates[engine.templates.index(template)])
            )


def test_batch_explanation_is_frozen():
    result = BatchExplanation(frozenset([1]), frozenset([2]))
    with pytest.raises(AttributeError):
        result.explained = frozenset()


# ----------------------------------------------------------------------
# monitor routing
# ----------------------------------------------------------------------
#: How each batch mode splits the stream into ``ingest_many`` calls: one
#: batch (the engine picks by size), batches of SEMIJOIN_BATCH_MIN (the
#: semijoin strategy, the remainder by point probes), batches of 2 (point).
BATCH_SIZES = {None: None, True: SEMIJOIN_BATCH_MIN, False: 2}


@pytest.mark.parametrize("batch_mode", [None, True, False])
def test_monitor_batch_modes_match_one_by_one(batch_mode):
    db_a, db_b = _hospital(), _hospital()
    one = AccessMonitor(_engine(db_a))
    many = AccessMonitor(_engine(db_b))
    stream = [
        ("Zed", "Carol", 30),
        ("Dave", "Alice", 31),
        ("Zed", "Carol", 32),  # repeat of the first streamed access
        ("Ron", "Alice", 33),  # Ron is in Dave's group
        ("Eve", "Carol", 34),
        ("Nick", "Bob", 35),
        ("Sam", "Bob", 36),
        ("Eve", "Carol", 37),
        ("Zed", "Bob", 38),
    ]
    singles = [one.ingest(u, p, d) for u, p, d in stream]
    size = BATCH_SIZES[batch_mode] or len(stream)
    batched = [
        access
        for i in range(0, len(stream), size)
        for access in many.ingest_many(stream[i : i + size])
    ]
    assert [a.lid for a in batched] == [a.lid for a in singles]
    assert [a.suspicious for a in batched] == [a.suspicious for a in singles]
    assert many.alerts == one.alerts
    assert many.engine.unexplained_lids() == one.engine.unexplained_lids()


# ----------------------------------------------------------------------
# plan cache behavior
# ----------------------------------------------------------------------
def test_repeated_template_evaluation_never_replans():
    db = _hospital()
    cache = PlanCache()
    engine = _engine(db)
    engine.executor.plan_cache = cache
    engine.coverage()
    misses_after_warm = cache.misses
    # stream maintenance + per-access explanation: shapes repeat, plans don't
    for i in range(15):
        db.table("Log").insert((5000 + i, 12, "Zed", "Carol"))
        engine.notify_appended(5000 + i)
        engine.explain(5000 + i)
    # first streamed access introduces the point/delta shapes once
    assert cache.misses - misses_after_warm <= 4 * len(engine.templates)
    frozen = cache.misses
    for i in range(15):
        db.table("Log").insert((6000 + i, 13, "Zed", "Bob"))
        engine.notify_appended(6000 + i)
        engine.explain(6000 + i)
    assert cache.misses == frozen, "steady state must never re-plan"
    # the point path keeps its plans in prepared probes and never consults
    # the cache; re-running the batch semijoins of the same shapes hits it
    engine.invalidate_cache()
    engine.coverage()
    assert cache.misses == frozen
    assert cache.hits > 0


def test_stale_plans_stay_correct_as_tables_grow():
    """A plan cached on a tiny table keeps giving exact results later."""
    db = _hospital()
    cache = PlanCache()
    engine = _engine(db)
    engine.executor.plan_cache = cache
    before = engine.explain_all()
    assert 900 in before.unexplained
    # grow every table under the cached plans
    db.table("Appointments").insert(("Carol", "Zed", 9))
    for i in range(50):
        db.table("Log").insert((7000 + i, i % 20, "Zed", "Carol"))
    engine.invalidate_cache()  # engine caches, NOT the plan cache
    misses = cache.misses
    after = engine.explain_all()
    assert cache.misses == misses, "regrown tables must not force re-planning"
    fresh = _engine(db)  # fresh engine, fresh (shared) plans
    assert set(after.explained) == fresh.all_explained_lids()
    assert set(after.unexplained) == fresh.unexplained_lids()


def test_plan_cache_eviction_and_stats():
    cache = PlanCache(max_size=2)
    engine = ExplanationEngine(_hospital())
    engine.executor.plan_cache = cache
    engine.all_lids()
    templates = _templates(engine.db)
    for t in templates:
        engine.add_template(t)
    engine.coverage()
    assert len(cache) <= 2
    stats = cache.stats()
    assert stats["misses"] >= 3
    cache.clear()
    assert len(cache) == 0 and cache.stats()["hits"] == 0
