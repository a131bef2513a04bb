"""Incremental-equivalence property tests.

The delta-maintenance contract: after *any* interleaving of appends and
cache-building reads, a delta-maintained :class:`~repro.db.table.Table`
(hash indexes, distinct projections, NDV stats, projection indexes, key
sets, per-key extrema and key groups) and a
delta-maintained :class:`~repro.core.engine.ExplanationEngine`
(explained-lid sets, unexplained queue, coverage) must be
indistinguishable from ones freshly rebuilt over the same final data.
Seeded random interleavings pin the contract down.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AccessMonitor
from repro.audit.handcrafted import (
    event_group_template,
    event_user_template,
    repeat_access_template,
)
from repro.core import ExplanationEngine
from repro.db import ColumnType, Database, IntegrityError, TableSchema
from repro.db.drivers.sqlite import SqliteDriver
from repro.db.sqlbackend import SqlDatabase
from repro.db.table import _BATCH_ROWS, Table

# ----------------------------------------------------------------------
# table-level properties
# ----------------------------------------------------------------------
COLS = ("a", "b", "c")
PROJECTIONS = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")]
PROJ_INDEXES = [(("a", "b"), ("a",)), (("a", "b", "c"), ("b", "c")), (("b", "c"), ("c",))]
KEYS = [("a",), ("b",), ("a", "b")]


def _random_read(rng: random.Random, table: Table) -> None:
    """Build/refresh one randomly chosen cached structure."""
    roll = rng.randrange(10)
    if roll == 0:
        table.index_for(rng.choice(COLS))
    elif roll == 1:
        table.project_distinct(rng.choice(PROJECTIONS))
    elif roll == 2:
        table.ndv(rng.choice(COLS))
    elif roll == 3:
        attrs, keys = rng.choice(PROJ_INDEXES)
        table.projection_index(attrs, keys)
    elif roll == 4:
        table.column_array(rng.choice(COLS))
    elif roll == 5:
        table.key_set(rng.choice(KEYS))
    elif roll == 6:
        table.key_extremum(rng.choice(KEYS), "c", rng.random() < 0.5)
    elif roll == 7:
        table.key_groups(rng.choice(KEYS), rng.choice(COLS))
    elif roll == 8:
        table.lookup_many(rng.choice(COLS), [rng.randrange(4), None])
    else:
        table.lookup(rng.choice(COLS), rng.randrange(4))


def _random_row(rng: random.Random) -> list:
    return [
        rng.choice([0, 1, 2, 3, None]),
        rng.choice([0, 1, None]),
        rng.choice([0, 1, 2, 3, 4, 5]),
    ]


def _schema() -> TableSchema:
    return TableSchema.build(
        "T", [(c, ColumnType.INT) for c in COLS]
    )


def assert_structures_fresh(live: Table) -> None:
    """Every cached structure equals its from-scratch counterpart."""
    fresh = Table(_schema())
    fresh.insert_many(live.rows())
    for column, values in live._column_store.items():
        assert values == fresh.column_array(column), f"column[{column}] diverged"
    for column, mapping in live._indexes.items():
        assert mapping == fresh.index_for(column), f"index[{column}] diverged"
    for key, cache in live._distinct_cache.items():
        assert cache == fresh.project_distinct(key), f"distinct[{key}] diverged"
    for (attrs, keys), index in live._proj_index_cache.items():
        fresh_index = fresh.projection_index(attrs, keys)
        assert set(index) == set(fresh_index)
        for k, entries in index.items():
            assert set(entries) == set(fresh_index[k]), (
                f"projection_index[{attrs}, {keys}][{k}] diverged"
            )
    for keys, key_set in live._key_sets.items():
        assert key_set == fresh.key_set(keys), f"key_set[{keys}] diverged"
    for (keys, column, largest), best in live._extrema.items():
        assert best == fresh.key_extremum(keys, column, largest), (
            f"key_extremum[{keys}, {column}, {largest}] diverged"
        )
    for (keys, column), groups in live._key_groups.items():
        assert groups == fresh.key_groups(keys, column), (
            f"key_groups[{keys}, {column}] diverged"
        )
    for column in COLS:  # last: ndv builds the projection it reads
        assert live.ndv(column) == fresh.ndv(column), f"ndv[{column}] diverged"


@pytest.mark.parametrize("seed", range(12))
def test_table_delta_equals_rebuild(seed):
    rng = random.Random(4000 + seed)
    table = Table(_schema())
    for _ in range(rng.randrange(30, 80)):
        if rng.random() < 0.6:
            table.insert(_random_row(rng))
        else:
            _random_read(rng, table)
    assert_structures_fresh(table)


@pytest.mark.parametrize("seed", range(6))
def test_table_delta_equals_rebuild_after_batches(seed):
    """insert_many interleaved with reads preserves every structure."""
    rng = random.Random(4600 + seed)
    table = Table(_schema())
    for _ in range(rng.randrange(5, 12)):
        _random_read(rng, table)
        table.insert_many(_random_row(rng) for _ in range(rng.randrange(0, 9)))
    assert_structures_fresh(table)


@pytest.mark.parametrize("seed", range(6))
def test_row_rejected_mid_batch_leaves_structures_of_the_landed_prefix(seed):
    """A batch rejected part-way lands the rows before the bad one: every
    built structure equals a rebuild over that prefix, and the SQL table
    holds the same rows."""
    rng = random.Random(4800 + seed)
    table = Table(_schema())
    sql = SqlDatabase(SqliteDriver(None)).create_table(_schema())
    landed: list[tuple] = []
    for _ in range(rng.randrange(3, 7)):
        _random_read(rng, table)
        batch = [tuple(_random_row(rng)) for _ in range(rng.randrange(1, 2 * _BATCH_ROWS))]
        bad_at = rng.randrange(len(batch))
        batch[bad_at] = rng.choice([("x", 0, 0), (0, 0), (0, 0, 1.5)])
        for target in (table, sql):
            with pytest.raises(IntegrityError):
                target.insert_many(iter(batch))
        landed.extend(batch[:bad_at])
    assert table.rows() == landed
    assert_structures_fresh(table)
    assert sql.rows() == landed
    for column in COLS:
        assert sql.distinct_values(column) == table.distinct_values(column)


def test_table_clear_drops_all_structures():
    table = Table(_schema())
    table.insert_many([(1, 0, 2), (2, 1, 3)])
    table.index_for("a")
    table.project_distinct(("a", "b"))
    table.ndv("c")
    table.projection_index(("a", "b"), ("a",))
    table.column_array("b")
    table.key_set(("a", "b"))
    table.key_extremum(("a",), "c", True)
    table.key_groups(("b",), "a")
    table.clear()
    assert len(table) == 0
    assert table._column_store == {}
    assert table._indexes == {}
    assert table._distinct_cache == {}
    assert table._proj_index_cache == {}
    assert table._key_sets == table._extrema == table._key_groups == {}
    assert table.index_for("a") == {}
    assert table.ndv("a") == 0


def test_ndv_counts_new_distinct_values_only():
    table = Table(_schema())
    table.insert((1, 0, 0))
    assert table.ndv("a") == 1
    table.insert((1, 1, 0))  # repeat value: no change
    assert table.ndv("a") == 1
    table.insert((7, 1, 0))  # new value: +1 without rebuild
    assert table.ndv("a") == 2
    table.insert((None, 1, 0))  # NULL never counts
    assert table.ndv("a") == 2


# ----------------------------------------------------------------------
# engine-level properties
# ----------------------------------------------------------------------
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


def _fresh_engine(db: Database) -> ExplanationEngine:
    return ExplanationEngine(db, _templates(db))


def _append(db: Database, lid: int, date: int, user: str, patient: str) -> int:
    db.table("Log").insert((lid, date, user, patient))
    return lid


@pytest.mark.parametrize("seed", range(10))
def test_engine_delta_equals_rebuild(seed):
    """Random appends + notify_appended == a freshly built engine."""
    rng = random.Random(5000 + seed)
    db = _hospital()
    engine = ExplanationEngine(db, _templates(db))
    if rng.random() < 0.5:
        engine.coverage()  # warm the aggregate caches up front
    next_lid = 1000
    for _ in range(rng.randrange(5, 25)):
        # back-dated rows included: deltas must retro-explain older lids
        lid = _append(
            db,
            next_lid,
            rng.randrange(0, 20),
            rng.choice(USERS),
            rng.choice(PATIENTS),
        )
        next_lid += rng.choice([1, 1, 2, 7])  # non-contiguous lids
        engine.notify_appended(lid)
        if rng.random() < 0.3:
            engine.unexplained_lids()  # exercise mid-stream reads
    fresh = _fresh_engine(db)
    for template, template_fresh in zip(engine.templates, fresh.templates):
        assert engine.explained_lids(template) == fresh.explained_lids(
            template_fresh
        )
    assert engine.all_lids() == fresh.all_lids()
    assert engine.all_explained_lids() == fresh.all_explained_lids()
    assert engine.unexplained_lids() == fresh.unexplained_lids()
    assert engine.coverage() == pytest.approx(fresh.coverage())


@pytest.mark.parametrize("seed", range(6))
def test_engine_batch_delta_equals_rebuild(seed):
    """notify_appended_many over a batch == rebuild (and == per-row)."""
    rng = random.Random(6000 + seed)
    db = _hospital()
    engine = ExplanationEngine(db, _templates(db))
    engine.unexplained_lids()  # warm
    batch = []
    for i in range(rng.randrange(3, 15)):
        batch.append(
            _append(
                db,
                2000 + 3 * i,
                rng.randrange(0, 20),
                rng.choice(USERS),
                rng.choice(PATIENTS),
            )
        )
    engine.notify_appended_many(batch)
    fresh = _fresh_engine(db)
    assert engine.all_explained_lids() == fresh.all_explained_lids()
    assert engine.unexplained_lids() == fresh.unexplained_lids()


def test_notify_appended_retro_explains_older_access():
    """A back-dated repeat access explains the *older* streamed row too."""
    db = _hospital()
    engine = ExplanationEngine(db, _templates(db))
    engine.unexplained_lids()
    first = _append(db, 1500, 10, "Zed", "Carol")
    newly = engine.notify_appended(first)
    assert first not in engine.all_explained_lids()
    # Zed's *earlier* access arrives late (out-of-order delivery): the
    # repeat-access template now explains the first row, not this one.
    second = _append(db, 1501, 5, "Zed", "Carol")
    newly = engine.notify_appended(second)
    assert first in newly
    assert first in engine.all_explained_lids()
    assert second in engine.unexplained_lids()
    fresh = _fresh_engine(db)
    assert engine.all_explained_lids() == fresh.all_explained_lids()
    assert engine.unexplained_lids() == fresh.unexplained_lids()


def test_notify_appended_on_cold_engine_warms_then_patches():
    db = _hospital()
    engine = ExplanationEngine(db, _templates(db))
    lid = _append(db, 3000, 3, "Ron", "Alice")  # Ron in Dave's group
    engine.notify_appended(lid)  # caches were cold: warms over full log
    fresh = _fresh_engine(db)
    assert engine.all_explained_lids() == fresh.all_explained_lids()
    lid2 = _append(db, 3001, 4, "Ron", "Alice")  # now a repeat access
    newly = engine.notify_appended(lid2)
    assert lid2 in newly
    assert engine.unexplained_lids() == _fresh_engine(db).unexplained_lids()


def test_add_template_after_warm_resets_aggregates():
    db = _hospital()
    templates = _templates(db)
    engine = ExplanationEngine(db, templates[:1])
    before = set(engine.unexplained_lids())  # warm the aggregates
    engine.add_template(templates[2])  # repeat-access
    after = engine.unexplained_lids()
    assert after <= before
    reference = ExplanationEngine(db, [templates[0], templates[2]])
    assert engine.all_explained_lids() == reference.all_explained_lids()
    assert after == reference.unexplained_lids()


def test_invalidate_cache_still_correct_after_external_mutation():
    """The escape hatch: destructive edits + invalidate == rebuild."""
    db = _hospital()
    engine = ExplanationEngine(db, _templates(db))
    engine.coverage()
    log = db.table("Log")
    rows = [r for r in log.rows() if r[2] != "Eve"]  # delete Eve's access
    log.clear()
    log.insert_many(rows)
    engine.invalidate_cache()
    fresh = _fresh_engine(db)
    assert engine.all_lids() == fresh.all_lids()
    assert engine.unexplained_lids() == fresh.unexplained_lids()
    assert engine.coverage() == pytest.approx(fresh.coverage())


# ----------------------------------------------------------------------
# shared evaluation: ingest's one probe pass == maintenance + explain
# ----------------------------------------------------------------------
_ACCESS = st.tuples(
    st.sampled_from(USERS), st.sampled_from(PATIENTS), st.integers(0, 20)
)


@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(st.lists(_ACCESS, min_size=1, max_size=10), min_size=1, max_size=4),
    warm=st.booleans(),
    strategy=st.sampled_from([None, False, True]),
)
def test_shared_evaluation_ingest_equals_separate_maintenance_and_explain(
    batches, warm, strategy
):
    """The monitor takes each appended row's verdict from the maintenance
    pass's own probe results (strategy chosen by batch size).  That must
    leave the same explained sets, the same unexplained queue and the
    same returned instances as ``notify_appended_many`` — auto or forced
    to either strategy — followed by a separate ``explain`` per row,
    back-dated rows included."""
    shared_db, separate_db = _hospital(), _hospital()
    shared = ExplanationEngine(shared_db, _templates(shared_db))
    separate = ExplanationEngine(separate_db, _templates(separate_db))
    if warm:
        shared.unexplained_lids()
        separate.unexplained_lids()
    monitor = AccessMonitor(shared)
    for batch in batches:
        results = monitor.ingest_many(batch)
        lids = [r.lid for r in results]
        for lid, (user, patient, date) in zip(lids, batch):
            _append(separate_db, lid, date, user, patient)
        separate.notify_appended_many(lids, use_semijoin=strategy)
        for result in results:
            expected = separate.explain(result.lid)
            assert [(i.template.name, i.lid, dict(i.bindings)) for i in result.instances] == [
                (i.template.name, i.lid, dict(i.bindings)) for i in expected
            ]
            assert result.suspicious == (not expected)
        for ours, theirs in zip(shared.templates, separate.templates):
            assert shared.explained_lids(ours) == separate.explained_lids(theirs)
        assert shared.all_lids() == separate.all_lids()
        assert shared.unexplained_lids() == separate.unexplained_lids()
    fresh = _fresh_engine(shared_db)
    assert shared.unexplained_lids() == fresh.unexplained_lids()
