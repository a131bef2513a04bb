"""Differential tests: mining support by relation composition vs the
generic executor vs a brute-force reference.

``SupportEvaluator`` counts a path's support by composing one relation
per edge (``core/support.py``) instead of running the path's query.  For
every candidate the four miners generate — forward partial, backward
partial, closed by extension, closed by bridging — the composition must
equal ``Executor.count_distinct(path.to_query())`` and, where the
database is small enough to enumerate, the nested-loop reference of
``test_differential_executor.py``.  Mined supports must also equal the
audit path's semijoin (``ExplanationEngine.support_counts``).

Support is ``COUNT(DISTINCT L.Lid)``, not a count of log rows: the trap
database below has duplicate lids, NULL lids, NULL patients/users, NULL
join keys, duplicated interior rows and an empty interior table.
"""

from __future__ import annotations

import pytest
from test_differential_executor import reference_evaluate

from repro.core import (
    BridgedMiner,
    EdgeKind,
    ExplanationEngine,
    MiningConfig,
    OneWayMiner,
    Path,
    SchemaAttr,
    SchemaEdge,
    SchemaGraph,
    SupportConfig,
    SupportEvaluator,
    TwoWayMiner,
)
from repro.db import AttrRef, ColumnType, Database, Executor, TableSchema
from repro.db.optimizer import CardinalityEstimator, shared_plan_cache
from repro.db.query import canonical_query_signature
from repro.ehr import SimulationConfig, simulate
from repro.ehr.schema import build_careweb_graph

LID = AttrRef("L", "Lid")


def edge(t1, a1, t2, a2):
    return SchemaEdge(SchemaAttr(t1, a1), SchemaAttr(t2, a2), EdgeKind.ADMIN)


def four_miners(db, graph, config):
    return [
        OneWayMiner(db, graph, config),
        TwoWayMiner(db, graph, config),
        BridgedMiner(db, graph, config, bridge_length=2),
        BridgedMiner(db, graph, config, bridge_length=3),
    ]


def mine_recording(miner):
    """Run ``miner``; returns ``(result, every candidate it considered)``."""
    seen: list[Path] = []
    consider = miner._consider_many

    def recording(paths, stats):
        seen.extend(paths)
        return consider(paths, stats)

    miner._consider_many = recording
    return miner.mine(), seen


def assert_supports_agree(db, paths, brute_force):
    """Batched walk == one path at a time == count_distinct (== brute
    force); the skip estimate and the dedup signature, both read off the
    steps, equal the ones computed from the rebuilt query."""
    batch = SupportEvaluator(db, config=SupportConfig(use_cache=False))
    single = SupportEvaluator(db, config=SupportConfig(use_cache=False))
    executor = Executor(db)
    estimator = CardinalityEstimator(db)
    batched = batch.support_many(paths)
    assert batch.stats.queries_run == len(paths)
    for path, support in zip(paths, batched):
        query = path.to_query()
        assert support == single.support(path), str(path)
        assert support == executor.count_distinct(query, LID), str(path)
        if brute_force:
            assert support == len(set(reference_evaluate(db, query))), str(path)
        assert single._estimate(path) == estimator.estimate_distinct(query, LID)
        assert path.signature() == canonical_query_signature(query)
    # sharing prefixes must save compositions, never add any
    assert batch.stats.join_steps <= single.stats.join_steps


def check_world(db, graph, config, brute_force, all_kinds=True):
    """Mine with all four algorithms and check every candidate."""
    kinds = set()
    results = []
    for miner in four_miners(db, graph, config):
        result, candidates = mine_recording(miner)
        results.append(result)
        assert_supports_agree(db, candidates, brute_force)
        for path in candidates:
            if path.is_explanation:
                kinds.add("closed")
            else:
                kinds.add("forward" if path.anchored_start else "backward")
        # mined supports are what the audit path's semijoin counts
        engine = ExplanationEngine(db)
        templates = [m.template for m in result.templates]
        assert engine.support_counts(templates) == [
            m.support for m in result.templates
        ]
    if all_kinds:  # a generated database may prune every frontier at once
        assert kinds == {"closed", "forward", "backward"}
    supports = [
        {m.template.signature(): m.support for m in r.templates} for r in results
    ]
    assert supports[0] == supports[1] == supports[2] == supports[3]
    return results


# ----------------------------------------------------------------------
# every candidate of every miner
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_skip", [True, False])
def test_fig3_candidates(fig3_db, fig3_graph, use_skip):
    config = MiningConfig(
        support_fraction=0.5,
        max_length=4,
        max_tables=3,
        support=SupportConfig(use_skip=use_skip),
    )
    results = check_world(fig3_db, fig3_graph, config, brute_force=True)
    assert len(results[0].templates) == 3


@pytest.mark.parametrize("use_skip", [True, False])
def test_hospital_candidates_with_self_joins(hospital_db, hospital_graph, use_skip):
    """The hand-built hospital permits Log and Groups self-joins: second
    log variables and self-joined groups are interior tables."""
    config = MiningConfig(
        support_fraction=0.2,
        max_length=4,
        max_tables=3,
        support=SupportConfig(use_skip=use_skip, skip_constant=0.5),
    )
    results = check_world(hospital_db, hospital_graph, config, brute_force=True)
    assert any(
        m.template.path.var_tables.count("Log") == 2 for m in results[0].templates
    )


@pytest.fixture(scope="module")
def tiny_world():
    return simulate(SimulationConfig.tiny(seed=7)).db


@pytest.mark.parametrize("log_self_joins", [False, True])
@pytest.mark.parametrize("use_skip", [True, False])
def test_tiny_world_candidates(tiny_world, use_skip, log_self_joins):
    """Too large to enumerate: composition vs ``count_distinct`` vs the
    engine's semijoin."""
    graph = build_careweb_graph(tiny_world, allow_log_self_joins=log_self_joins)
    config = MiningConfig(
        support_fraction=0.05,
        max_length=4,
        max_tables=3,
        support=SupportConfig(use_skip=use_skip),
    )
    check_world(tiny_world, graph, config, brute_force=False)


# ----------------------------------------------------------------------
# the counting trap: COUNT(DISTINCT lid), not a count of log rows
# ----------------------------------------------------------------------
def build_trap_db(log_rows) -> Database:
    db = Database("trap")
    log = db.create_table(
        TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.INT), "User", "Patient"],
            primary_key=["Lid"],  # declared, but Table.insert does not enforce it
        )
    )
    appts = db.create_table(TableSchema.build("Appointments", ["Patient", "Doctor"]))
    info = db.create_table(TableSchema.build("Doctor_Info", ["Doctor", "Department"]))
    db.create_table(TableSchema.build("Visits", ["Patient", "Doctor"]))  # stays empty
    log.insert_many(log_rows)
    appts.insert_many(
        [
            ("alice", "dave"),
            ("alice", "dave"),  # duplicated interior row
            ("alice", "mike"),
            ("bob", "mike"),
            (None, "dave"),  # NULL join keys never join
            ("bob", None),
            ("carol", "carol"),
        ]
    )
    info.insert_many(
        [
            ("dave", "peds"),
            ("mike", "peds"),
            ("mike", "peds"),
            ("mike", None),
            (None, "peds"),
            ("carol", "er"),
        ]
    )
    return db


TRAP_LOGS = {
    "unique lids": [
        (1, 1, "dave", "alice"),
        (2, 2, "dave", "bob"),
        (3, 3, "mike", "alice"),
        (4, 4, "carol", "carol"),
    ],
    "duplicate lids": [
        (1, 1, "dave", "alice"),
        (1, 2, "mike", "bob"),  # same lid on another (patient, user) pair
        (1, 3, "dave", "alice"),  # and again on the same pair
        (2, 4, "mike", "alice"),
        (3, 5, "carol", "carol"),
    ],
    "one NULL lid": [
        (1, 1, "dave", "alice"),
        (None, 2, "mike", "bob"),
        (3, 3, "carol", "carol"),
    ],
    "NULL lids, patients and users": [
        (None, 1, "dave", "alice"),
        (None, 2, "mike", "bob"),  # two NULL lids count once
        (3, 3, None, "alice"),  # NULL user: explained by no closed path
        (4, 4, "dave", None),  # NULL patient: reached by no forward path
        (5, 5, None, None),
        (6, 6, "mike", "alice"),
        (6, 7, "carol", "carol"),
    ],
}


def trap_graph(db) -> SchemaGraph:
    graph = SchemaGraph(db)
    for table in ("Appointments", "Visits"):
        graph.add_relationship(
            SchemaAttr("Log", "Patient"), SchemaAttr(table, "Patient")
        )
        graph.add_relationship(SchemaAttr(table, "Doctor"), SchemaAttr("Log", "User"))
        graph.add_relationship(
            SchemaAttr(table, "Doctor"), SchemaAttr("Doctor_Info", "Doctor")
        )
    graph.add_relationship(
        SchemaAttr("Doctor_Info", "Doctor"), SchemaAttr("Log", "User")
    )
    graph.allow_self_join("Doctor_Info", "Department")
    graph.allow_self_join("Log", "Patient")
    graph.allow_self_join("Log", "User")
    return graph


@pytest.mark.parametrize("case", sorted(TRAP_LOGS))
@pytest.mark.parametrize("use_skip", [True, False])
def test_counting_trap(case, use_skip):
    db = build_trap_db(TRAP_LOGS[case])
    config = MiningConfig(
        support_fraction=0.01,
        max_length=4,
        max_tables=3,
        support=SupportConfig(use_skip=use_skip, skip_constant=0.5),
    )
    check_world(db, trap_graph(db), config, brute_force=True)


def test_row_counts_only_when_lids_are_verifiably_unique():
    """One ``COUNT(DISTINCT Lid)`` per evaluator decides whether log rows
    may be counted instead of their lids collected (a single NULL lid is
    one more distinct value; two are a repeat)."""
    expected = {
        "unique lids": True,
        "one NULL lid": True,
        "duplicate lids": False,
        "NULL lids, patients and users": False,
    }
    for case, unique in expected.items():
        evaluator = SupportEvaluator(build_trap_db(TRAP_LOGS[case]))
        assert evaluator._lids_are_unique("Log") is unique, case
        assert evaluator._lids_are_unique("Log") is unique
        assert evaluator.executor.queries_executed == 1


def test_duplicate_lids_count_once():
    """alice/dave carries lid 1 twice and bob/mike carries it again: the
    appointment template explains all five log rows, three distinct lids."""
    db = build_trap_db(TRAP_LOGS["duplicate lids"])
    graph = trap_graph(db)
    path = Path.forward_seed(
        graph, edge("Log", "Patient", "Appointments", "Patient")
    ).extend_forward(edge("Appointments", "Doctor", "Log", "User"))
    assert SupportEvaluator(db).support(path) == 3


def test_empty_interior_table_supports_nothing():
    db = build_trap_db(TRAP_LOGS["unique lids"])
    graph = trap_graph(db)
    seed = Path.forward_seed(graph, edge("Log", "Patient", "Visits", "Patient"))
    closed = seed.extend_forward(edge("Visits", "Doctor", "Log", "User"))
    assert SupportEvaluator(db).support_many([seed, closed]) == [0, 0]


@pytest.mark.parametrize("case", sorted(TRAP_LOGS))
def test_degenerate_one_edge_explanation(case):
    """``Log.Patient = Log.User``: the path never leaves the log row."""
    db = build_trap_db(TRAP_LOGS[case])
    self_access = edge("Log", "Patient", "Log", "User")
    graph = trap_graph(db)
    forward = Path.forward_seed(graph, self_access)
    backward = Path.backward_seed(graph, self_access)
    assert forward.is_explanation and forward.var_tables == ("Log",)
    assert_supports_agree(db, [forward, backward], brute_force=True)
    assert SupportEvaluator(db).support(forward) == 1  # carol read her own record


def test_unanchored_path_is_rejected(fig3_db, fig3_graph):
    seed = Path.forward_seed(fig3_graph, fig3_graph.start_edges()[0])
    floating = seed._with(seed.var_tables, seed.steps, False, False)
    with pytest.raises(ValueError):
        SupportEvaluator(fig3_db).support(floating)


# ----------------------------------------------------------------------
# routes and counters
# ----------------------------------------------------------------------
def test_mining_leaves_the_shared_plan_cache_alone(fig3_db, fig3_graph):
    """Mining must not push its shapes through the process-wide plan
    cache (and evict everyone else's plans) — on either route."""
    before = shared_plan_cache().stats()
    for reduction in (True, False):
        config = MiningConfig(
            support_fraction=0.5,
            max_length=4,
            max_tables=3,
            support=SupportConfig(distinct_reduction=reduction),
        )
        miner = OneWayMiner(fig3_db, fig3_graph, config)
        assert miner.mine().templates
        assert miner.evaluator.executor.plan_cache is not shared_plan_cache()
    assert shared_plan_cache().stats() == before


def test_one_route_per_configuration(fig3_db, fig3_graph):
    """Composition answers every path support; only the unoptimised
    ``distinct_reduction=False`` shape goes through the generic executor."""
    config = MiningConfig(support_fraction=0.5, max_length=4, max_tables=3)
    composed = OneWayMiner(fig3_db, fig3_graph, config)
    result = composed.mine()
    # the one generic query: are the log's lids distinct?
    assert composed.evaluator.executor.queries_executed == 1
    assert result.support_stats["join_steps"] >= result.support_stats["queries_run"] > 0

    config = MiningConfig(
        support_fraction=0.5,
        max_length=4,
        max_tables=3,
        support=SupportConfig(distinct_reduction=False),
    )
    generic = OneWayMiner(fig3_db, fig3_graph, config)
    unoptimised = generic.mine()
    stats = unoptimised.support_stats
    assert generic.evaluator.executor.queries_executed == stats["queries_run"]
    assert stats["join_steps"] == 0
    assert unoptimised.signatures() == result.signatures()
    assert [m.support for m in unoptimised.templates] == [
        m.support for m in result.templates
    ]


def test_batch_counters_match_one_at_a_time(fig3_db, fig3_graph):
    """A batch with repeats and cached paths moves the counters exactly
    as counting each path in order would."""
    config = MiningConfig(support_fraction=0.5, max_length=4)
    _, candidates = mine_recording(TwoWayMiner(fig3_db, fig3_graph, config))
    paths = candidates + candidates[::-1]
    for use_cache in (True, False):
        config = SupportConfig(use_cache=use_cache)
        batch = SupportEvaluator(fig3_db, config=config)
        single = SupportEvaluator(fig3_db, config=config)
        warm = candidates[:3]
        assert batch.support_many(warm) == [single.support(p) for p in warm]
        assert batch.support_many(paths) == [single.support(p) for p in paths]
        for counter in ("queries_run", "cache_hits", "skipped"):
            assert getattr(batch.stats, counter) == getattr(single.stats, counter)
