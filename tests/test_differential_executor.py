"""Differential tests: the hash-join Executor vs a brute-force reference.

The reference evaluator enumerates the full cartesian product of the
query's tuple variables with nested loops and applies SQL three-valued
comparison semantics directly — no indexes, no distinct reduction, no
pushdown, no join ordering.  The in-memory executor (with and without
``distinct_reduction``) and the template-to-SQL SQLite pushdown must
produce the same multiset of projected rows on several hundred seeded
random conjunctive queries, including NULL join/comparison cases.  The
directed NULL cases also run on tables whose last rows arrived after the
indexes, projections and plans were built (delta-maintained state).

The batch-vs-point suite extends the same treatment to the set-at-a-time
path: ``Executor.distinct_values_in`` (one batch semijoin) must equal
both the brute-force reference restricted by membership and the union of
one point query per binding value, on every executor —
including NULL join keys, NULLs inside the binding set, empty batches,
and single-row batches.

The last section aims at the SQL lowering's ``EXISTS`` form: literals
whose bind order differs from their condition order (also under a
multi-chunk binding set), NULL keys and NULL counts behind the
``EXISTS``, and existential aliases that are disconnected or joined
only through the projected alias.

The semijoin-stage section pins the two compile-time rewrites of the
in-memory pipeline — a join whose columns are dropped right after it
becomes a key-set membership test or a per-key min/max comparison, and
a large ``distinct_values_in`` on the log id runs over the distinct join
keys — to the same reference on both backends: single and multiple
keys, all four inequality orientations, NULL keys and values, ties, the
shapes that must stay hash joins, and key-driven batches holding unknown
ids and NULLs.

The prepared-point-probe section holds ``prepare_point(query, pin)`` to
the same two standards on both backends: ``probe(value)`` equals the
brute-force reference of ``query.pinned(pin, value)`` and the generic
``execute`` of it — present and absent values, NULL, duplicated rows,
NULL join keys, literal and inequality conditions beside the pin,
existential aliases over an empty table, and a probe prepared without
distinct reduction.
"""

from __future__ import annotations

import datetime as dt
import itertools
import operator
import random
from collections import Counter

import pytest

from repro.db import (
    AttrRef,
    ColumnType,
    Condition,
    ConjunctiveQuery,
    Database,
    Executor,
    Literal,
    TableSchema,
    TupleVar,
    make_executor,
    open_sql_database,
)
from repro.db.executor import explain_query
from repro.db.optimizer import build_plan
from repro.db.query import FLIPPED, cond_attr_refs
from repro.ehr import SimulationConfig, simulate

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``distinct_reduction`` settings of the in-memory executor: the paper's
#: multiplicity-reduced pipeline and its unoptimized (Section 3.2.1
#: ablation) shape.
CONFIGS = [True, False]

#: (distinct_reduction, delta) — each setting on freshly built and on
#: delta-maintained tables (see :func:`executor_under_test`).
STATES = [(reduce, delta) for reduce in CONFIGS for delta in (True, False)]

#: Storage backends under differential test: the in-memory columnar
#: engine and the template-to-SQL pushdown over SQLite.
BACKENDS = ["memory", "sqlite"]


def sql_twin(db: Database):
    """The same data as a private in-memory SQLite database (converted
    once per source database and cached on it)."""
    twin = getattr(db, "_sql_twin", None)
    if twin is None:
        twin = open_sql_database(db, None)
        db._sql_twin = twin
    return twin


def backend_db(db: Database, backend: str):
    return db if backend == "memory" else sql_twin(db)


def all_executors(db: Database, **kw):
    """One in-memory executor per ``distinct_reduction`` setting and the
    SQL pushdown executor (SQL has a single lowering), each yielded with
    a mismatch-message label."""
    for distinct_reduction in CONFIGS:
        yield (
            f"backend=memory, distinct_reduction={distinct_reduction}",
            Executor(db, distinct_reduction=distinct_reduction, **kw),
        )
    yield "backend=sqlite", make_executor(sql_twin(db), **kw)


def executor_under_test(
    db: Database,
    backend: str,
    distinct_reduction: bool,
    delta: bool,
    *warm: ConjunctiveQuery,
):
    """An executor over ``db``'s rows on ``backend``.

    With ``delta`` the second half of every table lands only after
    ``warm`` ran on this executor (a query is executed, a callable is
    called with the executor), so the indexes, distinct projections and plans
    those queries built are delta-maintained rather than fresh.  SQL has a
    single lowering, so ``distinct_reduction`` varies the in-memory
    executor only.
    """
    source, late = db, {}
    if delta:
        source = Database(db.name)
        for table in db.tables():
            rows = table.rows()
            half = len(rows) // 2
            source.create_table(table.schema).insert_many(rows[:half])
            late[table.schema.name] = rows[half:]
    target = backend_db(source, backend)
    if backend == "memory":
        executor = Executor(target, distinct_reduction=distinct_reduction)
    else:
        executor = make_executor(target)
    for query in warm:
        if callable(query):
            query(executor)
        else:
            executor.execute(query)
    for name, rows in late.items():
        target.table(name).insert_many(rows)
    return executor


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def sql_compare(op: str, left, right) -> bool:
    """SQL semantics: any comparison involving NULL is false."""
    if left is None or right is None:
        return False
    return _OPS[op](left, right)


def reference_evaluate(db: Database, query: ConjunctiveQuery) -> list[tuple]:
    """Nested-loop evaluation of a conjunctive query, no optimizations."""
    tables = [db.table(v.table) for v in query.tuple_vars]
    alias_pos = {v.alias: i for i, v in enumerate(query.tuple_vars)}

    def value(combo, ref: AttrRef):
        i = alias_pos[ref.alias]
        return combo[i][tables[i].schema.column_index(ref.attr)]

    out: list[tuple] = []
    for combo in itertools.product(*[t.rows() for t in tables]):
        ok = True
        for cond in query.conditions:
            left = value(combo, cond.left)
            right = (
                value(combo, cond.right)
                if isinstance(cond.right, AttrRef)
                else cond.right.value
            )
            if not sql_compare(cond.op, left, right):
                ok = False
                break
        if ok:
            out.append(tuple(value(combo, ref) for ref in query.projection))
    if query.distinct:
        out = list(dict.fromkeys(out))
    return out


# ----------------------------------------------------------------------
# random workload generation
# ----------------------------------------------------------------------
TABLE_SPECS = [("T0", 3), ("T1", 2), ("T2", 3), ("T3", 4)]
VALUE_DOMAIN = [0, 1, 2, 3, None]


def random_database(rng: random.Random) -> Database:
    """Small integer tables with ~20% NULLs and overlapping value domains."""
    db = Database("diff")
    for name, n_cols in TABLE_SPECS:
        cols = [(f"c{i}", ColumnType.INT) for i in range(n_cols)]
        table = db.create_table(TableSchema.build(name, cols))
        for _ in range(rng.randrange(0, 10)):
            table.insert([rng.choice(VALUE_DOMAIN) for _ in range(n_cols)])
    return db


def random_attr(rng: random.Random, tvars: list[TupleVar], db: Database) -> AttrRef:
    var = rng.choice(tvars)
    cols = db.table(var.table).schema.column_names
    return AttrRef(var.alias, rng.choice(cols))


def random_query(
    rng: random.Random, db: Database, connected: bool = True
) -> ConjunctiveQuery:
    n_vars = rng.choice([1, 1, 2, 2, 2, 3, 3, 4])
    tvars = [
        TupleVar(f"V{i}", rng.choice(TABLE_SPECS)[0]) for i in range(n_vars)
    ]
    conds: list[Condition] = []
    if connected:
        # a random spanning tree of equality joins keeps the graph connected
        for i in range(1, n_vars):
            j = rng.randrange(i)
            left = AttrRef(
                tvars[i].alias,
                rng.choice(db.table(tvars[i].table).schema.column_names),
            )
            right = AttrRef(
                tvars[j].alias,
                rng.choice(db.table(tvars[j].table).schema.column_names),
            )
            conds.append(Condition(left, "=", right))
    for _ in range(rng.randrange(0, 4)):
        roll = rng.random()
        left = random_attr(rng, tvars, db)
        if roll < 0.35:
            # point predicate (pushdown candidate), occasionally = NULL
            value = rng.choice([0, 1, 2, 3, 3, None])
            conds.append(Condition(left, "=", Literal(value)))
        elif roll < 0.65:
            op = rng.choice(["<", "<=", ">", ">=", "!="])
            conds.append(Condition(left, op, Literal(rng.choice(VALUE_DOMAIN))))
        else:
            op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
            conds.append(Condition(left, op, random_attr(rng, tvars, db)))
    projection: list[AttrRef] = []
    for _ in range(rng.randrange(1, 4)):
        ref = random_attr(rng, tvars, db)
        if ref not in projection:
            projection.append(ref)
    return ConjunctiveQuery.build(
        tvars, conds, projection, distinct=rng.random() < 0.7
    )


def assert_matches_reference(db: Database, query: ConjunctiveQuery, **kw) -> None:
    expected = Counter(reference_evaluate(db, query))
    for label, executor in all_executors(db, **kw):
        got = Counter(executor.execute(query).rows)
        assert got == expected, f"mismatch ({label}) for query:\n{query}"


# ----------------------------------------------------------------------
# randomized differential sweep: 20 seeds x ~10 queries x 3 executors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_random_queries_match_reference(seed):
    rng = random.Random(1000 + seed)
    db = random_database(rng)
    for _ in range(10):
        query = random_query(rng, db)
        assert_matches_reference(db, query)


@pytest.mark.parametrize("seed", range(10))
def test_lazy_planning_equals_planning_with_projections_prebuilt(seed):
    """The planner sizes a relation only when a join-order choice compares
    it; the plans it builds on tables with no projection equal those it
    builds once every relation's projection exists, for every choice of
    batch-restricted alias."""
    rng = random.Random(6000 + seed)
    source = random_database(rng)
    for _ in range(10):
        query = random_query(rng, source)
        lazy, warm = Database("lazy"), Database("warm")
        for table in source.tables():
            for db in (lazy, warm):
                db.create_table(table.schema).insert_many(table.rows())
        for var in query.tuple_vars:
            refs = [r for c in query.conditions for r in cond_attr_refs(c)]
            attrs = sorted({r.attr for r in [*refs, *query.projection] if r.alias == var.alias})
            table = warm.table(var.table)
            table.project_distinct(attrs or table.schema.column_names[:1])
        for in_alias in (None, *(v.alias for v in query.tuple_vars)):
            assert build_plan(lazy, query, in_alias=in_alias) == build_plan(
                warm, query, in_alias=in_alias
            ), (in_alias, query)


@pytest.mark.parametrize("seed", range(5))
def test_random_cartesian_queries_match_reference(seed):
    """Disconnected join graphs (opt-in cartesian products) also agree."""
    rng = random.Random(2000 + seed)
    db = random_database(rng)
    for _ in range(5):
        query = random_query(rng, db, connected=False)
        assert_matches_reference(db, query, allow_cartesian=True)


@pytest.mark.parametrize("seed", range(5))
def test_random_count_distinct_matches_reference(seed):
    """The support-query shape (COUNT(DISTINCT attr)) agrees too."""
    rng = random.Random(3000 + seed)
    db = random_database(rng)
    for _ in range(8):
        query = random_query(rng, db)
        target = query.projection[0]
        expected = len(
            {
                row[0]
                for row in reference_evaluate(
                    db,
                    ConjunctiveQuery.build(
                        query.tuple_vars, query.conditions, (target,), distinct=True
                    ),
                )
            }
        )
        for label, executor in all_executors(db):
            assert executor.count_distinct(query, target) == expected, label


# ----------------------------------------------------------------------
# directed NULL-semantics cases
# ----------------------------------------------------------------------
@pytest.fixture
def null_db():
    db = Database("nulls")
    left = db.create_table(
        TableSchema.build("Left", [("k", ColumnType.INT), ("x", ColumnType.INT)])
    )
    right = db.create_table(
        TableSchema.build("Right", [("k", ColumnType.INT), ("y", ColumnType.INT)])
    )
    left.insert_many([(1, 10), (None, 20), (2, None), (2, 40), (1, 10)])
    right.insert_many([(1, 100), (None, 200), (2, 300)])
    return db


def _join_query(distinct=True, extra=()):
    tvars = [TupleVar("A", "Left"), TupleVar("B", "Right")]
    conds = [Condition(AttrRef("A", "k"), "=", AttrRef("B", "k")), *extra]
    proj = [AttrRef("A", "x"), AttrRef("B", "y")]
    return ConjunctiveQuery.build(tvars, conds, proj, distinct=distinct)


@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_null_join_keys_never_match(null_db, backend, distinct_reduction, delta):
    query = _join_query()
    executor = executor_under_test(null_db, backend, distinct_reduction, delta, query)
    rows = set(executor.execute(query).rows)
    # the NULL-keyed rows on either side must not pair up
    assert rows == {(10, 100), (None, 300), (40, 300)}
    assert rows == set(reference_evaluate(null_db, query))


@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_equals_null_literal_is_unsatisfiable(
    null_db, backend, distinct_reduction, delta
):
    query = _join_query(extra=(Condition(AttrRef("A", "k"), "=", Literal(None)),))
    executor = executor_under_test(
        null_db, backend, distinct_reduction, delta, _join_query(), query
    )
    assert executor.execute(query).rows == []
    assert reference_evaluate(null_db, query) == []


@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_not_equals_never_matches_null(null_db, backend, distinct_reduction, delta):
    query = _join_query(extra=(Condition(AttrRef("A", "x"), "!=", Literal(20)),))
    executor = executor_under_test(null_db, backend, distinct_reduction, delta, query)
    rows = set(executor.execute(query).rows)
    # (2, None) has x = NULL: `x != 20` is false under SQL semantics
    assert rows == {(10, 100), (40, 300)}
    assert rows == set(reference_evaluate(null_db, query))


@pytest.mark.parametrize("pushdown", [True, False])
def test_point_predicate_agrees_with_filter_path(null_db, backend, pushdown):
    """``B.k = 2`` is pushed down to an index probe; the same predicate
    stated as ``B.k >= 2 AND B.k <= 2`` stays a residual filter."""
    key = AttrRef("B", "k")
    if pushdown:
        extra = (Condition(key, "=", Literal(2)),)
    else:
        extra = (Condition(key, ">=", Literal(2)), Condition(key, "<=", Literal(2)))
    query = _join_query(extra=extra)
    executor = make_executor(backend_db(null_db, backend))
    assert set(executor.execute(query).rows) == {(None, 300), (40, 300)}


# ----------------------------------------------------------------------
# batch semijoin (distinct_values_in) vs reference and per-point union
# ----------------------------------------------------------------------
def reference_distinct_in(db, query, attr, in_attr, values) -> set:
    """Brute-force ``SELECT DISTINCT attr ... AND in_attr IN values``.

    SQL membership semantics: NULL binding values never match, rows whose
    ``in_attr`` is NULL are never selected.
    """
    probe = ConjunctiveQuery.build(
        query.tuple_vars, query.conditions, (attr, in_attr), distinct=False
    )
    wanted = {v for v in values if v is not None}
    return {
        a
        for a, b in reference_evaluate(db, probe)
        if b is not None and b in wanted
    }


def point_union_distinct(executor, query, attr, in_attr, values) -> set:
    """The per-access path: one point query per binding value, unioned."""
    out: set = set()
    for value in values:
        out |= executor.distinct_values(query.pinned(in_attr, value), attr)
    return out


def assert_batch_matches_point(db, query, attr, in_attr, values, **kw):
    expected = reference_distinct_in(db, query, attr, in_attr, values)
    for label, executor in all_executors(db, **kw):
        batch = executor.distinct_values_in(query, attr, in_attr, values)
        assert batch == expected, (
            f"batch != reference ({label}, "
            f"in={sorted(values, key=repr)}) for:\n{query}"
        )
        union = point_union_distinct(executor, query, attr, in_attr, values)
        assert batch == union, f"batch != point union ({label}) for:\n{query}"


@pytest.mark.parametrize("seed", range(12))
def test_random_batch_semijoin_matches_point_queries(seed):
    """Seeded random templates + binding sets, on every executor."""
    rng = random.Random(7000 + seed)
    db = random_database(rng)
    for _ in range(8):
        query = random_query(rng, db)
        attr = query.projection[0]
        in_attr = random_attr(rng, list(query.tuple_vars), db)
        n = rng.randrange(0, 6)
        values = {rng.choice(VALUE_DOMAIN + [7]) for _ in range(n)}
        assert_batch_matches_point(db, query, attr, in_attr, values)


@pytest.mark.parametrize("seed", range(4))
def test_random_batch_semijoin_on_projected_attr(seed):
    """The explain_batch shape: restrict the projected attribute itself."""
    rng = random.Random(8000 + seed)
    db = random_database(rng)
    for _ in range(6):
        query = random_query(rng, db)
        attr = query.projection[0]
        values = {rng.choice(VALUE_DOMAIN) for _ in range(rng.randrange(1, 5))}
        for label, executor in all_executors(db):
            batch = executor.distinct_values_in(query, attr, attr, values)
            full = executor.distinct_values(query, attr)
            assert batch == full & {v for v in values if v is not None}, label


@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_batch_semijoin_null_join_keys(null_db, backend, distinct_reduction, delta):
    """NULL join keys and NULL binding values never match."""
    query = _join_query()
    executor = executor_under_test(null_db, backend, distinct_reduction, delta, query)
    got = executor.distinct_values_in(
        query, AttrRef("A", "x"), AttrRef("B", "k"), {2, None}
    )
    # only B.k = 2 can bind: A rows (2, None) and (2, 40)
    assert got == {None, 40}
    assert got == reference_distinct_in(
        null_db, query, AttrRef("A", "x"), AttrRef("B", "k"), {2, None}
    )


@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_batch_semijoin_edge_batches(null_db, backend, distinct_reduction, delta):
    """Empty and single-value batches (the degenerate point-query case)."""
    query = _join_query()
    executor = executor_under_test(null_db, backend, distinct_reduction, delta, query)
    attr, in_attr = AttrRef("A", "x"), AttrRef("A", "k")
    assert executor.distinct_values_in(query, attr, in_attr, set()) == set()
    assert executor.distinct_values_in(query, attr, in_attr, {None}) == set()
    single = executor.distinct_values_in(query, attr, in_attr, {1})
    assert single == point_union_distinct(executor, query, attr, in_attr, {1})
    assert single == {10}


@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_batch_semijoin_composes_with_point_pushdown(
    null_db, backend, distinct_reduction, delta
):
    """An IN-restriction on an alias that also carries a point predicate."""
    query = _join_query(extra=(Condition(AttrRef("A", "k"), "=", Literal(2)),))
    executor = executor_under_test(null_db, backend, distinct_reduction, delta, query)
    got = executor.distinct_values_in(
        query, AttrRef("A", "x"), AttrRef("A", "x"), {40, 10}
    )
    assert got == {40}


def test_batch_semijoin_counts_as_one_query(null_db, backend):
    executor = make_executor(backend_db(null_db, backend))
    before = executor.queries_executed
    executor.distinct_values_in(
        _join_query(), AttrRef("A", "x"), AttrRef("A", "k"), {1, 2, 3, 4}
    )
    assert executor.queries_executed == before + 1


def test_non_distinct_preserves_multiplicity(null_db):
    """distinct=False must keep duplicate projected rows on every executor."""
    query = _join_query(distinct=False)
    expected = Counter(reference_evaluate(null_db, query))
    assert max(expected.values()) >= 2  # the duplicated (1, 10) row
    for label, executor in all_executors(null_db):
        assert Counter(executor.execute(query).rows) == expected, label


# ----------------------------------------------------------------------
# existential (non-projected) aliases: the SQL lowering moves them into a
# correlated EXISTS, so its placeholder order differs from condition order
# ----------------------------------------------------------------------
def _star_query(conds, projection=(AttrRef("A", "x"),), distinct=True):
    """``Left A`` joined to two ``Right`` aliases that touch only ``A``."""
    tvars = [TupleVar("A", "Left"), TupleVar("B", "Right"), TupleVar("C", "Right")]
    joins = [
        Condition(AttrRef("A", "k"), "=", AttrRef("B", "k")),
        Condition(AttrRef("C", "k"), "=", AttrRef("A", "k")),
    ]
    return ConjunctiveQuery.build(tvars, [*joins, *conds], projection, distinct=distinct)


def param_order_conds(x):
    """Literal placements whose bind order differs from their condition
    order once the conditions on B / C move behind the outer ones (``x``
    is the threshold on the projected ``A.x``)."""
    return {
        "inner_literal_before_outer": [
            Condition(AttrRef("B", "y"), "=", Literal(300)),
            Condition(AttrRef("A", "x"), "=", Literal(x)),
        ],
        "two_inner_aliases_around_outer": [
            Condition(AttrRef("C", "y"), ">", Literal(100)),
            Condition(AttrRef("A", "x"), "<=", Literal(x)),
            Condition(AttrRef("B", "y"), "<=", Literal(300)),
        ],
        "null_literal_on_inner": [
            Condition(AttrRef("B", "y"), "=", Literal(None)),
            Condition(AttrRef("A", "x"), "=", Literal(x)),
        ],
        "null_literal_on_outer_after_inner": [
            Condition(AttrRef("B", "y"), "=", Literal(300)),
            Condition(AttrRef("A", "x"), "!=", Literal(None)),
        ],
    }


PARAM_ORDER_CASES = sorted(param_order_conds(0))


@pytest.mark.parametrize("case", PARAM_ORDER_CASES)
def test_literals_bind_in_compiled_order(null_db, case):
    query = _star_query(param_order_conds(40)[case])
    assert_matches_reference(null_db, query)
    expected = {row[0] for row in reference_evaluate(null_db, query)}
    assert ("null" in case) == (not expected)  # non-NULL cases select rows
    for label, executor in all_executors(null_db):
        assert executor.distinct_values(query, AttrRef("A", "x")) == expected, label
        assert executor.count_distinct(query, AttrRef("A", "x")) == len(expected), label


@pytest.fixture(scope="module")
def wide_db():
    """More distinct ``Left.k`` values than one IN chunk holds."""
    from repro.db.drivers.sqlite import MAX_BATCH_PARAMS

    db = Database("wide")
    left = db.create_table(
        TableSchema.build("Left", [("k", ColumnType.INT), ("x", ColumnType.INT)])
    )
    right = db.create_table(
        TableSchema.build("Right", [("k", ColumnType.INT), ("y", ColumnType.INT)])
    )
    n = MAX_BATCH_PARAMS + 100
    left.insert_many([(k, k % 7) for k in range(n)])
    left.insert((None, 3))
    right.insert_many([(k, 100 * (k % 4)) for k in range(0, n, 15)])
    right.insert((None, 300))
    return db


@pytest.mark.parametrize("case", PARAM_ORDER_CASES)
def test_chunk_values_bind_after_query_literals(wide_db, case):
    """A multi-chunk binding set still binds after the query's own
    literals, whichever side of the EXISTS they landed on."""
    query = _star_query(param_order_conds(4)[case])
    attr, in_attr = AttrRef("A", "x"), AttrRef("A", "k")
    values = set(wide_db.table("Left").distinct_values("k")) | {None, -1}
    expected = reference_distinct_in(wide_db, query, attr, in_attr, values)
    assert ("null" in case) == (not expected)
    for label, executor in all_executors(wide_db):
        got = executor.distinct_values_in(query, attr, in_attr, values)
        assert got == expected, label
    sql_executor = make_executor(sql_twin(wide_db))
    before = sql_executor.db.driver.snapshot_stats()["batch_chunks"]
    sql_executor.distinct_values_in(query, attr, in_attr, values)
    assert sql_executor.db.driver.snapshot_stats()["batch_chunks"] - before >= 2


def test_null_join_keys_inside_exists_body(null_db):
    """B is existential here: its NULL key must not witness A's NULL key."""
    query = ConjunctiveQuery.build(
        [TupleVar("A", "Left"), TupleVar("B", "Right")],
        [Condition(AttrRef("A", "k"), "=", AttrRef("B", "k"))],
        [AttrRef("A", "x")],
        distinct=True,
    )
    assert_matches_reference(null_db, query)
    for label, executor in all_executors(null_db):
        assert executor.distinct_values(query, AttrRef("A", "x")) == {10, None, 40}, label


def test_count_distinct_counts_a_null_value_once(null_db):
    """COUNT over the EXISTS form still counts NULL as one value."""
    query = _star_query([])
    for label, executor in all_executors(null_db):
        # A.x over the joinable rows: 10 (twice), NULL, 40
        assert executor.count_distinct(query, AttrRef("A", "x")) == 3, label


def test_inner_aliases_connected_only_through_outer(null_db):
    """B and C never join each other; both hang off the projected A."""
    for conds in (
        [],
        [Condition(AttrRef("B", "y"), "<", AttrRef("C", "y"))],
        [Condition(AttrRef("C", "y"), "=", Literal(300))],
    ):
        for distinct in (True, False):
            assert_matches_reference(null_db, _star_query(conds, distinct=distinct))
    # projecting from two of the three aliases leaves one existential
    query = _star_query([], projection=(AttrRef("A", "x"), AttrRef("C", "y")))
    assert_matches_reference(null_db, query)


@pytest.mark.parametrize("other", ["Right", "Empty"])
def test_disconnected_existential_alias(null_db, other):
    """``allow_cartesian``: an unjoined alias only asks "is it non-empty?"."""
    null_db.create_table(TableSchema.build("Empty", [("k", ColumnType.INT)]))
    for conds in ([], [Condition(AttrRef("B", "k"), "=", Literal(2))]):
        query = ConjunctiveQuery.build(
            [TupleVar("A", "Left"), TupleVar("B", other)],
            conds,
            [AttrRef("A", "x")],
            distinct=True,
        )
        assert_matches_reference(null_db, query, allow_cartesian=True)
        expected = set() if other == "Empty" else {10, 20, None, 40}
        for label, executor in all_executors(null_db, allow_cartesian=True):
            assert executor.distinct_values(query, AttrRef("A", "x")) == expected, label


# ----------------------------------------------------------------------
# semijoin stages: a join whose columns are dropped right after it is a
# key-set test or a per-key min/max, and a large batch on the id column
# runs over the distinct join keys
# ----------------------------------------------------------------------
ACC, EV = TupleVar("A", "Acc"), TupleVar("E", "Ev")
AID = AttrRef("A", "id")


@pytest.fixture
def semi_db():
    """An access-like table ``Acc`` and an event table ``Ev``: NULLs in
    both sides' keys (a NULL-keyed pair on each side) and in the compared
    ``t``, a NULL and a repeated id, and ``t`` ties against both the
    per-key minimum and maximum."""
    db = Database("semi")
    cols = lambda *names: [(n, ColumnType.INT) for n in names]  # noqa: E731
    acc = db.create_table(TableSchema.build("Acc", cols("id", "k1", "k2", "t")))
    ev = db.create_table(TableSchema.build("Ev", cols("k1", "k2", "t", "z")))
    acc.insert_many(
        [
            (1, 1, 1, 5),  # ties max(t) of key (1, 1)
            (2, 1, 2, 3),
            (3, 2, 1, 7),  # ties min(t) of key (2, 1)
            (4, 2, 2, None),
            (5, None, 1, 4),
            (6, 3, None, 6),
            (7, 1, 1, 2),
            (None, 1, 1, 9),
            (8, 4, 4, 5),
            (2, 5, 5, 8),
            (9, 2, 1, 8),
        ]
    )
    ev.insert_many(
        [
            (1, 1, 3, 0),
            (1, 1, 5, 1),
            (1, 2, None, 0),
            (2, 1, 7, 1),
            (2, 1, None, 0),
            (2, 2, 4, 0),
            (None, 1, 1, 0),
            (3, None, 2, 1),
            (5, 5, 1, 0),
        ]
    )
    return db


def semi_query(keys=("k1",), extra=(), distinct=True, projection=(AID,)):
    joins = [Condition(AttrRef("A", k), "=", AttrRef("E", k)) for k in keys]
    return ConjunctiveQuery.build(
        [ACC, EV], [*joins, *extra], projection, distinct=distinct
    )


def all_ids(db) -> set:
    return set(db.table("Acc").column_values("id"))


def assert_rewrite_matches(db, query, backend, distinct_reduction, delta):
    """``execute`` and whole-log, strict-subset and polluted
    ``distinct_values_in`` batches on ``AID`` equal the reference; with
    ``delta`` the key structures they read were built on half the rows
    and delta-maintained through the rest.  The last batch is small
    enough to drive from the rows: it holds the NULL-keyed ids."""
    ids = all_ids(db) - {None}
    batches = [
        ids | {None},
        set(sorted(ids)[:5]),
        set(sorted(ids)[2:7]) | {None, 99, -1},
        {5, 6},
    ]

    def warm(executor):
        for values in batches:
            executor.distinct_values_in(query, AID, AID, values)

    executor = executor_under_test(
        db, backend, distinct_reduction, delta, query, warm
    )
    where = f"(backend={backend}, reduce={distinct_reduction}, delta={delta})"
    expected = Counter(reference_evaluate(db, query))
    assert Counter(executor.execute(query).rows) == expected, where
    for values in batches:
        got = executor.distinct_values_in(query, AID, AID, values)
        assert got == reference_distinct_in(db, query, AID, AID, values), (
            f"{where} in={sorted(values, key=repr)}"
        )


@pytest.mark.parametrize("keys", [("k1",), ("k2",), ("k1", "k2")])
@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_semijoin_stage_matches_reference(
    semi_db, backend, keys, distinct_reduction, delta
):
    """``E`` contributes nothing but "a row with this key exists"."""
    query = semi_query(keys)
    plan = explain_query(semi_db, query, AID)
    assert plan.endswith(f"drives from A keys ({', '.join(keys)}), E semijoin"), plan
    assert_rewrite_matches(semi_db, query, backend, distinct_reduction, delta)
    pinned = query.pinned(AID, 1)
    assert "E semijoin" in explain_query(semi_db, pinned)
    for label, executor in all_executors(semi_db):
        assert executor.distinct_values(pinned, AID) == {1}, label


@pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
@pytest.mark.parametrize("joined_side", ["left", "right"])
@pytest.mark.parametrize("keys", [("k1",), ("k1", "k2")])
@pytest.mark.parametrize("distinct_reduction,delta", STATES)
def test_extremum_stage_matches_reference(
    semi_db, backend, op, joined_side, keys, distinct_reduction, delta
):
    """``A.t op E.t`` for some ``E`` row of the key is one comparison
    with the key's max (``<``, ``<=``) or min (``>``, ``>=``) of ``E.t``,
    whichever side of the condition the joined column is written on."""
    a_t, e_t = AttrRef("A", "t"), AttrRef("E", "t")
    if joined_side == "right":
        cond, bound_op = Condition(a_t, op, e_t), op
    else:
        cond, bound_op = Condition(e_t, op, a_t), FLIPPED[op]
    query = semi_query(keys, extra=(cond,))
    kind = "max" if bound_op in ("<", "<=") else "min"
    plan = explain_query(semi_db, query, AID)
    assert plan.endswith(
        f"drives from A keys ({', '.join(keys)}), ids by A.t {bound_op} {kind}(E.t)"
    ), plan
    # the row path (a pinned id, a small batch) keeps the extremum stage
    assert explain_query(semi_db, query.pinned(AID, 1)).endswith(f"E extremum({kind})")
    assert_rewrite_matches(semi_db, query, backend, distinct_reduction, delta)


def test_extremum_fixture_exercises_ties(semi_db):
    """The fixture holds ties against both extrema, so ``>`` vs ``>=``
    and ``<`` vs ``<=`` select different ids."""
    a_t, e_t = AttrRef("A", "t"), AttrRef("E", "t")
    for strict, loose in (("<", "<="), (">", ">=")):
        got = [
            {row[0] for row in reference_evaluate(semi_db, semi_query(
                ("k1", "k2"), extra=(Condition(a_t, op, e_t),)
            ))}
            for op in (strict, loose)
        ]
        assert got[0] < got[1], (strict, loose)


@pytest.mark.parametrize(
    "case",
    ["later_stage_reads_joined", "projected", "not_distinct", "not_equals", "two_inequalities"],
)
def test_shapes_that_stay_hash_joins(semi_db, backend, case):
    """A step whose joined rows matter keeps the fan-out hash join, and
    still agrees with the reference."""
    a_t, e_t = AttrRef("A", "t"), AttrRef("E", "t")
    kinds = "E hash-join"
    if case == "later_stage_reads_joined":
        # F hangs off E only: E.z must survive E's step, F's may not
        query = ConjunctiveQuery.build(
            [ACC, EV, TupleVar("F", "Ev")],
            [
                Condition(AttrRef("A", "k1"), "=", AttrRef("E", "k1")),
                Condition(AttrRef("E", "z"), "=", AttrRef("F", "k2")),
            ],
            [AID],
        )
        kinds = "E hash-join, F semijoin"
    elif case == "projected":
        query = semi_query(projection=(AID, AttrRef("E", "z")))
    elif case == "not_distinct":
        query = semi_query(distinct=False)
    elif case == "not_equals":
        query = semi_query(extra=(Condition(a_t, "!=", e_t),))
    else:
        query = semi_query(
            extra=(Condition(a_t, ">", e_t), Condition(AttrRef("A", "k2"), "<", e_t))
        )
    assert explain_query(semi_db, query, AID).endswith(kinds)
    for distinct_reduction in CONFIGS:
        assert_rewrite_matches(semi_db, query, backend, distinct_reduction, False)
    for label, executor in all_executors(semi_db):
        assert Counter(executor.execute(query).rows) == Counter(
            reference_evaluate(semi_db, query)
        ), label


def test_key_drive_needs_equality_only_joins_and_a_large_batch(semi_db):
    """The id's variable drives from its distinct join keys only when
    every other attribute it touches sits in an equality join and the
    batch is at least a quarter of the table; the ids come back through
    the ``(keys) -> ids`` grouping, intersected with the batch."""
    executor = Executor(semi_db)
    ids = all_ids(semi_db) - {None}
    query = semi_query(("k2", "k1"))

    def drive(q, n):
        found = executor._semijoin_pipeline(q, AID, AID, n)[1]
        return found and found.keys

    assert drive(query, len(ids)) == ("k1", "k2")
    assert drive(query, 1) is None  # a small batch probes the id index
    a_t, e_t = AttrRef("A", "t"), AttrRef("E", "t")
    ranged = semi_query(extra=(Condition(a_t, ">", e_t),))
    assert drive(ranged, len(ids)) == ("k1",)
    filtered = semi_query(extra=(Condition(a_t, "=", Literal(5)),))
    assert drive(filtered, len(ids)) is None
    on_key = semi_query(("k1",))
    assert drive(on_key, len(ids)) == ("k1",)
    assert executor._semijoin_pipeline(on_key, AID, AttrRef("A", "k1"), 9)[1] is None
    before = executor.queries_executed
    values = {1, 2, 3, 4, 7, None, 99}
    got = executor.distinct_values_in(query, AID, AID, values)
    assert executor.queries_executed == before + 1
    assert got == {1, 2, 3, 4, 7} == reference_distinct_in(semi_db, query, AID, AID, values)
    # the caller's set is read, never narrowed in place
    assert values == {1, 2, 3, 4, 7, None, 99}


def dated_query(op, keys=("k1", "k2")):
    return semi_query(keys, extra=(Condition(AttrRef("A", "t"), op, AttrRef("E", "t")),))


@pytest.mark.parametrize("op", [">", ">=", "<", "<="])
@pytest.mark.parametrize("distinct_reduction", CONFIGS)
def test_key_driven_dated_shape_edge_cases(semi_db, op, distinct_reduction):
    """The dated key drive (``A.t op E.t`` with ``E`` joined on exactly
    the keys) keeps an id when its own ``t`` beats its key's threshold:
    a NULL ``A.t`` never does, a NULL ``E.t`` is no threshold, a key whose
    ``E.t`` are all NULL has none, ties separate the strict from the loose
    operators, and a back-dated append after the structures were built
    moves the threshold."""
    # id 12's key (1, 2) has only a NULL E.t
    semi_db.table("Acc").insert((12, 1, 2, 3))
    executor = Executor(semi_db, distinct_reduction=distinct_reduction)
    query = dated_query(op)
    drive = executor._semijoin_pipeline(query, AID, AID, 99)[1]
    assert (drive is not None) == distinct_reduction
    ids = all_ids(semi_db) | {None}

    def check() -> set:
        got = executor.distinct_values_in(query, AID, AID, ids)
        assert got == reference_distinct_in(semi_db, query, AID, AID, ids), op
        return got

    got = check()
    assert 4 not in got and 12 not in got
    # ties: id 1's t 5 is key (1, 1)'s max; id 3's t 7 is (2, 1)'s min and max
    assert (1 in got) == (op != "<"), got
    assert (3 in got) == (op in (">=", "<=")), got
    assert (7 in got) == (op in ("<", "<=")), got  # t 2 under (1, 1)'s min 3
    # back-dated rows after the structures were built: key (1, 1)'s min
    # drops to 0 (its max stays 5); ids 10 (t 1) and 11 (NULL t) join it
    semi_db.table("Ev").insert_many([(1, 1, 0, 0), (1, 1, None, 0)])
    semi_db.table("Acc").insert_many([(10, 1, 1, 1), (11, 1, 1, None)])
    ids |= {10, 11}
    got = check()
    assert {7, 10} <= got and 11 not in got, got
    assert (1 in got) == (op != "<"), got
    # a second partner F (no Ev row has z = 2) drops key (2, 1) before its
    # threshold is read: id 9 (t 8 against 7) goes; F pinned by a literal
    # drives the plan, and the keyed A joins it later
    for pin in ((), (Condition(AttrRef("F", "k1"), "=", Literal(1)),)):
        narrowed = ConjunctiveQuery.build(
            [ACC, EV, TupleVar("F", "Ev")],
            [*query.conditions, Condition(AttrRef("A", "k1"), "=", AttrRef("F", "z")), *pin],
            [AID],
        )
        got = executor.distinct_values_in(narrowed, AID, AID, ids)
        assert got == reference_distinct_in(semi_db, narrowed, AID, AID, ids), op
        assert 9 not in got and (1 in got) == (op != "<"), got


@pytest.mark.parametrize("seed", range(8))
def test_random_dated_key_drives_match_reference(seed):
    """Random ``Acc``/``Ev`` data with NULLs and ties: every dated shape
    (one or two keys, each operator, either side written first) agrees
    with the reference under both multiplicity settings, before and after
    a back-dated append lands on the structures the first call built."""
    rng = random.Random(5000 + seed)
    db = Database("dated")
    cols = lambda *names: [(n, ColumnType.INT) for n in names]  # noqa: E731
    acc = db.create_table(TableSchema.build("Acc", cols("id", "k1", "k2", "t")))
    ev = db.create_table(TableSchema.build("Ev", cols("k1", "k2", "t", "z")))
    small = [0, 1, 2, None]
    row = lambda first: (first, rng.choice(small), rng.choice(small), rng.choice([0, 1, 2, 3, None]))  # noqa: E731
    acc.insert_many([row(rng.choice([*range(12), None])) for _ in range(14)])
    ev.insert_many([row(rng.choice(small)) for _ in range(10)])
    a_t, e_t = AttrRef("A", "t"), AttrRef("E", "t")
    queries = [
        semi_query(keys, extra=(cond,))
        for keys in (("k1",), ("k1", "k2"))
        for op in ("<", "<=", ">", ">=")
        for cond in (Condition(a_t, op, e_t), Condition(e_t, op, a_t))
    ]
    # a second partner F narrows the keys that survive before the threshold
    queries += [
        ConjunctiveQuery.build(
            [ACC, EV, TupleVar("F", "Ev")],
            [
                *(Condition(AttrRef("A", k), "=", AttrRef("E", k)) for k in ("k1", "k2")),
                Condition(AttrRef("A", "k1"), "=", AttrRef("F", "z")),
                Condition(a_t, op, e_t),
            ],
            [AID],
        )
        for op in ("<", ">=")
    ]
    executors = [Executor(db, distinct_reduction=r) for r in CONFIGS]
    for late in (False, True):
        if late:
            acc.insert_many([row(20 + i) for i in range(4)])
            ev.insert_many([row(rng.choice(small)) for _ in range(3)])
        ids = all_ids(db) | {None}
        for query in queries:
            assert executors[0]._semijoin_pipeline(query, AID, AID, len(ids))[1]
            expected = reference_distinct_in(db, query, AID, AID, ids)
            for executor in executors:
                got = executor.distinct_values_in(query, AID, AID, ids)
                assert got == expected, f"late={late} {query}"


@pytest.mark.parametrize(
    "case", ["two_inequalities", "partial_keys", "x_filtered", "x_projected", "own_pair"]
)
def test_dated_shapes_that_stay_on_rows(semi_db, case):
    """The dated key drive needs exactly one ``own op X.d`` whose ``X``
    joins on every key and touches nothing else; anything more keeps the
    row drive, and still agrees with the reference."""
    a_t, e_t = AttrRef("A", "t"), AttrRef("E", "t")
    if case == "two_inequalities":
        extra = (Condition(a_t, ">", e_t), Condition(AttrRef("A", "k2"), "<", e_t))
        query = semi_query(("k1",), extra=extra)
    elif case == "partial_keys":  # F joins A on k2, E only on k1
        query = ConjunctiveQuery.build(
            [ACC, EV, TupleVar("F", "Ev")],
            [
                Condition(AttrRef("A", "k1"), "=", AttrRef("E", "k1")),
                Condition(AttrRef("A", "k2"), "=", AttrRef("F", "k2")),
                Condition(a_t, ">", e_t),
            ],
            [AID],
        )
    elif case == "x_filtered":
        query = semi_query(extra=(Condition(a_t, ">", e_t), Condition(AttrRef("E", "z"), "=", Literal(0))))
    elif case == "x_projected":
        query = semi_query(extra=(Condition(a_t, ">", e_t),), projection=(AID, e_t))
    else:
        query = semi_query(extra=(Condition(a_t, ">", AttrRef("A", "k2")),))
    executor = Executor(semi_db)
    ids = all_ids(semi_db) | {None}
    assert executor._semijoin_pipeline(query, AID, AID, len(ids))[1] is None
    for label, executor in all_executors(semi_db):
        got = executor.distinct_values_in(query, AID, AID, ids)
        assert got == reference_distinct_in(semi_db, query, AID, AID, ids), label


def test_world_key_drives_equal_the_row_path():
    """On a simulated world every standard template's whole-log semijoin
    (key-driven) equals its row-path ``distinct_values``, before and after
    30 back-dated ingests land on the structures the first pass built."""
    from repro.api import AuditConfig, AuditService, standard_templates

    db = simulate(SimulationConfig.tiny(seed=5)).db
    lid = AttrRef("L", "Lid")
    queries = [t.support_query() for t in standard_templates(db)]
    executor = Executor(db)

    def check() -> None:
        everything = db.table("Log").distinct_values("Lid")
        for query in queries:
            assert executor._semijoin_pipeline(query, lid, lid, len(everything))[1]
            got = executor.distinct_values_in(query, lid, lid, everything)
            assert got == executor.distinct_values(query, lid), query

    check()
    log = db.table("Log")
    rng = random.Random(5)
    pairs = sorted(set(zip(log.column_array("User"), log.column_array("Patient"))))
    earliest, before = min(log.column_array("Date")), len(log)
    with AuditService.open(db, config=AuditConfig(eager_warm=False)) as service:
        for i in range(30):
            user, patient = rng.choice(pairs)
            service.ingest(user, patient, earliest - dt.timedelta(days=1 + i % 3))
    assert len(log) == before + 30  # the service appends to this database
    check()


# ----------------------------------------------------------------------
# prepared point probes: prepare_point(query, pin)(value) must equal the
# brute-force reference and the generic execute of query.pinned(pin, value)
# ----------------------------------------------------------------------
def assert_probe_matches(db, query, pin, values, **kw):
    for label, executor in all_executors(db, **kw):
        probe = executor.prepare_point(query, pin)
        for value in values:
            pinned = query.pinned(pin, value)
            expected = Counter(reference_evaluate(db, pinned))
            before = executor.queries_executed
            got = Counter(probe(value))
            where = f"({label}, {pin} = {value!r}) for query:\n{query}"
            assert executor.queries_executed == before + 1, where
            assert got == expected, f"probe != reference {where}"
            assert got == Counter(executor.execute(pinned).rows), where


@pytest.mark.parametrize("seed", range(12))
def test_random_point_probes_match_reference(seed):
    """Seeded random queries pinned on a random attribute: present and
    absent values, NULL, and values several rows share."""
    rng = random.Random(9000 + seed)
    db = random_database(rng)
    for _ in range(8):
        query = random_query(rng, db)
        pin = random_attr(rng, list(query.tuple_vars), db)
        assert_probe_matches(db, query, pin, VALUE_DOMAIN + [7])


@pytest.mark.parametrize("seed", range(3))
def test_random_cartesian_point_probes_match_reference(seed):
    rng = random.Random(9500 + seed)
    db = random_database(rng)
    for _ in range(5):
        query = random_query(rng, db, connected=False)
        pin = random_attr(rng, list(query.tuple_vars), db)
        assert_probe_matches(db, query, pin, VALUE_DOMAIN, allow_cartesian=True)


@pytest.mark.parametrize("distinct", [True, False])
def test_point_probe_null_keys_and_duplicates(null_db, distinct):
    """NULL join keys never pair up behind a probe, a NULL value matches
    nothing (not even stored NULLs), and the duplicated ``(1, 10)`` row
    keeps its multiplicity when the query is not distinct."""
    query = _join_query(distinct=distinct)
    for pin in (AttrRef("A", "k"), AttrRef("A", "x"), AttrRef("B", "y")):
        assert_probe_matches(null_db, query, pin, [1, 2, 10, 300, None, 99])
    for label, executor in all_executors(null_db):
        probe = executor.prepare_point(query, AttrRef("A", "k"))
        assert probe(None) == [], label
        assert len(probe(1)) == (1 if distinct else 2), label


def test_point_probe_composes_with_literal_conditions(null_db):
    """The pin shares its alias with (and joins against) literal point
    predicates, a NULL literal, and an inequality filter."""
    for extra in (
        (Condition(AttrRef("A", "k"), "=", Literal(2)),),
        (Condition(AttrRef("B", "y"), "=", Literal(300)),),
        (Condition(AttrRef("B", "y"), "=", Literal(None)),),
        (Condition(AttrRef("A", "x"), ">=", Literal(20)),),
        (Condition(AttrRef("A", "x"), "<", AttrRef("B", "y")),),
    ):
        query = _join_query(extra=extra)
        assert_probe_matches(null_db, query, AttrRef("A", "x"), [10, 40, None, 7])
        assert_probe_matches(null_db, query, AttrRef("B", "k"), [1, 2, None])


@pytest.mark.parametrize("other", ["Right", "Empty"])
def test_point_probe_existential_alias_over_empty_table(null_db, other):
    null_db.create_table(TableSchema.build("Empty", [("k", ColumnType.INT)]))
    joined = ConjunctiveQuery.build(
        [TupleVar("A", "Left"), TupleVar("B", other)],
        [Condition(AttrRef("A", "k"), "=", AttrRef("B", "k"))],
        [AttrRef("A", "x")],
    )
    assert_probe_matches(null_db, joined, AttrRef("A", "k"), [1, 2, None])
    unjoined = ConjunctiveQuery.build(
        [TupleVar("A", "Left"), TupleVar("B", other)], [], [AttrRef("A", "x")]
    )
    assert_probe_matches(
        null_db, unjoined, AttrRef("A", "k"), [1, 2, None], allow_cartesian=True
    )


def test_point_probe_without_distinct_reduction_matches_reference(null_db):
    """``distinct_reduction=False`` is compiled into a probe when it is
    prepared: intermediates keep full multiplicity, answers equal the
    brute-force reference, and no call consults the plan cache."""
    executor = Executor(null_db, distinct_reduction=False)
    pin = AttrRef("A", "k")
    for distinct in (True, False):
        query = _join_query(distinct=distinct)
        probe = executor.prepare_point(query, pin)
        assert probe._pipeline.reduce is False
        lookups = executor.plan_cache.hits + executor.plan_cache.misses
        for value in (1, 2, None, 99):
            expected = Counter(reference_evaluate(null_db, query.pinned(pin, value)))
            assert Counter(probe(value)) == expected, (distinct, value)
        assert executor.plan_cache.hits + executor.plan_cache.misses == lookups


def test_prepare_point_validates_like_execute(null_db, backend):
    from repro.db.errors import QueryError, UnknownTableError

    executor = make_executor(backend_db(null_db, backend))
    with pytest.raises(QueryError):
        executor.prepare_point(_join_query(), AttrRef("A", "nope"))
    missing = ConjunctiveQuery.build(
        [TupleVar("A", "Nowhere")], [], [AttrRef("A", "k")]
    )
    with pytest.raises(UnknownTableError):
        executor.prepare_point(missing, AttrRef("A", "k"))
    disconnected = ConjunctiveQuery.build(
        [TupleVar("A", "Left"), TupleVar("B", "Right")], [], [AttrRef("A", "x")]
    )
    with pytest.raises(QueryError, match="disconnected"):
        executor.prepare_point(disconnected, AttrRef("A", "k"))
