"""Hash-join execution of conjunctive (explanation-template) queries.

The paper evaluates every candidate path with a support query

.. code-block:: sql

    SELECT COUNT(DISTINCT Log.Lid) FROM Log, T_1, ..., T_n WHERE C

on PostgreSQL.  This executor plays PostgreSQL's role.  It implements a
left-deep pipeline of hash joins with three properties that matter for
mining and streaming performance:

1. **Distinct projections per tuple variable** — each table is reduced to
   the deduplicated projection of only the attributes the query touches
   before joining (the paper's *Reducing Result Multiplicity* rewrite,
   Section 3.2.1).
2. **Eager column pruning** — after each join, attributes that no pending
   condition or projection needs are dropped and the intermediate is
   deduplicated again, so intermediates stay bounded by the number of
   distinct value combinations rather than raw row counts.
3. **Point-predicate pushdown + index-nested-loop joins** — single-variable
   literal equalities (the ``L.Lid = ?`` restriction of per-access
   explanation queries) are pushed down to :meth:`Table.lookup` hash-index
   probes before the pipeline starts, and when the probe side of a join is
   tiny the executor probes the table's delta-maintained
   :meth:`Table.projection_index` instead of hashing the whole build side.
   Together these make a streamed access's explanation query touch
   O(matching rows) of the log, not O(log).
4. **Set-at-a-time (batch semijoin) evaluation** — :meth:`Executor.
   distinct_values_in` evaluates a query once against a whole *set* of
   binding values (``alias.attr IN {…}``, resolved through the table's
   batch probe APIs) instead of issuing one point query per value.  This
   is the primitive behind ``ExplanationEngine.explain_batch``: one
   semijoin per template replaces O(batch) point queries.
5. **A memoized plan cache** — planning (needed-attribute projection,
   pushdown split, greedy join order) is delegated to
   :func:`repro.db.optimizer.build_plan` and memoized in a shared
   :class:`repro.db.optimizer.PlanCache` keyed on *query shape*, so
   repeated template evaluation (batch semijoins, mining support queries)
   never re-plans.
6. **Prepared point probes** — the one join body is split into *compile
   stages from a plan* (:meth:`Executor._compile_pipeline`: sources, row
   positions, join-key getters, filter closures, prune projections —
   nothing that depends on a literal value or on table contents) and
   *run stages* (:meth:`Executor._run_pipeline`).
   :meth:`Executor.prepare_point` keeps the compiled half of ``query AND
   pin = ?`` in a :class:`PointProbe`, so the per-access ``L.Lid = ?``
   question costs one run per call; the generic entry points compile and
   run back to back through the same body.
7. **Semijoin stages** — in a DISTINCT pipeline, a join whose new
   columns are all dropped right after it only asks "does some row
   match?".  When no condition of that step reads a joined column other
   than the join keys, the step compiles to a membership test against
   the table's NULL-free :meth:`Table.key_set`; when exactly one such
   condition is an attribute-attribute ``<``/``<=``/``>``/``>=`` against
   a bound column, it compiles to one comparison with the per-key
   minimum or maximum of that column (:meth:`Table.key_extremum`) — the
   repeat-access ``L.Date > L2.Date`` asks ``L.Date > min(L2.Date)``.
   Neither fans out nor builds a projection index.
8. **Key-driven whole-log semijoins** — ``distinct_values_in(q, L.Lid,
   L.Lid, batch)`` over a batch at least a quarter of the log's size,
   where ``L.Lid`` is in no condition and every other ``L`` attribute
   only in equality joins, runs over the log's distinct join keys (the
   keys of :meth:`Table.key_groups`); a key set stage over key tuples
   is one set intersection, and surviving keys expand to ids at their
   group's positions.  One ``L.c op X.d`` whose ``X`` joins on exactly
   the keys drops ``X``: an id is kept when its ``c`` beats its key's
   :meth:`Table.key_extremum` of ``d``, in one pass over the rows.

Correctness of both multiplicity settings (``distinct_reduction`` on and
off; point, probe and batch entry points) is pinned to a nested-loop
brute-force reference evaluator by ``tests/test_differential_executor.py``.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import replace
from itertools import chain, compress, repeat
from typing import Any, NamedTuple

from .database import Database
from .errors import QueryError
from .optimizer import PlanCache, QueryPlan, build_plan, query_shape, shared_plan_cache
from .query import (
    FLIPPED,
    AttrRef,
    Condition,
    ConjunctiveQuery,
    cond_attr_refs,
)
from .table import Table, tuple_getter

#: One compiled residual condition: ``(rows, literals) -> kept rows``.
Filter = Callable[[list[tuple], Sequence[Any]], list[tuple]]

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Probe-side-to-build-side size ratio below which a join switches from
#: build-a-hashmap to probing the table's cached projection index.
INDEX_JOIN_RATIO = 4

#: Shared miss default for hashmap probes.
_EMPTY: tuple = ()


class _Never:
    """The threshold of a key that has none: all its comparisons are false."""

    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: False  # noqa: E731


_NEVER = _Never()


class _Source:
    """One tuple variable's input to the join pipeline, compiled.

    Holds names only — table, needed attributes, pushed-down point
    predicates, the semijoin-restricted attribute — so it is independent
    of literal values and of table contents; :meth:`rows` materializes
    it against the live table and one call's literals.  The table is
    named, not held: a table replaced in the catalog is seen by the next
    run.
    """

    __slots__ = (
        "table", "attrs", "cols", "reduce", "point", "in_attr", "indexed", "keyed"
    )

    def __init__(
        self,
        table: str,
        alias: str,
        attrs: tuple[str, ...],
        point: list[tuple[str, int]],
        reduce_rows: bool,
        in_attr: str | None,
        keyed: bool = False,
    ) -> None:
        self.table = table
        self.attrs = attrs
        self.cols = [AttrRef(alias, a) for a in attrs]
        self.reduce = reduce_rows
        #: ``(attr, condition index)`` per point predicate; the literal is
        #: read from the run's literals.
        self.point = point
        self.in_attr = in_attr
        #: True when rows are exactly the table's distinct projection: a
        #: join then probes the table's cached projection index.
        self.indexed = reduce_rows and not point and in_attr is None
        self.keyed = keyed

    def rows(
        self,
        table: Table,
        literals: Sequence[Any],
        in_values: set | frozenset | None,
    ) -> list[tuple]:
        """This run's rows: point predicates and the semijoin restriction
        resolve through index probes (small result), anything else is the
        table's (distinct) projection."""
        attrs = self.attrs
        if self.point:
            first, index = self.point[0]
            source = table.lookup(first, literals[index])
            for attr, index in self.point[1:]:
                col, value = table.schema.column_index(attr), literals[index]
                source = [r for r in source if r[col] == value]
            rows = list(map(table.row_getter(attrs), source))
            if self.reduce:
                rows = list(dict.fromkeys(rows))
            if self.in_attr is not None:
                pos = attrs.index(self.in_attr)
                rows = [r for r in rows if r[pos] in in_values]
            return rows
        if self.in_attr is not None:
            return self._restricted_rows(table, self.in_attr, in_values)
        if self.keyed:
            groups = table.key_groups(attrs)
            return list(groups) if len(attrs) > 1 else [(k,) for k in groups]
        if self.reduce:
            return list(table.project_distinct(attrs))
        if attrs == table.schema.column_names:
            return table.rows()  # identity projection: reuse storage
        return list(map(table.row_getter(attrs), table.rows()))

    def _restricted_rows(
        self, table: Table, attr: str, values: set | frozenset
    ) -> list[tuple]:
        """Materialize ``attr IN values`` through the batch probes.

        Small binding sets probe by set intersection (the projection
        index, keyed by bare values); large ones scan the columnar mirror.
        ``values`` never contains NULL (stripped by the caller: NULL never
        joins).
        """
        attrs = self.attrs
        small = len(values) * INDEX_JOIN_RATIO < max(1, len(table))
        if self.reduce:
            if small:
                probed = table.projection_probe(attrs, (attr,), values)
                return [t for entries in probed.values() for t in entries]
            pos = attrs.index(attr)
            return [t for t in table.project_distinct(attrs) if t[pos] in values]
        getter = table.row_getter(attrs)
        if small:
            return list(map(getter, table.lookup_many(attr, values)))
        rows = table.rows()
        return [
            getter(rows[i])
            for i, v in enumerate(table.column_array(attr))
            if v in values
        ]


class _Stage(NamedTuple):
    """One compiled pipeline step: bind ``source`` — the driving relation
    when it is the first stage, else joined on ``key_attrs`` (empty for an
    explicit cartesian product) — then apply the conditions that became
    fully bound and drop the columns nothing downstream needs."""

    source: _Source
    key_attrs: tuple[str, ...]
    #: Join-key extractors over a build-side row / a bound row: a bare
    #: column position for single-attribute joins (scalar keys, no
    #: per-row tuple allocation), else an ``itemgetter``.
    build: Any
    probe: Any
    filters: list[Filter]
    prune: Callable[[tuple], tuple] | None
    #: ``scan`` (the driving relation), ``hash-join``, ``cartesian``,
    #: ``semijoin`` (keep a bound row whose key the table holds) or
    #: ``extremum(min|max)`` (… and whose bound value compares true
    #: against the key's min/max of a dropped column).
    kind: str
    #: extremum stages: (joined column, largest?, compare, bound position)
    extremum: tuple[str, bool, Callable[[Any, Any], bool], int] | None = None


class _Pipeline(NamedTuple):
    """A query shape compiled for the join body: the stages in plan
    order, the output columns, and whether intermediates dedupe."""

    stages: list[_Stage]
    cols: list[AttrRef]
    reduce: bool


def _compile_filter(cond: Condition, index: int, pos: dict[AttrRef, int]) -> Filter:
    """One residual condition as a specialized comprehension (SQL
    three-valued semantics compiled into the ``is not None`` guards).  A
    literal operand is read from ``literals[index]`` at run time, so one
    compiled filter serves every query of the shape."""
    op, li = cond.op, pos[cond.left]
    if isinstance(cond.right, AttrRef):
        ri = pos[cond.right]
        if op == "=":
            # x == None is False for every concrete x here, so one guard
            # covers both NULL sides.
            return lambda rows, literals: [
                r for r in rows if r[li] is not None and r[li] == r[ri]
            ]
        cmp = _OPS[op]
        return lambda rows, literals: [
            r
            for r in rows
            if r[li] is not None and r[ri] is not None and cmp(r[li], r[ri])
        ]
    if op == "=":

        def equals(rows: list[tuple], literals: Sequence[Any]) -> list[tuple]:
            rv = literals[index]
            if rv is None:
                return []  # comparison with NULL is never true
            return [r for r in rows if r[li] == rv]

        return equals
    cmp = _OPS[op]

    def compares(rows: list[tuple], literals: Sequence[Any]) -> list[tuple]:
        rv = literals[index]
        if rv is None:
            return []
        return [r for r in rows if r[li] is not None and cmp(r[li], rv)]

    return compares


def _literals(query: ConjunctiveQuery) -> list[Any]:
    """Per condition, its literal operand's value (None for attr-attr)."""
    return [
        None if isinstance(c.right, AttrRef) else c.right.value
        for c in query.conditions
    ]


class _KeyDrive(NamedTuple):
    """What :func:`_drive_keys` found (module docstring, 8)."""

    keys: tuple[str, ...]  # sorted
    dated: tuple[Condition, tuple[str, ...]] | None  # own op X.d, X's key columns


def _drive_keys(
    query: ConjunctiveQuery, attr: AttrRef, in_attr: AttrRef
) -> _KeyDrive | None:
    """How a semijoin on ``in_attr`` can run on its variable's join keys
    instead of its rows, or None: when ``attr`` is ``in_attr``, no
    condition mentions it, and its variable's other attributes appear
    only in equality joins (in the projection only as keys) but for one
    ``own op X.d`` (``<``, ``<=``, ``>``, ``>=``) at most, whose ``X``
    joins on exactly the keys and nothing else.  A row is then selected
    exactly when its key is and its ``own`` beats the key's min or max
    of ``X.d``."""
    if attr != in_attr:
        return None
    alias = in_attr.alias
    keys: set[str] = set()
    dated: list[Condition] = []
    for cond in query.conditions:
        mine = [r for r in cond_attr_refs(cond) if r.alias == alias]
        if not mine:
            continue
        if in_attr in mine:
            return None
        if cond.is_join:
            keys.update(r.attr for r in mine)
        elif cond.op in ("<", "<=", ">", ">=") and len(cond.aliases()) == 2:
            dated.append(cond)
        else:
            return None
    projected = {r.attr for r in query.projection if r.alias == alias}
    if not keys or not projected <= keys | {in_attr.attr} or len(dated) > 1:
        return None
    order = tuple(sorted(keys))
    if not dated:
        return _KeyDrive(order, None)
    (x,) = dated[0].aliases() - {alias}
    joined: dict[str, str] = {}  # own key -> X column
    for cond in query.conditions:
        refs = {r.alias: r.attr for r in cond_attr_refs(cond)}
        if cond is dated[0] or x not in refs:
            continue
        if not cond.is_join or alias not in refs or refs[alias] in joined:
            return None
        joined[refs[alias]] = refs[x]
    if set(joined) != keys or any(r.alias == x for r in query.projection):
        return None
    own_left = dated[0] if dated[0].left.alias == alias else dated[0].flipped()
    return _KeyDrive(order, (own_left, tuple(joined[k] for k in order)))


class QueryResult:
    """Materialized query output: ``columns`` (AttrRefs) and ``rows``."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: tuple[AttrRef, ...], rows: list[tuple]) -> None:
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column_position(self, ref: AttrRef) -> int:
        """Index of ``ref`` within this result's column tuple."""
        return self.columns.index(ref)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as ``{"alias.attr": value}`` dictionaries (for display)."""
        names = [str(c) for c in self.columns]
        return [dict(zip(names, row)) for row in self.rows]


class Executor:
    """Evaluates :class:`ConjunctiveQuery` objects against a :class:`Database`."""

    def __init__(
        self,
        db: Database,
        allow_cartesian: bool = False,
        distinct_reduction: bool = True,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.db = db
        self.allow_cartesian = allow_cartesian
        #: When False, base tables are fed to the join pipeline at full
        #: multiplicity and intermediates are never deduplicated — the
        #: paper's *unoptimized* query shape (Section 3.2.1 ablation).
        #: Final DISTINCT semantics are unaffected.  Read when a query is
        #: compiled: a prepared probe keeps the setting it was built with.
        self.distinct_reduction = distinct_reduction
        #: Memoized query plans, shared process-wide by default so every
        #: executor over the same template shapes reuses one plan; pass a
        #: private PlanCache to isolate (tests, benchmarks).
        self.plan_cache = plan_cache if plan_cache is not None else shared_plan_cache()
        #: Number of queries executed (exposed for the mining and streaming
        #: benchmarks, and by the streaming regression tests to assert the
        #: delta path issues O(templates × accesses) point queries).  A
        #: batch semijoin counts as ONE query regardless of batch size.
        self.queries_executed = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, query: ConjunctiveQuery) -> QueryResult:
        """Run ``query`` and return its (optionally distinct) projection."""
        self.queries_executed += 1
        self._validate(query)
        rel_cols, rel_rows = self._join_all(query)
        pos = [rel_cols.index(ref) for ref in query.projection]
        out = list(map(tuple_getter(pos), rel_rows))
        if query.distinct:
            out = list(dict.fromkeys(out))
        return QueryResult(tuple(query.projection), out)

    def count_distinct(self, query: ConjunctiveQuery, attr: AttrRef | None = None) -> int:
        """``SELECT COUNT(DISTINCT attr) ...`` — the paper's support query.

        When ``attr`` is None the first projected attribute is counted.
        """
        target = attr if attr is not None else query.projection[0]
        self.queries_executed += 1
        self._validate(query)
        rel_cols, rel_rows = self._join_all(query, needed_extra=(target,))
        pos = rel_cols.index(target)
        return len({row[pos] for row in rel_rows})

    def distinct_values(self, query: ConjunctiveQuery, attr: AttrRef | None = None) -> set:
        """The distinct value set of one attribute over the query result.

        Used by the evaluation harness, which needs the *set* of explained
        log ids (for recall/precision), not just its size.
        """
        target = attr if attr is not None else query.projection[0]
        self.queries_executed += 1
        self._validate(query)
        rel_cols, rel_rows = self._join_all(query, needed_extra=(target,))
        pos = rel_cols.index(target)
        return {row[pos] for row in rel_rows}

    def distinct_values_in(
        self,
        query: ConjunctiveQuery,
        attr: AttrRef,
        in_attr: AttrRef,
        in_values: Sequence[Any],
    ) -> set:
        """Batch semijoin: distinct ``attr`` values of the query result with
        ``in_attr`` restricted to ``in_values``.

        Semantically identical to adding ``in_attr IN in_values`` to the
        WHERE clause — i.e. to unioning one point query per value — but
        evaluated as ONE pipeline run: the restricted tuple variable is
        materialized through the table's batch probe APIs and drives the
        join order, or, for a large batch whose variable only joins on
        equalities, its distinct join keys drive (module docstring, 8).
        NULLs in ``in_values`` never match (SQL semantics), and rows whose
        ``in_attr`` is NULL are never selected; a set holding no NULL is
        used as given, without a copy.  This is the executor-level
        primitive behind ``explain_batch``: one semijoin per template
        replaces O(batch) per-access point queries.
        """
        self.queries_executed += 1
        self._validate(query)
        if isinstance(in_values, (set, frozenset)) and None not in in_values:
            values: set | frozenset = in_values
        else:
            values = {v for v in in_values if v is not None}
        if not values:
            return set()
        pipeline, drive = self._semijoin_pipeline(query, attr, in_attr, len(values))
        if drive is None:
            rows = self._run_pipeline(pipeline, _literals(query), values)
            pos = pipeline.cols.index(attr)
            return {row[pos] for row in rows}
        rows = self._run_pipeline(pipeline, _literals(query), None)
        refs = [AttrRef(in_attr.alias, k) for k in drive.keys]
        if pipeline.cols != refs or len(refs) == 1:
            # a bare value for one key, a tuple for several: as key_groups keys
            rows = map(operator.itemgetter(*map(pipeline.cols.index, refs)), rows)
        table = self.db.table(query.var(in_attr.alias).table)
        ids = table.column_array(in_attr.attr)
        if drive.dated is None:
            positions = map(table.key_groups(drive.keys).__getitem__, rows)
            out = set(map(ids.__getitem__, chain.from_iterable(positions)))
        else:
            # one pass in row order: keep an id whose own value beats its
            # key's threshold (if the key survived and has a non-NULL X.d)
            cond, other_keys = drive.dated
            own, op, other = cond.left, cond.op, cond.right
            best = self.db.table(query.var(other.alias).table).key_extremum(
                other_keys, other.attr, op in ("<", "<=")
            )
            limits = {k: best[k] for k in rows if k in best}
            column, cmp = table.column_array(own.attr), _OPS[op]
            if None in column:
                cmp = lambda v, e, cmp=cmp: v is not None and cmp(v, e)  # noqa: E731
            arrays = [table.column_array(k) for k in drive.keys]
            keys = arrays[0] if len(arrays) == 1 else zip(*arrays)
            limit = map(limits.get, keys, repeat(_NEVER))
            out = set(compress(ids, map(cmp, column, limit)))
        out.discard(None)
        out &= values
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(self, query: ConjunctiveQuery) -> None:
        for var in query.tuple_vars:
            table = self.db.table(var.table)  # raises UnknownTableError
            schema = table.schema
            for cond in query.conditions:
                for ref in cond_attr_refs(cond):
                    if ref.alias == var.alias and not schema.has_column(ref.attr):
                        raise QueryError(f"no column {ref.attr!r} in {var.table!r}")
            for ref in query.projection:
                if ref.alias == var.alias and not schema.has_column(ref.attr):
                    raise QueryError(f"no column {ref.attr!r} in {var.table!r}")

    def _plan_for(
        self,
        query: ConjunctiveQuery,
        needed_extra: Sequence[AttrRef],
        in_attr: AttrRef | None,
    ) -> QueryPlan:
        """The memoized plan for this query shape under this configuration.

        The key carries the database's identity: plans are shared across
        every executor over the *same* Database (engine, support
        evaluator, monitor), but a shape first planned against another
        database's table sizes is never reused — its join order would
        reflect the wrong cardinalities.
        """
        key = (
            id(self.db),
            query_shape(query),
            tuple((r.alias, r.attr) for r in needed_extra),
            (in_attr.alias, in_attr.attr) if in_attr else None,
            self.distinct_reduction,
            self.allow_cartesian,
        )
        plan = self.plan_cache.lookup(key)
        if plan is None:
            plan = build_plan(
                self.db,
                query,
                tuple(needed_extra),
                distinct_reduction=self.distinct_reduction,
                allow_cartesian=self.allow_cartesian,
                in_alias=in_attr.alias if in_attr else None,
            )
            self.plan_cache.store(key, plan)
        return plan

    def _join_all(
        self, query: ConjunctiveQuery, needed_extra: Sequence[AttrRef] = ()
    ) -> tuple[list[AttrRef], list[tuple]]:
        """Join every tuple variable along the cached plan; returns
        ``(columns, rows)``.

        Compiles the plan into stages (:meth:`_compile_pipeline`) and runs
        them (:meth:`_run_pipeline`) — the same two halves a prepared
        point probe keeps apart.
        """
        plan = self._plan_for(query, needed_extra, None)
        reduce_rows = self.distinct_reduction and query.distinct
        pipeline = self._compile_pipeline(query, plan, needed_extra, None, reduce_rows)
        return pipeline.cols, self._run_pipeline(pipeline, _literals(query), None)

    def _semijoin_pipeline(
        self, query: ConjunctiveQuery, attr: AttrRef, in_attr: AttrRef, batch: int
    ) -> tuple[_Pipeline, _KeyDrive | None]:
        """The pipeline ``distinct_values_in`` runs for a batch of
        ``batch`` values, and the key drive it runs under (None when it
        is driven by the restricted rows).

        Keys drive when :func:`_drive_keys` finds them and the batch is
        not small next to the table (the size test of
        :meth:`_Source._restricted_rows`): a small batch is cheaper to
        resolve through index probes than the whole log's keys.  That
        pipeline is the row plan narrowed to the keys, without ``X``.
        """
        plan = self._plan_for(query, (attr, in_attr), in_attr)
        reduce = self.distinct_reduction and query.distinct
        drive = _drive_keys(query, attr, in_attr) if reduce else None
        table = self.db.table(query.var(in_attr.alias).table)
        if drive is None or batch * INDEX_JOIN_RATIO < len(table):
            return self._compile_pipeline(query, plan, (attr, in_attr), in_attr, reduce), None
        x = drive.dated[0].right.alias if drive.dated else None
        kept = [i for i in plan.residual_idx if x not in query.conditions[i].aliases()]
        plan = replace(
            plan,
            needed={**plan.needed, in_attr.alias: drive.keys},
            residual_idx=tuple(kept),
            steps=tuple(step for step in plan.steps if step.alias != x),
        )
        refs = [AttrRef(in_attr.alias, k) for k in drive.keys]
        return self._compile_pipeline(query, plan, refs, None, reduce, in_attr.alias), drive

    def _compile_pipeline(
        self,
        query: ConjunctiveQuery,
        plan: QueryPlan,
        needed_extra: Sequence[AttrRef],
        in_attr: AttrRef | None,
        reduce_rows: bool,
        keyed: str | None = None,
    ) -> _Pipeline:
        """Resolve everything about a plan that no literal value and no
        table content can change: per-variable sources, which conditions
        become applicable after which step and at which row positions,
        the kind of each join (hash join, semijoin, extremum test),
        join-key extractors, and the prune projections.  ``keyed`` names
        a key drive's variable: its rows are its distinct non-NULL keys.
        """
        conditions = query.conditions
        keep_always = set(query.projection) | set(needed_extra)
        pending = list(plan.residual_idx)
        table_names = {v.alias: v.table for v in query.tuple_vars}

        def source(alias: str) -> _Source:
            name = table_names[alias]
            attrs = plan.needed[alias] or self.db.table(name).schema.column_names[:1]
            return _Source(
                name,
                alias,
                attrs,
                [
                    (conditions[i].left.attr, i)
                    for i in plan.pushable_idx.get(alias, ())
                ],
                reduce_rows,
                in_attr.attr if in_attr and in_attr.alias == alias else None,
                alias == keyed,
            )

        def take_ready(pos: dict[AttrRef, int]) -> list[int]:
            """Consume the pending conditions ``pos`` makes fully bound."""
            ready = [
                i
                for i in pending
                if all(ref in pos for ref in cond_attr_refs(conditions[i]))
            ]
            for i in ready:
                pending.remove(i)
            return ready

        def still_needed() -> set[AttrRef]:
            needed = set(keep_always)
            for i in pending:
                needed.update(cond_attr_refs(conditions[i]))
            return needed

        def pruned(cols: list[AttrRef]) -> tuple[Any, list[AttrRef]]:
            """The prune after a stage and the columns it leaves."""
            needed = still_needed()
            keep_pos = [i for i, c in enumerate(cols) if c in needed]
            if len(keep_pos) == len(cols):
                return None, cols
            return tuple_getter(keep_pos), [cols[i] for i in keep_pos]

        def semijoin(
            joined: _Source,
            pairs: list[tuple[AttrRef, AttrRef]],
            ready: list[int],
            cols: list[AttrRef],
        ) -> tuple[_Stage, list[AttrRef]] | None:
            """The join of ``joined`` on ``pairs`` (joined ref, bound ref)
            as a semijoin or extremum stage over the bound rows, or None
            when the step needs the joined rows themselves."""
            if not (reduce_rows and joined.indexed) or still_needed() & set(joined.cols):
                return None
            pos = {c: i for i, c in enumerate(cols)}
            # key columns in the bound row's order: when the row is the key,
            # the stage is one set intersection
            pairs = sorted(pairs, key=lambda pair: pos[pair[1]])
            # a joined key column reads as the bound value it equals
            pos.update((key, pos[bound]) for key, bound in pairs)
            plain = [
                i
                for i in ready
                if all(ref in pos for ref in cond_attr_refs(conditions[i]))
            ]
            other = [i for i in ready if i not in plain]
            kind, extremum = "semijoin", None
            if other:
                cond = conditions[other[0]]
                if (
                    len(other) > 1
                    or cond.op in ("=", "!=")
                    or not isinstance(cond.right, AttrRef)
                ):
                    return None
                # read it as ``bound op column``
                if cond.left in pos:
                    bound, column, op = cond.left, cond.right, cond.op
                else:
                    bound, column, op = cond.right, cond.left, FLIPPED[cond.op]
                if bound not in pos:
                    return None  # both sides are joined non-key columns
                # ``b < some c`` holds iff ``b < max(c)``; ``b > some c``
                # iff ``b > min(c)``
                largest = op in ("<", "<=")
                kind = "extremum(max)" if largest else "extremum(min)"
                extremum = (column.attr, largest, _OPS[op], pos[bound])
            probe_pos = [pos[bound] for _, bound in pairs]
            probe: Any = probe_pos[0]
            if len(pairs) > 1:
                identity = probe_pos == list(range(len(cols))) and not extremum
                # None: the bound row is the key
                probe = None if identity else operator.itemgetter(*probe_pos)
            filters = [_compile_filter(conditions[i], i, pos) for i in plain]
            prune, cols = pruned(cols)
            stage = _Stage(
                joined,
                tuple(key.attr for key, _ in pairs),
                None,
                probe,
                filters,
                prune,
                kind,
                extremum,
            )
            return stage, cols

        # The first step drives the pipeline: the planner ranks
        # point-predicate and semijoin-restricted relations first.
        start = source(plan.steps[0].alias)
        cols = list(start.cols)
        pos = {c: i for i, c in enumerate(cols)}
        filters = [_compile_filter(conditions[i], i, pos) for i in take_ready(pos)]
        prune, cols = pruned(cols)
        stages = [_Stage(start, (), None, None, filters, prune, "scan")]
        for step in plan.steps[1:]:
            joined = source(step.alias)
            # split each join condition into (new side, bound side)
            pairs: list[tuple[AttrRef, AttrRef]] = []
            for i in step.join_cond_idx:
                cond = conditions[i]
                if cond.left.alias == step.alias:
                    pairs.append((cond.left, cond.right))  # type: ignore[arg-type]
                else:
                    pairs.append((cond.right, cond.left))  # type: ignore[arg-type]
                pending.remove(i)
            joint = cols + joined.cols
            ready = take_ready({c: i for i, c in enumerate(joint)})
            compiled = semijoin(joined, pairs, ready, cols) if pairs else None
            if compiled is None:
                pos = {c: i for i, c in enumerate(joint)}
                filters = [_compile_filter(conditions[i], i, pos) for i in ready]
                build_pos = [joined.cols.index(key) for key, _ in pairs]
                probe_pos = [cols.index(bound) for _, bound in pairs]
                build: Any = None  # explicit cartesian product (opt-in only)
                probe: Any = None
                if len(pairs) == 1:
                    build, probe = build_pos[0], probe_pos[0]
                elif pairs:
                    build = operator.itemgetter(*build_pos)
                    probe = operator.itemgetter(*probe_pos)
                prune, after = pruned(joint)
                compiled = _Stage(
                    joined,
                    tuple(key.attr for key, _ in pairs),
                    build,
                    probe,
                    filters,
                    prune,
                    "hash-join" if pairs else "cartesian",
                ), after
            stage, cols = compiled
            stages.append(stage)
        if pending:
            raise QueryError(
                f"unapplied conditions remain: {[conditions[i] for i in pending]}"
            )
        return _Pipeline(stages, cols, reduce_rows)

    def _run_pipeline(
        self,
        pipeline: _Pipeline,
        literals: Sequence[Any],
        in_values: set | frozenset | None,
    ) -> list[tuple]:
        """The one join body: run compiled stages against the
        live tables with one call's literals (and semijoin binding set).

        Tables and their indexes are fetched by name on every run, so a
        compiled pipeline never outlives an index ``Table.clear()`` (or a
        table replaced in the catalog) dropped.  The loops are
        batch-at-a-time:

        * probe keys come from one ``itemgetter`` per step (or a bare
          column read for single-attribute joins, probing a hashmap keyed
          by bare values — no per-row key-tuple allocation);
        * NULL probe keys need no explicit skip — neither the projection
          indexes, the key sets, the extremum maps nor the hashmaps built
          here ever contain a NULL-bearing key, so a NULL probe simply
          misses;
        * filters run as one specialized comprehension per condition
          (SQL three-valued semantics compiled into the ``is not None``
          guards);
        * prune/projection dedup feed ``dict.fromkeys`` through
          ``map(itemgetter)``.
        """
        table_of = self.db.table
        rows: list[tuple] | None = None
        for stage in pipeline.stages:
            source = stage.source
            table = table_of(source.table)
            single = len(stage.key_attrs) == 1
            probe = stage.probe
            if rows is None:
                rows = source.rows(table, literals, in_values)
            elif not rows:
                return rows  # nothing left to join: the result is empty
            elif stage.kind == "semijoin":
                keys = table.key_set(stage.key_attrs)
                if probe is None:
                    rows = list(keys.intersection(rows))
                elif single:
                    rows = [row for row in rows if row[probe] in keys]
                else:
                    rows = [row for row in rows if probe(row) in keys]
            elif stage.extremum is not None:
                column, largest, cmp, at = stage.extremum
                best = table.key_extremum(stage.key_attrs, column, largest).get
                # a key with no non-NULL value has no entry: get() is None
                if single:
                    rows = [
                        row
                        for row in rows
                        if row[at] is not None
                        and (e := best(row[probe])) is not None
                        and cmp(row[at], e)
                    ]
                else:
                    rows = [
                        row
                        for row in rows
                        if row[at] is not None
                        and (e := best(probe(row))) is not None
                        and cmp(row[at], e)
                    ]
            elif not stage.key_attrs:
                vrows = source.rows(table, literals, in_values)
                rows = [row + vrow for row in rows for vrow in vrows]
            else:
                if source.indexed:
                    # Probe the table's delta-maintained projection index —
                    # the cached hash map this join would otherwise build
                    # per call (keyed like the one built here).
                    hashmap: dict = table.projection_index(
                        source.attrs, stage.key_attrs
                    )
                else:
                    hashmap = {}
                    build = stage.build
                    vrows = source.rows(table, literals, in_values)
                    if single:
                        for vrow in vrows:
                            key = vrow[build]
                            if key is not None:  # NULL never joins
                                hashmap.setdefault(key, []).append(vrow)
                    else:
                        for vrow in vrows:
                            key = build(vrow)
                            if None not in key:
                                hashmap.setdefault(key, []).append(vrow)
                get = hashmap.get
                if single:
                    rows = [
                        row + vrow for row in rows for vrow in get(row[probe], _EMPTY)
                    ]
                else:
                    rows = [
                        row + vrow for row in rows for vrow in get(probe(row), _EMPTY)
                    ]
            for apply in stage.filters:
                if not rows:
                    break
                rows = apply(rows, literals)
            if stage.prune is not None:
                projected = map(stage.prune, rows)
                if pipeline.reduce:
                    rows = list(dict.fromkeys(projected))
                else:
                    rows = list(projected)
        assert rows is not None  # a plan has at least one step
        return rows

    # ------------------------------------------------------------------
    # prepared point probes
    # ------------------------------------------------------------------
    def prepare_point(self, query: ConjunctiveQuery, pin: AttrRef) -> "PointProbe":
        """Compile ``query AND pin = ?`` once; the returned probe binds
        the value per call (see :class:`PointProbe`)."""
        return PointProbe(self, query, pin)


#: Stands in for the bound value while a probe's shape is validated and
#: planned (any non-NULL literal makes the pin a pushable point predicate).
_UNBOUND = object()


class PointProbe:
    """``probe(value)`` returns the rows of ``query AND pin = value`` in
    ``query.projection`` order — :meth:`Executor.execute` of that pinned
    query, with everything that does not depend on ``value`` done once.

    Validation, the plan (the pinned variable is a point predicate, so it
    drives the join order) and the compiled pipeline are resolved at
    construction; a call binds the value and runs the stages.  Planning
    ranks by raw row counts and compilation touches only schemas, so a
    probe can be prepared at open time without building any index —
    indexes still build lazily, on the first call that needs them.

    The executor's ``distinct_reduction`` setting is compiled in at
    construction (it is the pipeline's ``reduce`` flag, as for any other
    query).  Every call counts as one query.
    """

    __slots__ = ("executor", "query", "pin", "_pipeline", "_literals", "_project")

    def __init__(self, executor: Executor, query: ConjunctiveQuery, pin: AttrRef) -> None:
        self.executor = executor
        self.query = query
        self.pin = pin
        shape = query.pinned(pin, _UNBOUND)
        executor._validate(shape)
        plan = build_plan(
            executor.db,
            shape,
            allow_cartesian=executor.allow_cartesian,
            size_by_projection=False,
        )
        self._pipeline = executor._compile_pipeline(
            shape, plan, (), None, executor.distinct_reduction and query.distinct
        )
        self._literals = _literals(query)
        cols = self._pipeline.cols
        self._project = tuple_getter([cols.index(r) for r in query.projection])

    def __call__(self, value: Any) -> list[tuple]:
        executor = self.executor
        executor.queries_executed += 1
        if value is None:
            return []  # comparison with NULL is never true
        rows = executor._run_pipeline(self._pipeline, self._literals + [value], None)
        out = map(self._project, rows)
        if self.query.distinct:
            return list(dict.fromkeys(out))
        return list(out)


def explain_query(
    db: Database, query: ConjunctiveQuery, drive: AttrRef | None = None
) -> str:
    """A human-readable one-line plan summary (for debugging and docs).

    Without ``drive`` it describes the pipeline :meth:`Executor.execute`
    runs; with it, the whole-table batch semijoin
    ``distinct_values_in(query, drive, drive, <every value>)`` — the
    pass ``explain_all`` makes per template.  It names the driving
    relation, whether that relation is reduced to its join keys, the
    kind of every later stage, and a key drive's per-key threshold.
    """
    executor = Executor(db)
    executor._validate(query)
    keys = None
    if drive is None:
        plan = executor._plan_for(query, (), None)
        reduce_rows = executor.distinct_reduction and query.distinct
        pipeline = executor._compile_pipeline(query, plan, (), None, reduce_rows)
    else:
        size = len(db.table(query.var(drive.alias).table))
        pipeline, keys = executor._semijoin_pipeline(query, drive, drive, size)
    sizes = ", ".join(
        f"{v.alias}:{len(db.table(v.table))}" for v in query.tuple_vars
    )
    first, *rest = pipeline.stages
    driver = first.source.cols[0].alias
    driven = f"keys ({', '.join(keys.keys)})" if keys else "rows"
    stages = "".join(f", {s.source.cols[0].alias} {s.kind}" for s in rest)
    if keys and keys.dated:
        c = keys.dated[0]
        best = "max" if c.op in ("<", "<=") else "min"
        stages += f", ids by {c.left} {c.op} {best}({c.right})"
    return (
        f"join pipeline over {len(query.tuple_vars)} vars "
        f"({sizes}); {len(query.join_conditions())} joins, "
        f"{len(query.filter_conditions())} filters; "
        f"drives from {driver} {driven}{stages}"
    )
