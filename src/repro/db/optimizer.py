"""System-R-style cardinality estimation.

The paper's third mining optimization (*Skipping Non-Selective Paths*,
Section 3.2.1) asks "the database optimizer for the number of log ids it
expects to be in the result of the query"; when the estimate exceeds
``S × c`` the support computation is deferred to the next iteration.  This
module supplies that estimate.

The model is the classical textbook one:

* base cardinality = table row count;
* an equi-join on ``R.a = S.b`` multiplies cardinalities and divides by
  ``max(ndv(R.a), ndv(S.b))``;
* an attribute-literal equality divides by ``ndv``;
* every inequality filter multiplies by a fixed 1/3 selectivity;
* the expected number of *distinct* values of an attribute over an
  estimated result of ``n`` rows uses the balls-in-bins estimator
  ``d · (1 − (1 − 1/d)^n)`` for an attribute with ``d`` distinct values.

An optional ``error_factor`` multiplies every estimate, used by the
ablation benchmark to study the paper's claim that optimizer estimation
error changes performance but never the mined output.

Besides cardinalities, this module hosts the executor's *query planner*:

* :func:`build_plan` turns a query into a :class:`QueryPlan` — the
  needed-attribute projection per tuple variable, the pushdown split
  (per-alias literal equalities such as ``L.Lid = 42``, which the
  executor pushes down to hash-index probes before the join pipeline,
  versus the residual join/filter conditions), and the greedy join
  order — everything the executor previously re-derived on every call;
* :class:`PlanCache` memoizes those plans keyed on *query shape*
  (:func:`query_shape`): literal values are abstracted away, so the
  thousands of per-access point queries a streamed template generates,
  and every repeated batch evaluation of a template, share one plan and
  never re-plan.  Plans carry only names and condition indices (no row
  positions, no schema offsets), so a cached plan stays valid as tables
  grow — join order may become stale, which affects speed, never results.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Any

from .database import Database
from .errors import QueryError
from .query import AttrRef, ConjunctiveQuery, Literal, TupleVar, cond_attr_refs

#: Default selectivity charged to each inequality (decoration) condition.
INEQUALITY_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class PlanStep:
    """One pipeline step: bind ``alias``, consuming the join conditions at
    ``join_cond_idx`` (indices into the query's condition tuple).  The
    starting relation and explicit cartesian steps carry no join
    conditions."""

    alias: str
    join_cond_idx: tuple[int, ...]


@dataclass(frozen=True)
class QueryPlan:
    """A data-independent execution recipe for one query shape.

    Everything is expressed in names and condition *indices*, never in
    concrete literal values or row counts, so one plan serves every query
    with the same shape — each streamed access's point query, each batch
    semijoin of the same template — and survives table growth.
    """

    #: alias -> attributes the pipeline must materialize for it (sorted;
    #: empty means "any one column", resolved against the live schema).
    needed: dict[str, tuple[str, ...]]
    #: alias -> indices of its pushable point-predicate conditions.
    pushable_idx: dict[str, tuple[int, ...]]
    #: indices of the conditions entering the join/filter pipeline.
    residual_idx: tuple[int, ...]
    #: the join order (first step is the pipeline's driving relation).
    steps: tuple[PlanStep, ...]


def query_shape(query: ConjunctiveQuery) -> tuple:
    """A hashable abstraction of a query with literal *values* erased.

    Two queries share a shape when they have the same tuple variables,
    conditions (up to literal values — only NULL-ness is kept, since it
    decides pushability), projection, and DISTINCT flag.  This is the
    plan-cache key: per-access point queries that differ only in the
    pinned log id all map to one entry.
    """
    conds = []
    for cond in query.conditions:
        if isinstance(cond.right, AttrRef):
            right = ("attr", cond.right.alias, cond.right.attr)
        else:
            right = ("lit", cond.right.value is None)
        conds.append((cond.left.alias, cond.left.attr, cond.op, right))
    return (
        tuple((v.alias, v.table) for v in query.tuple_vars),
        tuple(conds),
        tuple((r.alias, r.attr) for r in query.projection),
        query.distinct,
    )


class PlanCache:
    """Memoized plan objects keyed on query shape + config.

    Entries are :class:`QueryPlan` objects for the in-memory executor
    and :class:`~repro.db.dialect.CompiledQuery` objects for the SQL
    executor (whose keys carry a ``"sql"`` tag, so the two executors
    never collide in a shared cache).

    Shared by default across every :class:`~repro.db.executor.Executor`
    (engine, support evaluator, monitor all reuse one cache), so repeated
    template evaluation never re-plans.  Bounded LRU eviction keeps the
    cache from growing without limit under adversarial workloads: a hit
    refreshes the entry's recency, and a full cache evicts the least
    recently used plan.  All operations hold an internal lock, so one
    cache may serve concurrent reader threads (``repro.api.AuditService``
    shares one per service).
    """

    def __init__(self, max_size: int = 1024) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.max_size = max_size
        self._plans: dict[tuple, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: tuple) -> Any | None:
        """The cached plan for ``key``, counting the hit/miss.

        A hit moves the entry to most-recently-used position.
        """
        with self._lock:
            plan = self._plans.pop(key, None)
            if plan is None:
                self.misses += 1
            else:
                self.hits += 1
                self._plans[key] = plan
            return plan

    def store(self, key: tuple, plan: Any) -> None:
        """Memoize one plan, evicting the LRU entry when full."""
        with self._lock:
            if key not in self._plans and len(self._plans) >= self.max_size:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan

    def clear(self) -> None:
        """Drop every cached plan and zero the counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict:
        """Hit/miss counters (exposed by benchmarks and tests)."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PlanCache size={len(self)} hits={self.hits} misses={self.misses}>"


#: The default cache every Executor shares (see :func:`shared_plan_cache`).
_SHARED_PLAN_CACHE = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide plan cache Executors use unless given their own."""
    return _SHARED_PLAN_CACHE


def build_plan(
    db: Database,
    query: ConjunctiveQuery,
    needed_extra: tuple[AttrRef, ...] = (),
    *,
    distinct_reduction: bool = True,
    allow_cartesian: bool = False,
    in_alias: str | None = None,
    size_by_projection: bool = True,
) -> QueryPlan:
    """Plan one query: needed attributes, pushdown split, join order.

    ``in_alias`` marks the tuple variable a batch semijoin restricts; it
    is ranked like a point-predicate relation (assumed small) so the
    binding set drives the pipeline.  Table sizes are consulted only to
    order joins — the resulting plan contains no data, so the caller may
    cache and reuse it as tables grow.  ``size_by_projection=False``
    ranks by raw row counts instead of distinct-projection sizes, so
    planning builds nothing: prepared point probes are planned when a
    service opens, and their projections must stay lazy.
    """
    conditions = query.conditions

    needed: dict[str, set[str]] = {v.alias: set() for v in query.tuple_vars}
    for cond in conditions:
        for ref in cond_attr_refs(cond):
            needed[ref.alias].add(ref.attr)
    for ref in list(query.projection) + list(needed_extra):
        if ref.alias not in needed:
            raise QueryError(f"unknown alias in projection/extras: {ref}")
        needed[ref.alias].add(ref.attr)
    needed_attrs = {alias: tuple(sorted(attrs)) for alias, attrs in needed.items()}

    # ``attr = NULL`` is never pushable: SQL comparison semantics make it
    # unsatisfiable, while an index probe for ``None`` would wrongly return
    # the NULL rows — the ordinary filter path rejects it.
    pushable: dict[str, list[int]] = {}
    residual: list[int] = []
    for i, cond in enumerate(conditions):
        if (
            cond.op == "="
            and isinstance(cond.right, Literal)
            and cond.right.value is not None
        ):
            pushable.setdefault(cond.left.alias, []).append(i)
        else:
            residual.append(i)

    # Ranks for the greedy order: point-predicate and semijoin-restricted
    # relations are assumed tiny; everything else ranks by its (distinct)
    # size at plan time, computed only when a choice compares it.
    reduce_rows = distinct_reduction and query.distinct

    @functools.cache
    def rank(var: TupleVar) -> tuple:
        if var.alias in pushable:
            return (0, 0)
        if var.alias == in_alias:
            return (0, 1)
        table = db.table(var.table)
        attrs = needed_attrs[var.alias] or (table.schema.column_names[0],)
        if reduce_rows and size_by_projection:
            return (1, len(table.project_distinct(attrs)))
        return (1, len(table))

    tuple_vars = list(query.tuple_vars)
    # a tiny relation starts whatever the others' sizes (ties: the first)
    tiny = [v for v in tuple_vars if v.alias in pushable or v.alias == in_alias]
    start = min(tiny or tuple_vars, key=rank)

    bound = {start.alias}
    pending = list(residual)
    steps = [PlanStep(start.alias, ())]

    def drop_bound_filters() -> None:
        """Simulate the executor applying every fully bound condition."""
        pending[:] = [
            i
            for i in pending
            if not all(ref.alias in bound for ref in cond_attr_refs(conditions[i]))
        ]

    drop_bound_filters()
    remaining = [v for v in tuple_vars if v.alias != start.alias]
    while remaining:
        candidates = []
        for var in remaining:
            join_idx = [
                i
                for i in pending
                if conditions[i].op == "="
                and isinstance(conditions[i].right, AttrRef)
                and (
                    (
                        conditions[i].left.alias == var.alias
                        and conditions[i].right.alias in bound
                    )
                    or (
                        conditions[i].right.alias == var.alias
                        and conditions[i].left.alias in bound
                    )
                )
            ]
            if join_idx:
                candidates.append((var, join_idx))
        if not candidates:
            if not allow_cartesian:
                raise QueryError(
                    "query join graph is disconnected (cartesian product "
                    "required); pass allow_cartesian=True to permit it"
                )
            var, join_idx = remaining[0], []
        elif len(candidates) == 1:
            var, join_idx = candidates[0]
        else:
            var, join_idx = min(candidates, key=lambda c: (rank(c[0]), c[0].alias))
        steps.append(PlanStep(var.alias, tuple(join_idx)))
        bound.add(var.alias)
        remaining = [v for v in remaining if v.alias != var.alias]
        for i in join_idx:
            pending.remove(i)
        drop_bound_filters()

    return QueryPlan(
        needed=needed_attrs,
        pushable_idx={alias: tuple(idx) for alias, idx in pushable.items()},
        residual_idx=tuple(residual),
        steps=tuple(steps),
    )


class CardinalityEstimator:
    """Estimates result sizes and distinct counts for conjunctive queries."""

    def __init__(self, db: Database, error_factor: float = 1.0) -> None:
        if error_factor <= 0:
            raise ValueError("error_factor must be positive")
        self.db = db
        self.error_factor = error_factor

    # ------------------------------------------------------------------
    def table_cardinality(self, table: str) -> int:
        """Row-count statistic for one table."""
        return len(self.db.table(table))

    def ndv(self, table: str, column: str) -> int:
        """Distinct-value statistic for one column (>= 1 to avoid /0)."""
        return max(1, self.db.table(table).ndv(column))

    def _attr_ndv(self, query: ConjunctiveQuery, ref: AttrRef) -> int:
        return self.ndv(query.var(ref.alias).table, ref.attr)

    # ------------------------------------------------------------------
    def estimate_rows(self, query: ConjunctiveQuery) -> float:
        """Estimated row count of the (pre-projection) join result."""
        est = 1.0
        for var in query.tuple_vars:
            est *= max(1, self.table_cardinality(var.table))
        for cond in query.conditions:
            if cond.op == "=":
                if isinstance(cond.right, AttrRef):
                    d = max(
                        self._attr_ndv(query, cond.left),
                        self._attr_ndv(query, cond.right),
                    )
                else:
                    d = self._attr_ndv(query, cond.left)
                est /= max(1, d)
            elif cond.op == "!=":
                pass  # nearly non-selective; charge nothing
            else:
                est *= INEQUALITY_SELECTIVITY
        return est * self.error_factor

    def estimate_distinct(self, query: ConjunctiveQuery, attr: AttrRef) -> float:
        """Expected ``COUNT(DISTINCT attr)`` over the estimated result.

        This is the number the skip-non-selective optimization compares
        against ``S × c``.
        """
        n = self.estimate_rows(query)
        d = float(self._attr_ndv(query, attr))
        if n <= 0:
            return 0.0
        if n / d > 50:  # avoid pow underflow for huge n; saturates at d
            return d
        return d * (1.0 - (1.0 - 1.0 / d) ** n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CardinalityEstimator error_factor={self.error_factor}>"
