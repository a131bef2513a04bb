"""Support computation with the paper's three optimizations (Section 3.2.1).

Support of a path/template = the number of distinct log ids returned by

.. code-block:: sql

    SELECT COUNT(DISTINCT Log.Lid) FROM Log, T_1, ..., T_n WHERE C

**Counting by extension.**  A mining path is a chain
``L.start = T1.a1, T1.b1 = T2.a2, ..., Tk.bk = L.end``, and the miners
only ever grow a supported chain by one edge (Algorithm 1), so the
evaluator never joins a chain from scratch.  All a longer path needs to
know about a chain is its *relation*: a dict from each value the chain
can arrive with at its open end to the set of start values that reach
it.  Extending by one edge is one pass over the distinct ``(entry,
exit)`` value pairs of the table being left, unioning the sets of the
entries that lead to each exit (a set with a single source is shared
with the parent relation, never copied); closing at ``L.end`` meets the
relation with the log's own ``(start, end)`` pairs.  One join step per
candidate, and no query object, validation, plan or compiled pipeline
on the way.  An end-anchored partial path is the mirror image — edges
reversed, walked from ``L.end``, end values in the sets.

:meth:`SupportEvaluator.support_many` evaluates a round's batch in
edge-sequence order as a depth-first walk: only the relations on the
current spine are alive (at most ``max_length``), so every distinct
prefix in the batch is composed once and nothing outlives the call.
Depth-first rather than memoised per frontier path because the frontier
is thousands of paths wide and its relations are megabytes each.  The
pair and log indexes the walk probes are built from the tables' column
arrays and belong to the evaluator, so they die with the miner.

Support is ``COUNT(DISTINCT lid)``, not a row count: log rows are
weighed by their number only when the generic executor finds as many
distinct lids in the log as it has rows (one query per evaluator),
otherwise by their set of lid values — a repeated lid counts once and
so does NULL, as in :meth:`~repro.db.executor.Executor.count_distinct`.

The evaluator layers the paper's optimizations on top:

1. **Caching selection conditions and support values** — paths whose
   condition sets are equal (up to alias renaming) share one evaluation.
2. **Reducing result multiplicity** — relations hold distinct values
   only.  ``SupportConfig(distinct_reduction=False)`` is the paper's
   unoptimised shape: every path is then rebuilt as a query and joined
   at full multiplicity by the generic executor (the ablation bench).
3. **Skipping non-selective paths** — when the optimizer expects more than
   ``S × c`` distinct log ids, the support computation is deferred and the
   path is passed to the next mining round unverified.  Explanation
   (fully-anchored) paths are never skipped.

:meth:`SupportEvaluator.support_of_query` counts arbitrary (decorated)
queries through :meth:`Executor.count_distinct`, which is also the
differential reference for the composition
(``tests/test_differential_support.py``).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from ..db.database import Database
from ..db.executor import Executor
from ..db.optimizer import CardinalityEstimator, PlanCache
from ..db.query import AttrRef, ConjunctiveQuery, TupleVar, canonical_query_signature
from .path import Path

#: One edge in walking order: ``(table left, exit attr, table entered,
#: entry attr)``.
Hop = tuple[str, str, str, str]

#: Value at a chain's open end -> the log-anchor values that reach it.
Relation = dict[Any, set]


@dataclass
class SupportStats:
    """Counters the mining benchmarks report."""

    queries_run: int = 0
    cache_hits: int = 0
    skipped: int = 0
    query_time: float = 0.0
    #: one-edge relation compositions performed (extensions + closings)
    join_steps: int = 0

    def snapshot(self) -> dict:
        """The counters as a plain dict (for reports and benchmarks)."""
        return {
            "queries_run": self.queries_run,
            "cache_hits": self.cache_hits,
            "skipped": self.skipped,
            "query_time": self.query_time,
            "join_steps": self.join_steps,
        }


@dataclass
class SupportConfig:
    """Optimization toggles (paper Section 3.2.1).

    ``skip_constant`` is the paper's *c*: the optimizer-estimate slack
    factor accounting for estimation error (default 10).
    """

    use_cache: bool = True
    use_skip: bool = True
    skip_constant: float = 10.0
    distinct_reduction: bool = True
    estimator_error_factor: float = 1.0


def _index(build: Callable) -> Callable:
    """Memoise an index-building method per argument tuple on its
    evaluator, so every index dies with the evaluator that built it."""

    @functools.wraps(build)
    def cached(self: "SupportEvaluator", *args: str) -> Any:
        key = (build.__name__, *args)
        if key not in self._indexes:
            self._indexes[key] = build(self, *args)
        return self._indexes[key]

    return cached


def chain_of(path: Path) -> tuple[Hop, ...]:
    """``path`` as hops walked away from its log anchor: start to end for
    a start-anchored path, the mirror image for an end-anchored one."""
    edges = [step.edge for step in path.steps]
    if path.anchored_start:
        return tuple((e.src.table, e.src.attr, e.dst.table, e.dst.attr) for e in edges)
    if not path.anchored_end:
        raise ValueError("support needs a path anchored at the log")
    return tuple(
        (e.dst.table, e.dst.attr, e.src.table, e.src.attr) for e in reversed(edges)
    )


class SupportEvaluator:
    """Computes (and caches) the support of candidate paths."""

    def __init__(
        self,
        db: Database,
        log_id_attr: str = "Lid",
        config: SupportConfig | None = None,
    ) -> None:
        self.db = db
        self.log_id_attr = log_id_attr
        self.config = config or SupportConfig()
        # A private plan cache: an ablation run plans thousands of shapes,
        # which must not evict the process-wide cache's plans.
        self.executor = Executor(
            db,
            distinct_reduction=self.config.distinct_reduction,
            plan_cache=PlanCache(),
        )
        self.estimator = CardinalityEstimator(
            db, error_factor=self.config.estimator_error_factor
        )
        self.stats = SupportStats()
        self._cache: dict = {}
        #: every index the composition probes (see :func:`_index`)
        self._indexes: dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    def support_of_query(self, query: ConjunctiveQuery, count_attr: AttrRef) -> int:
        """Cached ``COUNT(DISTINCT count_attr)`` of an arbitrary query,
        through the generic executor."""
        key = None
        if self.config.use_cache:
            key = (canonical_query_signature(query), count_attr.attr)
            if key in self._cache:
                self.stats.cache_hits += 1
                return self._cache[key]
        started = time.perf_counter()
        value = self.executor.count_distinct(query, count_attr)
        self.stats.query_time += time.perf_counter() - started
        self.stats.queries_run += 1
        if key is not None:
            self._cache[key] = value
        return value

    def support(self, path: Path) -> int:
        """Exact support of a path (number of log entries it explains)."""
        return self.support_many([path])[0]

    def support_many(self, paths: Sequence[Path]) -> list[int]:
        """Exact support of a whole batch of paths, in input order.

        The entry point the miners' per-round candidate batches go
        through.  Paths sharing a canonical condition-set signature
        collapse onto one evaluation in the support cache; the rest are
        counted in one depth-first walk (:meth:`_walk`) that composes each
        distinct prefix of the batch once.  Counters move exactly as if
        each path had been counted on its own, in order.
        """
        out = [0] * len(paths)
        jobs: list[tuple[int, Path]] = []
        first: dict[tuple, int] = {}  # uncached key -> the slot that counts it
        hits: list[tuple[int, tuple]] = []  # answered from the cache afterwards
        for slot, path in enumerate(paths):
            if self.config.use_cache:
                key = (path.signature(), self.log_id_attr)
                if key in self._cache or key in first:
                    self.stats.cache_hits += 1
                    hits.append((slot, key))
                    continue
                first[key] = slot
            jobs.append((slot, path))
        started = time.perf_counter()
        if self.config.distinct_reduction:
            self._walk(jobs, out)
        else:
            target = AttrRef("L", self.log_id_attr)
            for slot, path in jobs:
                query = path.to_query(log_id_attr=self.log_id_attr)
                out[slot] = self.executor.count_distinct(query, target)
        self.stats.query_time += time.perf_counter() - started
        self.stats.queries_run += len(jobs)
        for key, slot in first.items():
            self._cache[key] = out[slot]
        for slot, key in hits:
            out[slot] = self._cache[key]
        return out

    def skips(self, path: Path, threshold: float) -> bool:
        """The skip-non-selective-paths test: True (and counted) when the
        optimizer expects ``path`` to be comfortably supported, so its
        support need not be computed this round.  Explanations are never
        skipped (paper: "In the special case when the path is also an
        explanation, the path is not skipped"), nor is a path whose
        support is already cached."""
        if not self.config.use_skip or path.is_explanation:
            return False
        if (
            self.config.use_cache
            and (path.signature(), self.log_id_attr) in self._cache
        ):
            return False
        if self._estimate(path) <= threshold * self.config.skip_constant:
            return False
        self.stats.skipped += 1
        return True

    def support_or_skip(self, path: Path, threshold: float) -> int | None:
        """Support with the skip-non-selective-paths optimization.

        Returns ``None`` when the path's support computation was skipped
        (see :meth:`skips`); the caller must treat a ``None`` as "passes
        for now" and re-derive pruning from the path's descendants.
        """
        return None if self.skips(path, threshold) else self.support(path)

    # ------------------------------------------------------------------
    # the skip estimate
    # ------------------------------------------------------------------
    def _estimate(self, path: Path) -> float:
        """``CardinalityEstimator.estimate_distinct`` of the path's support
        query, read off the steps: the same arithmetic in the same order
        (tables in variable order, then one division per join edge)."""
        ndv = self.estimator.ndv
        rows = 1.0
        for table in path.var_tables:
            rows *= max(1, self.estimator.table_cardinality(table))
        for step in path.steps:
            src, dst = step.edge.src, step.edge.dst
            rows /= max(ndv(src.table, src.attr), ndv(dst.table, dst.attr))
        rows *= self.estimator.error_factor
        lids = float(ndv(path.log_table, self.log_id_attr))
        if rows <= 0:
            return 0.0
        if rows / lids > 50:
            return lids
        return lids * (1.0 - (1.0 - 1.0 / lids) ** rows)

    # ------------------------------------------------------------------
    # counting by relation composition
    # ------------------------------------------------------------------
    def _walk(self, jobs: list[tuple[int, Path]], out: list[int]) -> None:
        """Count every ``(slot, path)`` job into ``out[slot]``.

        Jobs are visited in edge-sequence order, so paths sharing a prefix
        are neighbours and ``spine`` — the relations of the current
        path's prefixes, one per hop — is cut back only to the first hop
        that differs.
        """
        spine: list[tuple[Hop, Relation]] = []
        for chain, slot, path in sorted(
            (chain_of(path), slot, path) for slot, path in jobs
        ):
            log, anchor = chain[0][:2]
            # the root of every spine: the log's anchor column, each value
            # reached by itself
            body = (("", "", log, anchor),) + chain
            if path.is_explanation:
                body = body[:-1]  # the closing hop builds no relation
            depth = 0
            while (
                depth < len(spine)
                and depth < len(body)
                and spine[depth][0] == body[depth]
            ):
                depth += 1
            del spine[depth:]
            for hop in body[depth:]:
                if spine:
                    relation = self._extend(spine[-1], hop)
                else:
                    relation = {v: {v} for v in self._column_values(log, anchor)}
                spine.append((hop, relation))
            if path.is_explanation:
                out[slot] = self._close(spine[-1], chain[-1], log, anchor)
            else:
                reached = set().union(*spine[-1][1].values())
                weights = self._log_weights(log, anchor)  # keyed by 1-tuples
                out[slot] = self._count(log, map(weights.__getitem__, zip(reached)))

    def _extend(self, parent: tuple[Hop, Relation], hop: Hop) -> Relation:
        """The parent chain's relation carried across one more edge: out
        of the table it ends in and into ``hop``'s destination column."""
        (_, _, table, entry), relation = parent
        _, exit_, dst_table, dst_attr = hop
        exits = self._pair_index(table, entry, exit_).get
        enters = self._column_values(dst_table, dst_attr)
        self.stats.join_steps += 1
        out: Relation = {}
        grown = set()  # the values whose set was built here, not inherited
        for value, reach in relation.items():
            for left in exits(value, ()):
                if left in enters:
                    have = out.get(left)
                    if have is None:
                        out[left] = reach  # shared until a union is needed
                    elif left in grown:
                        have |= reach
                    else:
                        out[left] = have | reach
                        grown.add(left)
        return out

    def _close(
        self, parent: tuple[Hop, Relation], hop: Hop, log: str, anchor: str
    ) -> int:
        """Support of the parent chain closed by ``hop`` at the log's
        other endpoint: extend into that column, then count the log rows
        whose own ``(anchor, end)`` pair the relation contains."""
        by_end = self._log_pairs(log, hop[3], anchor)
        weights: list = []
        for end, reach in self._extend(parent, hop).items():
            rows = by_end.get(end)
            if rows is not None:
                weights.extend(map(rows.__getitem__, rows.keys() & reach))
        return self._count(log, weights)

    def _count(self, log: str, weights: Iterable) -> int:
        """Distinct lids over groups of log rows, from the groups' weights
        (see :meth:`_log_weights`)."""
        if self._lids_are_unique(log):
            return sum(weights)
        return len(set().union(*weights))

    # ------------------------------------------------------------------
    # indexes: read off the tables' column arrays, private to the evaluator
    # ------------------------------------------------------------------
    @_index
    def _column_values(self, table: str, attr: str) -> set:
        """The distinct non-NULL values of one column.  This is where NULL
        stops joining: relations are keyed by these values only, so a
        NULL kept in the indexes below is never probed and never entered."""
        values = set(self.db.table(table).column_array(attr))
        values.discard(None)
        return values

    @_index
    def _pair_index(self, table: str, entry: str, exit_: str) -> dict[Any, tuple]:
        """Per entry value of ``table``, the exit values of its distinct
        ``(entry, exit)`` pairs."""
        if entry == exit_:  # arriving and leaving by the same column
            return {v: (v,) for v in self._column_values(table, entry)}
        columns = self.db.table(table)
        grouped: dict[Any, list] = {}
        for entered, left in set(
            zip(columns.column_array(entry), columns.column_array(exit_))
        ):
            grouped.setdefault(entered, []).append(left)
        return {value: tuple(group) for value, group in grouped.items()}

    @_index
    def _lids_are_unique(self, log: str) -> bool:
        """Whether counting log rows counts distinct lids — asked of the
        reference itself: ``COUNT(DISTINCT lid)`` over the bare log equals
        its row count.  (``Table.insert`` does not enforce the declared
        primary key; a single NULL lid is one value, as in every
        ``count_distinct``.)"""
        lid = AttrRef("L", self.log_id_attr)
        query = ConjunctiveQuery.build([TupleVar("L", log)], [], [lid])
        return self.executor.count_distinct(query, lid) == len(self.db.table(log))

    @_index
    def _log_weights(self, log: str, *attrs: str) -> dict[tuple, Any]:
        """Log rows grouped by their ``attrs`` values, each group weighed
        for :meth:`_count`: its row count when no lid repeats, else its
        set of lid values."""
        table = self.db.table(log)
        groups = zip(*(table.column_array(a) for a in attrs))
        if self._lids_are_unique(log):
            return Counter(groups)
        weights: dict[tuple, set] = {}
        for group, lid in zip(groups, table.column_array(self.log_id_attr)):
            weights.setdefault(group, set()).add(lid)
        return weights

    @_index
    def _log_pairs(self, log: str, end_attr: str, anchor: str) -> dict[Any, dict]:
        """Per ``end_attr`` value, ``{anchor value: weight}`` of the log
        rows carrying the pair."""
        by_end: dict[Any, dict] = {}
        for (end, start), weight in self._log_weights(log, end_attr, anchor).items():
            by_end.setdefault(end, {})[start] = weight
        return by_end
