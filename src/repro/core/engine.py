"""The explanation engine: apply templates to a log and explain accesses.

This is the user-facing facade of the paper's system.  Given a database
(including its access log) and a set of explanation templates — either
hand-crafted (Section 5.3.1) or mined (Section 3) — the engine answers:

* *Why did access L100 happen?* — :meth:`ExplanationEngine.explain`
  returns ranked natural-language instances (paper Example 1.1).
* *Which accesses does template t explain?* —
  :meth:`ExplanationEngine.explained_lids`.
* *Which accesses can nobody explain?* —
  :meth:`ExplanationEngine.unexplained_lids`, the paper's misuse-detection
  application (Section 1: "reduce the set of accesses that must be
  examined to those that are unexplained").

Two evaluation paths
--------------------
* **point** — every per-access question is a template query with one
  log-ranging variable pinned to one log id.  The engine holds, per
  template, *prepared probes* (:meth:`~repro.db.backend.ExecutorProtocol.
  prepare_point`): one **instance probe** pinned on ``L.Lid`` whose rows
  are the explanation instances of that access, and one **support probe**
  per *other* log-ranging variable (the ``L2`` of the repeat-access
  self-join), whose rows are the older accesses the pinned row newly
  explains.  Validation, planning and compilation happen once per
  template set; a call binds the id and probes indexes.
  :meth:`ExplanationEngine.explain` runs the instance probes (T calls for
  T templates); :meth:`ExplanationEngine.notify_appended` runs instance
  and support probes for the appended row (T + extra-log-variables calls)
  and evaluates each **once**: a non-empty instance-probe result is both
  the row's membership in that template's delta and its explanation
  instances, which the returned :class:`AppendDelta` hands to the caller
  so an ingest verdict costs no second evaluation.
* **batch-semijoin** — :meth:`ExplanationEngine.explain_batch` evaluates
  each template ONCE as a semijoin against a whole set of pending
  accesses (``L.Lid IN batch``) and partitions explained/unexplained in
  one pass; :meth:`ExplanationEngine.explain_all` is the whole-log case
  and backs the cold path of :meth:`all_explained_lids`.  Right for bulk
  audits, mining support, and large streamed batches — O(templates)
  queries total, independent of batch size.  The executor answers each
  semijoin without fanning out.  A join whose columns the template then
  drops is a key-set test, or a per-key min/max comparison for
  repeat-access's ``L.Date > Log_1.Date``.  A chain template, whose ``L``
  attributes all sit in equality joins, runs over the log's distinct
  join keys (e.g. its ``(Patient, User)`` pairs, shared by every such
  template); the surviving keys map back to lids through one grouping.
  The batch is stripped of NULL once and the same set goes to every
  template.

Incremental maintenance contract
--------------------------------
The engine caches, per template, the set of log ids the template explains,
plus aggregate views (union of explained ids, the unexplained queue, the
log-id universe).  Two maintenance paths exist after the log grows:

* :meth:`ExplanationEngine.notify_appended` **delta-evaluates** each
  template against just the appended log row: for every tuple variable
  ranging over the log table the template's prepared probe for that
  variable is called with the new row's id (an explanation involving the
  new row must bind it to at least one of them), and the resulting
  newly-explained ids are unioned into the caches.  Conjunctive queries
  are monotone under inserts, so the patched caches equal a from-scratch
  evaluation — the invariant pinned by
  ``tests/test_property_incremental.py``.
* :meth:`ExplanationEngine.invalidate_cache` drops everything, forcing a
  full rebuild on next read.  It remains the correct call after
  *destructive* changes (row deletion, table replacement), which delta
  maintenance deliberately does not model.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import Any, NamedTuple

from ..db.backend import AnyDatabase, ExecutorProtocol, make_executor
from ..db.query import AttrRef
from .instance import ExplanationInstance, rank_instances
from .template import ExplanationTemplate, dedupe_templates

#: Batches at least this large take the semijoin path when
#: :meth:`ExplanationEngine.notify_appended_many` auto-selects a strategy.
SEMIJOIN_BATCH_MIN = 8


@dataclass(frozen=True)
class BatchExplanation:
    """The one-pass partition of a batch of accesses.

    ``explained | unexplained`` is exactly the input batch; the two sets
    are disjoint.
    """

    explained: frozenset
    unexplained: frozenset

    def __len__(self) -> int:
        return len(self.explained) + len(self.unexplained)

    @property
    def coverage(self) -> float:
        """Fraction of the batch explained by at least one template."""
        total = len(self)
        if total == 0:
            return 0.0
        return len(self.explained) / total

    def is_explained(self, lid: Any) -> bool:
        """Whether one batched access found an explanation."""
        return lid in self.explained


class AppendDelta(set):
    """What one maintenance pass learned.  The set itself is the newly
    explained log ids; ``instances`` maps every appended row the point
    strategy probed to its ranked explanation instances (an empty list
    means unexplained).  Rows evaluated set-at-a-time (the semijoin
    strategy) are absent from it — ask :meth:`ExplanationEngine.explain`.
    """

    __slots__ = ("instances",)

    def __init__(self) -> None:
        super().__init__()
        self.instances: dict[Any, list[ExplanationInstance]] = {}


#: ``probe(value) -> rows``, as returned by ``ExecutorProtocol.prepare_point``.
Probe = Callable[[Any], list[tuple]]


class _TemplateProbes(NamedTuple):
    """One template's prepared point probes (see the module docstring)."""

    template: ExplanationTemplate
    #: the template's signature — its key in the explained-id cache
    key: tuple
    #: ``"alias.attr"`` per instance-probe column, and the log id's column
    names: tuple[str, ...]
    lid_pos: int
    #: pinned on ``L.<lid>``: rows are explanation instances
    instance: Probe
    #: pinned on every other log-ranging variable: rows are ``(lid,)``
    support: tuple[Probe, ...]

    def instances_of(self, rows: list[tuple]) -> list[ExplanationInstance]:
        template, names, lid_pos = self.template, self.names, self.lid_pos
        return [
            ExplanationInstance(
                template=template, lid=row[lid_pos], bindings=dict(zip(names, row))
            )
            for row in rows
        ]


class ExplanationEngine:
    """Evaluates a set of explanation templates against an access log."""

    def __init__(
        self,
        db: AnyDatabase,
        templates: Iterable[ExplanationTemplate] = (),
        log_table: str = "Log",
        log_id_attr: str = "Lid",
        executor: ExecutorProtocol | None = None,
    ) -> None:
        self.db = db
        self.log_table = log_table
        self.log_id_attr = log_id_attr
        #: The executor carries the plan cache; pass one in to share or
        #: bound it — ``repro.api.AuditService`` builds it from an
        #: AuditConfig.  Defaults to the right executor kind for the
        #: database backend.
        self.executor = executor if executor is not None else make_executor(db)
        self._templates: list[ExplanationTemplate] = []
        self._lid_cache: dict[tuple, set] = {}
        # Memoized derived state (template signatures are expensive to
        # recompute per streamed access; the aggregates are patched in
        # place by notify_appended).
        self._signatures: dict[ExplanationTemplate, tuple] = {}
        self._deduped: tuple[ExplanationTemplate, ...] | None = None
        self._prepared: tuple[_TemplateProbes, ...] | None = None
        # (row_count, keys, (key, row) pairs) — owned by
        # repro.core.scan.LogScanner, declared here so the strict scan
        # module may assign it.
        self._scan_order_cache: (
            tuple[int, list[tuple], list[tuple[tuple, Any]]] | None
        ) = None
        self._all_lids: set | None = None
        self._all_explained: set | None = None
        self._unexplained: set | None = None
        for template in templates:
            self.add_template(template)

    # ------------------------------------------------------------------
    # template management
    # ------------------------------------------------------------------
    def add_template(self, template: ExplanationTemplate) -> None:
        """Register one more explanation template.

        Per-template caches stay valid; aggregate views (union, coverage,
        unexplained queue) are recomputed lazily since the newcomer may
        explain accesses no existing template did.
        """
        self._templates.append(template)
        self._deduped = None
        self._prepared = None
        self._all_explained = None
        self._unexplained = None

    @property
    def templates(self) -> tuple[ExplanationTemplate, ...]:
        """The registered templates, deduplicated by condition-set signature."""
        if self._deduped is None:
            self._deduped = tuple(dedupe_templates(self._templates))
        return self._deduped

    def _sig(self, template: ExplanationTemplate) -> tuple:
        """Memoized template signature (the per-template cache key)."""
        sig = self._signatures.get(template)
        if sig is None:
            sig = template.signature()
            self._signatures[template] = sig
        return sig

    def _probes(self) -> tuple[_TemplateProbes, ...]:
        """The prepared point probes of every registered (deduplicated)
        template, compiled on first use after the template set changes.

        Probes hold names, never tables or indexes, so they survive
        :meth:`invalidate_cache` and any amount of log growth; preparing
        them builds no index.  A service forces this from :meth:`warm`,
        under its write lock; the first reader to run a probe still builds
        the table structures it reads.
        """
        if self._prepared is None:
            self._prepared = tuple(self._prepare(t) for t in self.templates)
        return self._prepared

    def _prepare(self, template: ExplanationTemplate) -> _TemplateProbes:
        prepare = self.executor.prepare_point
        instance_query = template.instance_query()
        support_query = template.support_query()
        lid = AttrRef("L", self.log_id_attr)
        return _TemplateProbes(
            template=template,
            key=self._sig(template),
            names=tuple(str(c) for c in instance_query.projection),
            lid_pos=instance_query.projection.index(lid),
            instance=prepare(instance_query, lid),
            support=tuple(
                prepare(support_query, AttrRef(var.alias, self.log_id_attr))
                for var in support_query.tuple_vars
                if var.table == self.log_table and var.alias != lid.alias
            ),
        )

    def warm(self) -> None:
        """Build the prepared probes and the aggregate caches (explained
        set, unexplained queue).  Writers call this before releasing their
        lock.  It does not build every ``Table`` structure a reader reads:
        the first point probe that needs one (a projection index, a key
        structure) still builds it."""
        self._probes()
        self.unexplained_lids()

    # ------------------------------------------------------------------
    # whole-log queries
    # ------------------------------------------------------------------
    def explained_lids(self, template: ExplanationTemplate) -> set:
        """Distinct log ids the template explains (cached per template;
        treat as read-only)."""
        key = self._sig(template)
        if key not in self._lid_cache:
            self._lid_cache[key] = self.executor.distinct_values(
                template.support_query(), AttrRef("L", self.log_id_attr)
            )
        return self._lid_cache[key]

    def all_explained_lids(self) -> set:
        """Union of explained ids over every registered template (cached,
        patched in place by :meth:`notify_appended`; treat as read-only).

        The cold path is the set-at-a-time :meth:`explain_all`.
        """
        if self._all_explained is None:
            self.explain_all()
        return self._all_explained

    def all_lids(self) -> set:
        """Every log id in the audited log table (cached; treat as
        read-only)."""
        if self._all_lids is None:
            self._all_lids = self.db.table(self.log_table).distinct_values(
                self.log_id_attr
            )
        return self._all_lids

    def unexplained_lids(self) -> set:
        """Accesses no template explains — the candidate-misuse queue
        (cached, patched in place by :meth:`notify_appended`; treat as
        read-only)."""
        if self._unexplained is None:
            self._unexplained = self.all_lids() - self.all_explained_lids()
        return self._unexplained

    def coverage(self) -> float:
        """Fraction of the log explained by at least one template (the
        paper's headline "over 94% of accesses" number)."""
        total = len(self.all_lids())
        if total == 0:
            return 0.0
        return (total - len(self.unexplained_lids())) / total

    def coverage_counts(self) -> tuple[int, int]:
        """``(total, unexplained)`` log-id counts — the additive form of
        :meth:`coverage`, so a scatter-gather layer can sum counts across
        shards and divide once (shard logs are disjoint)."""
        return len(self.all_lids()), len(self.unexplained_lids())

    def support_counts(
        self, templates: Sequence[ExplanationTemplate]
    ) -> list[int]:
        """Distinct explained-lid counts, one per given template (the
        mining *support* quantity, paper Section 3.1).

        The templates need not be registered; per-template caches are
        shared with :meth:`explained_lids`.  Counts are additive across
        patient-hash shards, so sharded mining support is the per-shard
        sum."""
        return [len(self.explained_lids(t)) for t in templates]

    # ------------------------------------------------------------------
    # per-access explanation
    # ------------------------------------------------------------------
    def explain(self, lid: Any) -> list[ExplanationInstance]:
        """Every explanation instance for one log record, ranked in
        ascending order of path length (paper Section 2.1) — one
        instance-probe call per template."""
        instances: list[ExplanationInstance] = []
        for probes in self._probes():
            instances.extend(probes.instances_of(probes.instance(lid)))
        return rank_instances(instances)

    def explain_or_flag(self, lid: Any) -> tuple[list[ExplanationInstance], bool]:
        """Instances plus a *suspicious* flag (True when unexplained)."""
        instances = self.explain(lid)
        return instances, not instances

    # ------------------------------------------------------------------
    # set-at-a-time (batch semijoin) evaluation
    # ------------------------------------------------------------------
    def explain_batch(self, accesses: Iterable[Any]) -> BatchExplanation:
        """Partition a set of accesses into explained/unexplained in one
        pass, evaluating each template ONCE as a batch semijoin.

        Instead of one point query per (access, template), the executor
        restricts the template's log variable to the whole batch
        (``L.Lid IN accesses``) and returns the explained subset in a
        single pipeline run — O(templates) queries total, independent of
        batch size.  A template whose explained-set cache is warm costs a
        set intersection, no query at all, and templates stop being
        consulted once every batched access is explained.

        Results are identical to the per-access point path (same
        explained sets, same NULL semantics — NULL ids never match and
        land in ``unexplained``); ids absent from the log are simply
        unexplained.  Caches are read, and warmed only when the batch
        covers the whole log (then a template's semijoin result *is* its
        full explained set).
        """
        batch = set(accesses)
        if not batch:
            return BatchExplanation(frozenset(), frozenset())
        target = AttrRef("L", self.log_id_attr)
        covers_all = batch >= self.all_lids()
        # NULL never matches: strip it once, not once per template
        values = batch - {None} if None in batch else batch
        explained: set = set()
        for template in self.templates:
            key = self._sig(template)
            cached = self._lid_cache.get(key)
            if cached is not None:
                hits = batch & cached
            else:
                hits = self.executor.distinct_values_in(
                    template.support_query(), target, target, values
                )
                if covers_all:
                    self._lid_cache[key] = set(hits)
            explained |= hits
            if len(explained) == len(batch):
                break
        return BatchExplanation(
            frozenset(explained), frozenset(batch - explained)
        )

    def explain_all(self) -> BatchExplanation:
        """The whole-log partition, one batch semijoin per template.

        This is the set-at-a-time implementation behind
        :meth:`all_explained_lids`, :meth:`unexplained_lids`, and
        :meth:`coverage` — the aggregate caches are (re)materialized from
        the returned partition.
        """
        result = self.explain_batch(self.all_lids())
        self._all_explained = set(result.explained)
        self._unexplained = set(result.unexplained)
        return result

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def notify_appended(self, lid: Any) -> AppendDelta:
        """Delta-maintain every cache after appending one log row.

        Re-evaluates each template against just the new row and patches the
        cached explained-id sets, the unexplained queue, and the log-id
        universe in place.  Returns the set of log ids newly explained by
        this append — note that via log self-joins (e.g. the repeat-access
        template) a new row can retroactively explain *older* accesses, all
        of which appear in the returned set.

        Caveat: a template whose cache is cold is warmed over the *full*
        log (one-time cost), and since its pre-append explained set is
        unknowable at that point, its entire explained set is folded into
        the returned value.  Callers needing a strict per-append delta
        should warm the caches first (e.g. via :meth:`all_explained_lids`).
        """
        return self.notify_appended_many([lid])

    def notify_appended_many(
        self, lids: Sequence[Any], use_semijoin: bool | None = None
    ) -> AppendDelta:
        """Delta-maintain every cache after a batch of log appends.

        One maintenance pass for the whole batch, with two strategies:

        * **point** (``use_semijoin=False``): per (template, appended row)
          the instance probe and every support probe are called once —
          O(templates × len(lids)) probe calls total.  The instance-probe
          rows double as the row's explanation instances, returned in
          :attr:`AppendDelta.instances`;
        * **semijoin** (``use_semijoin=True``): per (template, log-ranging
          tuple variable) ONE batch semijoin restricts that variable to
          the whole appended set — O(templates) queries, independent of
          batch size.

        ``use_semijoin=None`` (the default) picks semijoin for batches of
        at least ``SEMIJOIN_BATCH_MIN`` ids.  Both strategies compute the
        same delta (the semijoin is exactly the union of the point
        probes; pinned by the property suite), including self-join
        templates retroactively explaining *older* accesses.  The
        appended rows must already be in the log table.  Returns the
        union of newly explained log ids (cold-cache caveat of
        :meth:`notify_appended` applies: templates warmed by this call
        contribute their full explained set).
        """
        lids = list(lids)
        if use_semijoin is None:
            use_semijoin = len(lids) >= SEMIJOIN_BATCH_MIN
        if self._all_lids is not None:
            self._all_lids.update(lids)
        batch = set(lids)
        target = AttrRef("L", self.log_id_attr)
        newly = AppendDelta()
        found = newly.instances
        if not use_semijoin:
            found.update((lid, []) for lid in lids)  # each distinct row once
        for probes in self._probes():
            cached = self._lid_cache.get(probes.key)
            # Never evaluated: warm over the full log (which already
            # contains the new rows); one-time cost, delta thereafter.
            cold = cached is None
            delta: set = set(self.explained_lids(probes.template)) if cold else set()
            if not use_semijoin:
                for lid in found:
                    rows = probes.instance(lid)
                    if rows:
                        delta.add(lid)
                        found[lid].extend(probes.instances_of(rows))
                    if not cold:
                        for probe in probes.support:
                            delta.update(row[0] for row in probe(lid))
            elif not cold:
                query = probes.template.support_query()
                for var in query.tuple_vars:
                    if var.table == self.log_table:
                        delta |= self.executor.distinct_values_in(
                            query,
                            target,
                            AttrRef(var.alias, self.log_id_attr),
                            batch,
                        )
            if not cold:
                delta -= cached
                cached |= delta
            newly |= delta
        for lid, instances in found.items():
            found[lid] = rank_instances(instances)
        if self._all_explained is not None:
            self._all_explained |= newly
        if self._unexplained is not None:
            self._unexplained -= newly
            self._unexplained.update(
                lid for lid in lids if lid not in self.all_explained_lids()
            )
        return newly

    def invalidate_cache(self) -> None:
        """Drop every cached set, forcing a full rebuild on next read.

        Appends should use :meth:`notify_appended` instead; this remains
        for destructive log mutations (deletes, truncation, reloads)."""
        self._lid_cache.clear()
        self._all_lids = None
        self._all_explained = None
        self._unexplained = None
