"""Mining frequent explanation templates (paper Section 3).

Three algorithms, all sharing the same candidate space and support
semantics, so they provably return the same template set (the paper
observes exactly this: "Each algorithm produced the same set of
explanation templates"):

* :class:`OneWayMiner` — Algorithm 1: grow start-anchored paths left to
  right, pruning by support monotonicity.
* :class:`TwoWayMiner` — grow start-anchored paths forward *and*
  end-anchored paths backward simultaneously; explanations are found from
  both directions (and deduplicated).
* :class:`BridgedMiner` — Section 3.3.1: run the two-way algorithm only up
  to length ``l``, then *bridge* the two frontiers: lengths
  ``l+1 .. 2l-1`` share a bridge edge; lengths ``>= 2l`` are joined
  through explicit middle-edge combinations.  Bridging pushes the
  start/end constraints down, so no partial-path support query is ever
  issued beyond length ``l``.

Every miner applies the Section 3.2.1 optimizations through
:class:`~repro.core.support.SupportEvaluator`: support caching by
canonical condition set, multiplicity reduction, and optimizer-estimate
skipping (never applied to explanation candidates).

**Mining by extension.**  A round's candidates are its frontier's paths
plus one edge each, and everything about them is derived the same way —
from the parent, never from a query rebuilt per candidate:

* a candidate is admitted on structure before it is built (the *T*
  budget is tested on the parent's tables plus the edge's, and on the
  two halves of a bridge before they are merged), then deduplicated by
  the signature its :class:`~repro.core.path.Path` computes once;
* the round's unskipped candidates — closed, start-anchored and
  end-anchored alike — are counted by one
  :meth:`SupportEvaluator.support_many` call, which walks them depth
  first in edge-sequence order so that a candidate's support is its
  parent chain's relation joined with one edge (see
  :mod:`repro.core.support`);
* the skip estimate reads table sizes and join attributes off the steps.

``support_stats["queries_run"]`` stays "one per uncached, unskipped
support evaluation" (the unit the mining benchmark divides by);
``join_steps`` counts the one-edge compositions behind them.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from ..db.database import Database
from .graph import SchemaGraph
from .path import Path
from .support import SupportConfig, SupportEvaluator
from .template import ExplanationTemplate


@dataclass(frozen=True)
class MiningConfig:
    """Knobs of Definition 5 plus the optimization toggles.

    ``support_fraction`` is the paper's *s* (default 1%); ``max_length``
    is *M*; ``max_tables`` is *T* (self-joined tables count once;
    the graph's ``uncounted_tables`` are free).
    """

    support_fraction: float = 0.01
    max_length: int = 5
    max_tables: int = 3
    support: SupportConfig = field(default_factory=SupportConfig)

    def __post_init__(self) -> None:
        if not 0 < self.support_fraction <= 1:
            raise ValueError("support_fraction must be in (0, 1]")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_tables < 1:
            raise ValueError("max_tables must be >= 1")


@dataclass(frozen=True)
class MinedTemplate:
    """A supported explanation template with its measured support."""

    template: ExplanationTemplate
    support: int

    @property
    def length(self) -> int:
        """Join-path length of the mined template."""
        return self.template.length


@dataclass
class RoundStats:
    """Per-length progress counters (feeds the Figure 13 benchmark)."""

    length: int
    candidates: int = 0
    supported_paths: int = 0
    explanations: int = 0
    seconds: float = 0.0


@dataclass
class MiningResult:
    """Everything a mining run produced."""

    algorithm: str
    templates: list[MinedTemplate]
    rounds: list[RoundStats]
    support_stats: dict
    threshold: float

    def templates_by_length(self) -> dict[int, list[MinedTemplate]]:
        """Mined templates grouped by join-path length."""
        out: dict[int, list[MinedTemplate]] = {}
        for mined in self.templates:
            out.setdefault(mined.length, []).append(mined)
        return out

    def cumulative_time_by_length(self) -> dict[int, float]:
        """Cumulative run time after finishing each path length — the
        series plotted in the paper's Figure 13."""
        out: dict[int, float] = {}
        total = 0.0
        for stats in sorted(self.rounds, key=lambda r: r.length):
            total += stats.seconds
            out[stats.length] = total
        return out

    def signatures(self) -> set:
        """Condition-set signatures of every mined template."""
        return {m.template.signature() for m in self.templates}


class _MinerBase:
    """Shared plumbing: threshold, dedup, candidate acceptance."""

    algorithm = "base"

    def __init__(
        self,
        db: Database,
        graph: SchemaGraph,
        config: MiningConfig | None = None,
        log_id_attr: str = "Lid",
        _share_state_with: "_MinerBase | None" = None,
    ) -> None:
        self.db = db
        self.graph = graph
        self.config = config or MiningConfig()
        self.log_id_attr = log_id_attr
        if _share_state_with is not None:
            # Used by BridgedMiner to run the two-way phase as a subroutine
            # over its own evaluator, dedup set, template list, and rounds.
            self.evaluator = _share_state_with.evaluator
            self.threshold = _share_state_with.threshold
            self._seen = _share_state_with._seen
            self._templates = _share_state_with._templates
            self._rounds = _share_state_with._rounds
        else:
            self.evaluator = SupportEvaluator(db, log_id_attr, self.config.support)
            log_size = len(db.table(graph.log_table))
            self.threshold = self.config.support_fraction * log_size
            self._seen = set()
            self._templates = []
            self._rounds = {}

    # ------------------------------------------------------------------
    def _round(self, length: int) -> RoundStats:
        if length not in self._rounds:
            self._rounds[length] = RoundStats(length=length)
        return self._rounds[length]

    def _within_budget(self, tables: Iterable[str]) -> bool:
        """Structural admission: do ``tables`` fit the *T* budget?"""
        return self.graph.counted_tables(tables) <= self.config.max_tables

    def _fresh(self, path: Path) -> bool:
        """Candidate-level dedup by canonical condition-set signature."""
        sig = path.signature()
        if sig in self._seen:
            return False
        self._seen.add(sig)
        return True

    def _seeds(self, forward: bool) -> list[Path]:
        """The admissible, fresh length-1 paths at one log endpoint."""
        if forward:
            seeds = [Path.forward_seed(self.graph, e) for e in self.graph.start_edges()]
        else:
            seeds = [Path.backward_seed(self.graph, e) for e in self.graph.end_edges()]
        return [
            seed
            for seed in seeds
            if seed is not None
            and self._within_budget(seed.var_tables)
            and self._fresh(seed)
        ]

    def _grow(self, frontier: list[Path], forward: bool) -> list[Path]:
        """Every admissible, fresh one-edge extension of ``frontier`` — at
        the paths' right end when ``forward``, else at their left — in
        frontier order.

        A path that has used up the *T* budget is only offered edges into
        tables that cost nothing more, so the over-budget extensions (most
        of them, in the later rounds) are never built."""
        grown: list[Path] = []
        for path in frontier:
            if forward:
                edges = self.graph.edges_from_table(path.last_table())
                extend = path.extend_forward
            else:
                edges = self.graph.edges_into_table(path.first_table())
                extend = path.extend_backward
            free = None  # tables the path may still enter; None = any
            if path.counted_tables(self.graph) >= self.config.max_tables:
                free = self.graph.uncounted_tables.union(path.var_tables)
            for edge in edges:
                entered = edge.dst.table if forward else edge.src.table
                if free is None or entered in free:
                    longer = extend(edge)
                    if longer is not None and self._fresh(longer):
                        grown.append(longer)
        return grown

    def _consider_many(self, paths: list[Path], stats: RoundStats) -> list[Path]:
        """Support-test one round's candidates set-at-a-time.

        Partial paths the optimizer expects to be comfortably supported
        are skipped (explanation candidates never are); everything else
        is counted by one :meth:`SupportEvaluator.support_many` call, so
        candidates sharing a prefix share its relation.  Returns the
        paths joining the next frontier in input order; mined
        explanations are recorded internally.  Results are identical to
        considering each path on its own.
        """
        stats.candidates += len(paths)
        skipped = [self.evaluator.skips(path, self.threshold) for path in paths]
        supports = iter(
            self.evaluator.support_many(
                [path for path, skip in zip(paths, skipped) if not skip]
            )
        )
        kept: list[Path] = []
        for path, skip in zip(paths, skipped):
            support = None if skip else next(supports)
            if path.is_explanation:  # never skipped; closed paths are not extended
                if support >= self.threshold:
                    stats.explanations += 1
                    template = ExplanationTemplate(path, log_id_attr=self.log_id_attr)
                    self._templates.append(MinedTemplate(template, support))
            elif support is None or support >= self.threshold:
                stats.supported_paths += 1
                kept.append(path)
        return kept

    def _result(self) -> MiningResult:
        templates = sorted(self._templates, key=lambda m: m.template.rank_prefix)
        return MiningResult(
            algorithm=self.algorithm,
            templates=templates,
            rounds=[self._rounds[k] for k in sorted(self._rounds)],
            support_stats=self.evaluator.stats.snapshot(),
            threshold=self.threshold,
        )


class OneWayMiner(_MinerBase):
    """Algorithm 1: bottom-up, left-to-right template mining."""

    algorithm = "one-way"

    def mine(self) -> MiningResult:
        """Run the algorithm; returns the full MiningResult.

        Each round grows the frontier by one edge (:meth:`_grow`) and
        support-tests the candidates as one :meth:`_consider_many` batch.
        """
        stats = self._round(1)
        started = time.perf_counter()
        frontier = self._consider_many(self._seeds(forward=True), stats)
        stats.seconds += time.perf_counter() - started

        for length in range(2, self.config.max_length + 1):
            stats = self._round(length)
            started = time.perf_counter()
            frontier = self._consider_many(self._grow(frontier, forward=True), stats)
            stats.seconds += time.perf_counter() - started
        return self._result()


class TwoWayMiner(_MinerBase):
    """Grow paths from both endpoints simultaneously (Section 3.3).

    Exposes the per-length frontiers so :class:`BridgedMiner` can reuse the
    phase as a subroutine.
    """

    algorithm = "two-way"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.forward_by_length: dict[int, list[Path]] = {}
        self.backward_by_length: dict[int, list[Path]] = {}

    def run_to_length(self, max_length: int) -> None:
        """Populate frontiers (and explanations) up to ``max_length``.

        Each direction's per-round candidates are support-tested as one
        :meth:`_consider_many` batch.
        """
        stats = self._round(1)
        started = time.perf_counter()
        fwd = self._consider_many(self._seeds(forward=True), stats)
        bwd = self._consider_many(self._seeds(forward=False), stats)
        self.forward_by_length[1] = fwd
        self.backward_by_length[1] = bwd
        stats.seconds += time.perf_counter() - started

        for length in range(2, max_length + 1):
            stats = self._round(length)
            started = time.perf_counter()
            fwd = self._consider_many(self._grow(fwd, forward=True), stats)
            bwd = self._consider_many(self._grow(bwd, forward=False), stats)
            self.forward_by_length[length] = fwd
            self.backward_by_length[length] = bwd
            stats.seconds += time.perf_counter() - started

    def mine(self) -> MiningResult:
        """Run the algorithm; returns the full MiningResult."""
        self.run_to_length(self.config.max_length)
        return self._result()


class BridgedMiner(_MinerBase):
    """Bridge-``l``: two-way to length ``l``, then bridge the frontiers
    (paper Section 3.3.1 and the Bridge-2/3/4 series of Figure 13)."""

    def __init__(
        self,
        db: Database,
        graph: SchemaGraph,
        config: MiningConfig | None = None,
        log_id_attr: str = "Lid",
        bridge_length: int = 2,
    ) -> None:
        if bridge_length < 1:
            raise ValueError("bridge_length must be >= 1")
        super().__init__(db, graph, config, log_id_attr)
        self.bridge_length = bridge_length
        self.algorithm = f"bridge-{bridge_length}"

    def mine(self) -> MiningResult:
        """Run the algorithm; returns the full MiningResult."""
        ell = min(self.bridge_length, self.config.max_length)
        # Phase 1: two-way exploration up to the bridge length, sharing
        # this miner's dedup set, evaluator, templates, and round stats.
        twoway = TwoWayMiner(
            self.db,
            self.graph,
            replace(self.config, max_length=ell),
            self.log_id_attr,
            _share_state_with=self,
        )
        twoway.run_to_length(ell)
        fwd_by_len = twoway.forward_by_length
        bwd_by_len = twoway.backward_by_length

        # Phase 2: lengths l+1 .. 2l-1 — connect a forward path of length l
        # to a backward path of length n-l+1 over a shared bridge edge.
        bwd_by_first_edge: dict = {}
        for blen, paths in bwd_by_len.items():
            for path in paths:
                bwd_by_first_edge.setdefault(
                    (blen, path.steps[0].edge), []
                ).append(path)
        for n in range(ell + 1, min(self.config.max_length, 2 * ell - 1) + 1):
            stats = self._round(n)
            started = time.perf_counter()
            blen = n - ell + 1
            candidates: list[Path] = []
            for fwd in fwd_by_len.get(ell, ()):
                key = (blen, fwd.steps[-1].edge)
                for bwd in bwd_by_first_edge.get(key, ()):
                    if self._within_budget(fwd.var_tables + bwd.var_tables):
                        candidate = Path.bridge(fwd, bwd)
                        if candidate is not None and self._fresh(candidate):
                            candidates.append(candidate)
            self._consider_many(candidates, stats)
            stats.seconds += time.perf_counter() - started

        # Phase 3: lengths >= 2l — all combinations of middle edges between
        # a length-l forward path and a length-l backward path.
        bwd_by_first_table: dict[str, list[Path]] = {}
        for path in bwd_by_len.get(ell, ()):
            bwd_by_first_table.setdefault(path.first_table(), []).append(path)
        for n in range(max(ell + 1, 2 * ell), self.config.max_length + 1):
            stats = self._round(n)
            started = time.perf_counter()
            middles = n - 2 * ell
            candidates = []
            for fwd in fwd_by_len.get(ell, ()):
                self._bridge_through_middles(
                    fwd, middles, bwd_by_first_table, candidates
                )
            self._consider_many(candidates, stats)
            stats.seconds += time.perf_counter() - started
        return self._result()

    def _bridge_through_middles(
        self,
        extended: Path,
        remaining: int,
        bwd_by_first_table: dict[str, list[Path]],
        candidates: list[Path],
    ) -> None:
        """DFS over middle-edge combinations, closing with backward paths.

        Admissible, fresh closures are gathered into ``candidates`` for
        one batched consideration per round.  The *T* budget is tested on
        the two halves' tables before they are merged: most pairings fail
        it, and a merge validates the whole path."""
        if remaining == 0:
            for bwd in bwd_by_first_table.get(extended.last_table(), ()):
                if self._within_budget(extended.var_tables + bwd.var_tables):
                    candidate = Path.bridge_with_middle(extended, (), bwd)
                    if candidate is not None and self._fresh(candidate):
                        candidates.append(candidate)
            return
        for edge in self.graph.edges_from_table(extended.last_table()):
            longer = extended.extend_forward(edge)
            if longer is None or not self._within_budget(longer.var_tables):
                continue
            self._bridge_through_middles(
                longer, remaining - 1, bwd_by_first_table, candidates
            )
