"""Paths through the explanation graph (paper Definitions 1-4).

A :class:`Path` is a chain of join edges over *tuple variables*.  Tuple
variable 0 is always the audited log row ``L``; a complete explanation
starts at ``L.<start>`` (the data accessed) and terminates back at
``L.<end>`` (the accessing user).  Intra-tuple-variable movement (arriving
at ``A.Patient`` and leaving from ``A.Doctor``) is implicit, exactly as in
the paper's graph model where attributes of one tuple variable are fully
connected.

Structural invariants (the paper's *restricted simple path* rules,
Section 3.2):

* the chain is connected: step *i+1* leaves the tuple variable step *i*
  arrived at;
* every tuple variable is entered at most once and exited at most once,
  so each contributes at most two nodes (entry and exit attribute);
* a table may host at most two tuple variables, and only when a permitted
  self-join edge connects them;
* otherwise each step joins a previously untraversed table, until the
  path closes back at the log's end attribute.

Paths are immutable; extension and bridging return new objects (or
``None`` when the result would violate an invariant), which lets the
miners keep frontiers of shared-structure paths cheaply.

A path is all the miners keep per candidate.  Its steps are what support
counting walks (:mod:`repro.core.support` composes one relation per
edge) and what the skip estimate reads; its dedup :meth:`Path.signature`
is derived from the steps once and remembered.  No
:class:`~repro.db.query.ConjunctiveQuery` is built or held while mining:
:meth:`Path.to_query` is for templates, SQL rendering and the generic
executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from itertools import permutations, product

from ..db.query import AttrRef, Condition, ConjunctiveQuery, TupleVar
from .edges import EdgeKind, SchemaEdge
from .graph import SchemaGraph


@dataclass(frozen=True)
class PathStep:
    """One traversed join edge, instantiated between two tuple variables."""

    edge: SchemaEdge
    src_var: int
    dst_var: int

    @property
    def src_attr(self) -> str:
        """Attribute the step leaves from."""
        return self.edge.src.attr

    @property
    def dst_attr(self) -> str:
        """Attribute the step arrives at."""
        return self.edge.dst.attr


@dataclass(frozen=True)
class Path:
    """An immutable chain of :class:`PathStep` over tuple variables.

    ``var_tables[i]`` is the table of tuple variable *i*; variable 0 is the
    log row being explained.  ``anchored_start`` means the chain begins at
    ``L.<start_attr>``; ``anchored_end`` means it terminates at
    ``L.<end_attr>``.  A path with both anchors is an explanation template
    skeleton (paper Definition 1).
    """

    log_table: str
    start_attr: str
    end_attr: str
    var_tables: tuple[str, ...]
    steps: tuple[PathStep, ...]
    anchored_start: bool
    anchored_end: bool
    #: :meth:`signature`, computed on first use (not part of identity).
    _signature: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def forward_seed(graph: SchemaGraph, edge: SchemaEdge) -> "Path | None":
        """A length-1 path from the start attribute along ``edge``
        (Algorithm 1, line 2)."""
        if edge.src != graph.start:
            return None
        log, start, end = graph.log_table, graph.start.attr, graph.end.attr
        if edge.dst == graph.end:
            # degenerate one-edge explanation Log.start = Log.end
            return Path(log, start, end, (log,), (PathStep(edge, 0, 0),), True, True)
        step = PathStep(edge, 0, 1)
        return Path(log, start, end, (log, edge.dst.table), (step,), True, False)

    @staticmethod
    def backward_seed(graph: SchemaGraph, edge: SchemaEdge) -> "Path | None":
        """A length-1 path terminating at the end attribute along ``edge``
        (two-way algorithm seeding)."""
        if edge.dst != graph.end:
            return None
        log, start, end = graph.log_table, graph.start.attr, graph.end.attr
        if edge.src == graph.start:
            return Path(log, start, end, (log,), (PathStep(edge, 0, 0),), True, True)
        step = PathStep(edge, 1, 0)
        return Path(log, start, end, (log, edge.src.table), (step,), False, True)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of join edges (the paper's path length; Figure 13's
        'length corresponds to the number of joins')."""
        return len(self.steps)

    @property
    def is_explanation(self) -> bool:
        """True when the path connects Log.start back to Log.end
        (Definition 1)."""
        return self.anchored_start and self.anchored_end

    def tables(self) -> set[str]:
        """Distinct tables hosting this path's tuple variables."""
        return set(self.var_tables)

    def counted_tables(self, graph: SchemaGraph) -> int:
        """Distinct tables charged against the *T* budget (self-joined
        tables count once; ``graph.uncounted_tables`` are free)."""
        return graph.counted_tables(self.var_tables)

    def last_var(self) -> int:
        """Index of the tuple variable the chain currently ends in."""
        return self.steps[-1].dst_var if self.steps else 0

    def first_var(self) -> int:
        """Index of the tuple variable the chain currently starts from."""
        return self.steps[0].src_var if self.steps else 0

    def last_table(self) -> str:
        """Table of the chain's current last tuple variable."""
        return self.var_tables[self.last_var()]

    def first_table(self) -> str:
        """Table of the chain's current first tuple variable."""
        return self.var_tables[self.first_var()]

    # ------------------------------------------------------------------
    # extension (one-way / two-way mining)
    # ------------------------------------------------------------------
    def _admit_new_var(self, edge: SchemaEdge, table: str) -> bool:
        """May ``table`` host a new tuple variable, arriving via ``edge``?

        A fresh table is always admissible; a revisited table is only
        admissible through a permitted self-join edge, and only once
        (at most two tuple variables per table).
        """
        occurrences = self.var_tables.count(table)
        if occurrences == 0:
            return True
        return edge.kind is EdgeKind.SELF_JOIN and occurrences < 2

    def _with(self, *chain) -> "Path":
        """A new chain — ``var_tables, steps, anchored_start, anchored_end``
        — between this path's log endpoints."""
        return Path(self.log_table, self.start_attr, self.end_attr, *chain)

    def extend_forward(self, edge: SchemaEdge) -> "Path | None":
        """Append ``edge`` at the right end (Algorithm 1, lines 7-9).

        Returns ``None`` unless the result is a restricted simple path;
        closing back at the log's end attribute produces an explanation.
        """
        if self.anchored_end or not self.steps:
            return None
        last = self.last_var()
        if edge.src.table != self.var_tables[last]:
            return None  # not connected
        if (
            last != 0
            and self.var_tables[last] == self.log_table
            and edge.kind is not EdgeKind.SELF_JOIN
        ):
            # A second log tuple variable may only connect through permitted
            # log self-joins; anything else pads a template with a redundant
            # log hop and breaks forward/backward symmetry.
            return None
        if edge.dst.table == self.log_table and edge.dst.attr == self.end_attr:
            if not self.anchored_start:
                return None  # would close a chain that never left the log row
            return self._with(
                self.var_tables, self.steps + (PathStep(edge, last, 0),), True, True
            )
        if not self._admit_new_var(edge, edge.dst.table):
            return None
        step = PathStep(edge, last, len(self.var_tables))
        return self._with(
            self.var_tables + (edge.dst.table,),
            self.steps + (step,),
            self.anchored_start,
            False,
        )

    def extend_backward(self, edge: SchemaEdge) -> "Path | None":
        """Prepend ``edge`` at the left end (two-way algorithm)."""
        if self.anchored_start or not self.steps:
            return None
        first = self.first_var()
        if edge.dst.table != self.var_tables[first]:
            return None
        if (
            first != 0
            and self.var_tables[first] == self.log_table
            and edge.kind is not EdgeKind.SELF_JOIN
        ):
            return None  # mirror of the forward second-log-var rule
        if edge.src.table == self.log_table and edge.src.attr == self.start_attr:
            if not self.anchored_end:
                return None
            return self._with(
                self.var_tables, (PathStep(edge, 0, first),) + self.steps, True, True
            )
        if not self._admit_new_var(edge, edge.src.table):
            return None
        step = PathStep(edge, len(self.var_tables), first)
        return self._with(
            self.var_tables + (edge.src.table,),
            (step,) + self.steps,
            False,
            self.anchored_end,
        )

    # ------------------------------------------------------------------
    # bridging (Section 3.3.1)
    # ------------------------------------------------------------------
    @staticmethod
    def bridge(forward: "Path", backward: "Path") -> "Path | None":
        """Join a start-anchored path to an end-anchored path whose first
        edge *is* the forward path's last edge (the shared *bridge edge*).

        The combined length is ``len(forward) + len(backward) - 1``.
        Returns ``None`` when the paths do not share a bridge edge or the
        merge violates a structural invariant.
        """
        if not (forward.anchored_start and not forward.anchored_end):
            return None
        if not (backward.anchored_end and not backward.anchored_start):
            return None
        if not forward.steps or not backward.steps:
            return None
        if forward.steps[-1].edge != backward.steps[0].edge:
            return None
        # Merge: the forward path's last var is identified with the
        # backward path's first *destination* var (the bridge edge's dst).
        shared_fwd_var = forward.steps[-1].dst_var
        shared_bwd_var = backward.steps[0].dst_var
        return Path._merge(
            forward, backward, backward.steps[1:], shared_bwd_var, shared_fwd_var
        )

    @staticmethod
    def bridge_with_middle(
        forward: "Path", middle: Sequence[SchemaEdge], backward: "Path"
    ) -> "Path | None":
        """Connect a start-anchored path to an end-anchored path through
        zero or more *middle* edges (paper Section 3.3.1, the ``n >= 2l``
        case where the algorithm 'must consider all combinations of edges
        from the schema to bridge these paths').

        With an empty ``middle`` the forward path's last tuple variable is
        identified with the backward path's first tuple variable (their
        tables must match); each middle edge introduces one intermediate
        variable.
        """
        if not (forward.anchored_start and not forward.anchored_end):
            return None
        if not (backward.anchored_end and not backward.anchored_start):
            return None
        current = forward
        for edge in middle:
            current = current.extend_forward(edge)
            if current is None:
                return None
        shared_bwd_var = backward.steps[0].src_var
        shared_fwd_var = current.last_var()
        if current.var_tables[shared_fwd_var] != backward.var_tables[shared_bwd_var]:
            return None
        return Path._merge(
            current, backward, backward.steps, shared_bwd_var, shared_fwd_var
        )

    @staticmethod
    def _merge(
        forward: "Path",
        backward: "Path",
        backward_steps: Sequence[PathStep],
        shared_bwd_var: int,
        shared_fwd_var: int,
    ) -> "Path | None":
        """Renumber ``backward_steps`` into ``forward``'s variable space and
        validate the concatenation (both halves are valid paths)."""
        var_map: dict[int, int] = {0: 0, shared_bwd_var: shared_fwd_var}
        var_tables = list(forward.var_tables)
        for step in backward_steps:
            for var in (step.src_var, step.dst_var):
                if var not in var_map:
                    var_map[var] = len(var_tables)
                    var_tables.append(backward.var_tables[var])
        # A table hosted by a variable of each half alone can never be
        # linked by a self-join step (every step lies within one half):
        # reject the common failure before building the path.
        own = {
            table
            for var, table in enumerate(forward.var_tables)
            if var != 0 and var != shared_fwd_var
        }
        if not own.isdisjoint(var_tables[len(forward.var_tables):]):
            return None
        merged_steps = forward.steps + tuple(
            PathStep(s.edge, var_map[s.src_var], var_map[s.dst_var])
            for s in backward_steps
        )
        candidate = forward._with(tuple(var_tables), merged_steps, True, True)
        return candidate if candidate.validate() == [] else None

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Check every restricted-simple-path invariant; returns a list of
        violation messages (empty when the path is valid).

        Incremental extension preserves the invariants by construction;
        this wholesale check guards the bridging combinators and acts as
        the property-test oracle.
        """
        problems: list[str] = []
        if not self.var_tables or self.var_tables[0] != self.log_table:
            problems.append("tuple variable 0 must be the log table")
        if not self.steps:
            problems.append("empty path")
            return problems
        for i in range(len(self.steps) - 1):
            if self.steps[i + 1].src_var != self.steps[i].dst_var:
                problems.append(f"chain broken between steps {i} and {i + 1}")
        for step in self.steps:
            for var, node in ((step.src_var, step.edge.src), (step.dst_var, step.edge.dst)):
                if var >= len(self.var_tables):
                    problems.append(f"step references unknown var {var}")
                elif self.var_tables[var] != node.table:
                    problems.append(
                        f"step table mismatch: var {var} is "
                        f"{self.var_tables[var]}, edge says {node.table}"
                    )
        # entry/exit uniqueness: every var entered <= once, exited <= once
        entries: dict[int, int] = {}
        exits: dict[int, int] = {}
        for step in self.steps:
            exits[step.src_var] = exits.get(step.src_var, 0) + 1
            entries[step.dst_var] = entries.get(step.dst_var, 0) + 1
        for var, n in entries.items():
            if n > 1:
                problems.append(f"var {var} entered {n} times")
        for var, n in exits.items():
            if n > 1:
                problems.append(f"var {var} exited {n} times")
        # anchors
        if self.anchored_start:
            first = self.steps[0]
            if first.src_var != 0 or first.src_attr != self.start_attr:
                problems.append("anchored_start but chain does not begin at L.start")
        if self.anchored_end:
            last = self.steps[-1]
            if last.dst_var != 0 or last.dst_attr != self.end_attr:
                problems.append("anchored_end but chain does not end at L.end")
        # second log variables may only touch self-join edges
        for step in self.steps:
            for var in (step.src_var, step.dst_var):
                if (
                    var != 0
                    and var < len(self.var_tables)
                    and self.var_tables[var] == self.log_table
                    and step.edge.kind is not EdgeKind.SELF_JOIN
                ):
                    problems.append(
                        f"non-self-join edge touches second log var {var}"
                    )
        # table multiplicity: <= 2 vars per table, linked by a self-join step
        by_table: dict[str, list[int]] = {}
        for idx, table in enumerate(self.var_tables):
            by_table.setdefault(table, []).append(idx)
        for table, vars_ in by_table.items():
            if len(vars_) > 2:
                problems.append(f"table {table} hosts {len(vars_)} tuple variables")
            elif len(vars_) == 2:
                pair = set(vars_)
                linked = any(
                    s.edge.kind is EdgeKind.SELF_JOIN
                    and {s.src_var, s.dst_var} == pair
                    for s in self.steps
                )
                if not linked:
                    problems.append(
                        f"table {table} revisited without a self-join edge"
                    )
        return problems

    # ------------------------------------------------------------------
    # query generation
    # ------------------------------------------------------------------
    def alias_of(self, var: int) -> str:
        """Display alias: variable 0 is ``L``; others are ``Table_k``."""
        if var == 0:
            return "L"
        return f"{self.var_tables[var]}_{var}"

    def to_query(
        self,
        log_id_attr: str = "Lid",
        projection: Sequence[AttrRef] | None = None,
        decorations: Iterable[Condition] = (),
    ) -> ConjunctiveQuery:
        """The path's stylized query (Definition 1).

        Default projection is ``L.<log_id_attr>`` — the support-counting
        shape.  ``decorations`` adds the extra selection conditions of a
        decorated template (Definition 3); their AttrRefs must use this
        path's aliases.
        """
        used_vars = sorted({0} | {s.src_var for s in self.steps} | {s.dst_var for s in self.steps})
        tuple_vars = [TupleVar(self.alias_of(v), self.var_tables[v]) for v in used_vars]
        conditions = [
            Condition(
                AttrRef(self.alias_of(s.src_var), s.src_attr),
                "=",
                AttrRef(self.alias_of(s.dst_var), s.dst_attr),
            )
            for s in self.steps
        ]
        conditions.extend(decorations)
        proj = list(projection) if projection else [AttrRef("L", log_id_attr)]
        return ConjunctiveQuery.build(tuple_vars, conditions, proj)

    def signature(self) -> tuple:
        """Alias-permutation-invariant identity of the path's condition
        set: the mining support-cache key and candidate dedup key.

        Equal to ``canonical_query_signature(self.to_query())`` but read
        straight off the steps, once per path: the smallest rendering of
        the join conditions over every renumbering of the variables that
        share a table.
        """
        if self._signature is None:
            hosted: dict[str, list[int]] = {}
            for var, table in enumerate(self.var_tables):
                hosted.setdefault(table, []).append(var)
            ends = [
                (s.src_var, s.edge.src.attr, s.dst_var, s.edge.dst.attr)
                for s in self.steps
            ]
            best: list | None = None
            for orders in product(*map(permutations, hosted.values())):
                alias = list(self.var_tables)
                for table, order in zip(hosted, orders):
                    for i, var in enumerate(order):
                        alias[var] = f"{table}#{i}"
                rendered = sorted(
                    (a, "=", b) if a <= b else (b, "=", a)
                    for src, src_attr, dst, dst_attr in ends
                    for a, b in [((alias[src], src_attr), (alias[dst], dst_attr))]
                )
                if best is None or rendered < best:
                    best = rendered
            tables = tuple(sorted((t, len(v)) for t, v in hosted.items()))
            object.__setattr__(self, "_signature", (tables, tuple(best or ())))
        return self._signature

    def __str__(self) -> str:
        if not self.steps:
            return "<empty path>"
        parts = [f"{self.alias_of(self.steps[0].src_var)}.{self.steps[0].src_attr}"]
        for step in self.steps:
            parts.append(f"{self.alias_of(step.dst_var)}.{step.dst_attr}")
        marker = "explanation" if self.is_explanation else "partial"
        return " -> ".join(parts) + f"  [{marker}, len={self.length}]"
