"""Conjunctive query representation.

Explanation templates (paper Definition 1) are *stylized queries*:

.. code-block:: sql

    SELECT Log.Lid, A_1, ..., A_m
    FROM Log, T_1, ..., T_n
    WHERE C_1 AND ... AND C_j

where every ``C_i`` compares two attributes (or an attribute and a
constant) with one of ``< <= = >= >``.  This module gives those queries a
first-class, hashable representation that the executor, the optimizer, the
SQL renderer, and the mining cache all share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any

from .errors import QueryError

#: Comparison operators permitted in explanation-template conditions.
OPERATORS = ("=", "<", "<=", ">", ">=", "!=")

#: Flips an operator when its operands are swapped.
FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True, order=True)
class TupleVar:
    """A table alias in a query's FROM clause (``Appointments A1``)."""

    alias: str
    table: str

    def __str__(self) -> str:
        return f"{self.table} {self.alias}"


@dataclass(frozen=True, order=True)
class AttrRef:
    """A reference ``alias.attr`` to one attribute of one tuple variable."""

    alias: str
    attr: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.attr}"


@dataclass(frozen=True, order=True)
class Literal:
    """A constant operand in a condition (used by decorated templates,
    e.g. restricting ``Groups.Group_Depth = 1``)."""

    value: Any = field(compare=False)
    _key: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_key", repr(self.value))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


Operand = AttrRef | Literal


@dataclass(frozen=True, order=True)
class Condition:
    """A single comparison ``left op right``.

    Equality conditions between attributes of *different* tuple variables
    are the join edges of the explanation graph; everything else acts as a
    filter (decoration).
    """

    left: AttrRef
    op: str
    right: Operand

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise QueryError(f"unsupported operator: {self.op!r}")

    @property
    def is_join(self) -> bool:
        """True when this is an equality between two attribute refs of
        different tuple variables (i.e. a join edge, not a decoration)."""
        return (
            self.op == "="
            and isinstance(self.right, AttrRef)
            and self.left.alias != self.right.alias
        )

    def aliases(self) -> set[str]:
        """Aliases of the tuple variables this condition touches."""
        out = {self.left.alias}
        if isinstance(self.right, AttrRef):
            out.add(self.right.alias)
        return out

    def flipped(self) -> "Condition":
        """The same condition with operands swapped (``a < b`` -> ``b > a``).

        Only meaningful when both operands are attribute refs.
        """
        if not isinstance(self.right, AttrRef):
            raise QueryError("cannot flip a condition with a literal operand")
        return Condition(self.right, FLIPPED[self.op], self.left)

    def canonical(self) -> "Condition":
        """Order-independent form: for symmetric ops the lexicographically
        smaller operand goes left, so ``A.x = B.y`` and ``B.y = A.x`` compare
        equal.  Used by the support cache (paper Section 3.2.1)."""
        if (
            isinstance(self.right, AttrRef)
            and self.op in ("=", "!=")
            and (self.right.alias, self.right.attr)
            < (self.left.alias, self.left.attr)
        ):
            return self.flipped()
        return self

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``SELECT [DISTINCT] projection FROM tuple_vars WHERE conditions``."""

    tuple_vars: tuple[TupleVar, ...]
    conditions: tuple[Condition, ...]
    projection: tuple[AttrRef, ...]
    distinct: bool = True

    def __post_init__(self) -> None:
        aliases = [v.alias for v in self.tuple_vars]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate aliases in query: {aliases}")
        known = set(aliases)
        for cond in self.conditions:
            for ref in cond_attr_refs(cond):
                if ref.alias not in known:
                    raise QueryError(f"condition references unknown alias: {ref}")
        for ref in self.projection:
            if ref.alias not in known:
                raise QueryError(f"projection references unknown alias: {ref}")

    @staticmethod
    def build(
        tuple_vars: Sequence[TupleVar],
        conditions: Iterable[Condition],
        projection: Sequence[AttrRef],
        distinct: bool = True,
    ) -> "ConjunctiveQuery":
        """Convenience constructor accepting any sequences/iterables."""
        return ConjunctiveQuery(
            tuple_vars=tuple(tuple_vars),
            conditions=tuple(conditions),
            projection=tuple(projection),
            distinct=distinct,
        )

    def var(self, alias: str) -> TupleVar:
        """Look up a tuple variable by alias."""
        for v in self.tuple_vars:
            if v.alias == alias:
                return v
        raise QueryError(f"unknown alias: {alias!r}")

    def pinned(self, pin: AttrRef, value: Any) -> "ConjunctiveQuery":
        """This query with ``pin = value`` appended as the *last*
        condition — the per-access point restriction (``L.Lid = ?``)
        that :meth:`~repro.db.backend.ExecutorProtocol.prepare_point`
        compiles once and binds per call."""
        return ConjunctiveQuery(
            self.tuple_vars,
            self.conditions + (Condition(pin, "=", Literal(value)),),
            self.projection,
            self.distinct,
        )

    def join_conditions(self) -> list[Condition]:
        """The equality conditions that act as join edges."""
        return [c for c in self.conditions if c.is_join]

    def filter_conditions(self) -> list[Condition]:
        """The non-join (decoration) conditions."""
        return [c for c in self.conditions if not c.is_join]

    def condition_signature(self) -> frozenset:
        """Hashable, order-independent signature of the WHERE clause plus
        the multiset of tables.  Two queries with equal signatures have
        equal support regardless of the order conditions were added —
        the foundation of the mining support cache."""
        tables = tuple(sorted(v.table for v in self.tuple_vars))
        conds = frozenset(
            (str(c.canonical().left), c.canonical().op, str(c.canonical().right))
            for c in self.conditions
        )
        return frozenset([("tables", tables), ("conds", conds)])

    def __str__(self) -> str:
        from .sql import render_query  # local import avoids a cycle

        return render_query(self)


def cond_attr_refs(cond: Condition) -> list[AttrRef]:
    """All attribute refs mentioned by a condition (1 or 2)."""
    refs = [cond.left]
    if isinstance(cond.right, AttrRef):
        refs.append(cond.right)
    return refs


def canonical_query_signature(query: ConjunctiveQuery) -> tuple:
    """Alias-permutation-invariant signature of a query's WHERE clause.

    Two candidate paths that traverse the explanation graph in different
    orders can carry the *same* selection-condition set but number their
    self-join aliases differently (``Groups_1``/``Groups_2`` swapped).  The
    paper's first optimization (Section 3.2.1) caches support by condition
    set, so the cache key must be invariant under renaming aliases of the
    same table.  Explanation queries are tiny (<= ~6 tuple variables, <= 2
    aliases per table), so we brute-force all per-table alias permutations
    and keep the lexicographically smallest rendering.
    """
    from itertools import permutations, product

    by_table: dict[str, list[str]] = {}
    for var in query.tuple_vars:
        by_table.setdefault(var.table, []).append(var.alias)

    tables = tuple(sorted((t, len(aliases)) for t, aliases in by_table.items()))

    def render_with(mapping: dict[str, str]) -> tuple:
        conds = []
        for cond in query.conditions:
            left = (mapping[cond.left.alias], cond.left.attr)
            if isinstance(cond.right, AttrRef):
                right = (mapping[cond.right.alias], cond.right.attr)
                op = cond.op
                if op in ("=", "!=") and right < left:
                    left, right = right, left
                elif op in ("<", "<=", ">", ">=") and right < left:
                    left, right, op = right, left, FLIPPED[op]
                conds.append((left, op, right))
            else:
                conds.append((left, cond.op, str(cond.right)))
        return tuple(sorted(conds))

    table_names = sorted(by_table)
    permutation_sets = []
    for t in table_names:
        aliases = by_table[t]
        canon = [f"{t}#{i}" for i in range(len(aliases))]
        permutation_sets.append([dict(zip(aliases, p)) for p in permutations(canon)])

    best: tuple | None = None
    for combo in product(*permutation_sets):
        mapping: dict[str, str] = {}
        for m in combo:
            mapping.update(m)
        rendered = render_with(mapping)
        if best is None or rendered < best:
            best = rendered
    return (tables, best)
