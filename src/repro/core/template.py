"""Explanation templates (paper Definitions 1-4).

An :class:`ExplanationTemplate` wraps a completed :class:`~repro.core.path.Path`
(a connection from ``Log.Patient`` through the database back to
``Log.User``) together with:

* optional *decorations* — extra selection conditions that specialize the
  simple template (Definition 3), e.g. the temporal condition
  ``L.Date > L2.Date`` of the repeat-access template;
* an optional human-readable *description string* with ``[alias.attr]``
  placeholders, used to convert instances to natural language
  (paper Example 2.2); and
* an optional stable name for reports.

Templates are immutable and hashable by their condition-set signature, so
sets of mined templates deduplicate exactly like the paper's support cache.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping
from typing import Any

from ..db.query import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    Literal,
    canonical_query_signature,
)
from ..db.sql import render_query, render_query_reduced
from .path import Path

#: Matches ``[L.Patient]``-style placeholders in description strings.
_PLACEHOLDER = re.compile(r"\[([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)\]")


@dataclass(frozen=True)
class ExplanationTemplate:
    """A (possibly decorated) explanation template."""

    path: Path
    decorations: tuple[Condition, ...] = ()
    description: str | None = None
    name: str | None = None
    log_id_attr: str = "Lid"
    #: ``(length, display_name())``: how instances of this template rank
    #: against other templates' (see ``rank_instances``).
    rank_prefix: tuple[int, str] = field(init=False, repr=False, compare=False)
    #: The description with every placeholder replaced by ``{}`` (other
    #: braces doubled), and the ``"alias.attr"`` key of each placeholder
    #: in order — what :meth:`render` fills.
    _render_format: str = field(init=False, repr=False, compare=False)
    _render_keys: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.path.is_explanation:
            raise ValueError(
                "an explanation template requires a path anchored at both "
                "Log.start and Log.end (Definition 1)"
            )
        # Derived once here so that no reader ever fills a shared cache.
        text = self.describe_template()
        escaped = text.replace("{", "{{").replace("}", "}}")
        object.__setattr__(self, "_render_format", _PLACEHOLDER.sub("{}", escaped))
        object.__setattr__(
            self,
            "_render_keys",
            tuple(f"{alias}.{attr}" for alias, attr in _PLACEHOLDER.findall(text)),
        )
        object.__setattr__(self, "rank_prefix", (self.length, self.display_name()))

    # ------------------------------------------------------------------
    # classification (Definitions 2-4)
    # ------------------------------------------------------------------
    @property
    def is_simple(self) -> bool:
        """Simple templates carry no decorations (Definition 2)."""
        return not self.decorations

    @property
    def is_decorated(self) -> bool:
        """True when extra selection conditions specialize the template."""
        return bool(self.decorations)

    @property
    def length(self) -> int:
        """Join-path length; decorations do not lengthen the path."""
        return self.path.length

    def tables_referenced(self) -> set[str]:
        """Distinct tables the template's path touches."""
        return self.path.tables()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def support_query(self) -> ConjunctiveQuery:
        """``SELECT DISTINCT L.Lid`` over the template's conditions."""
        return self.path.to_query(
            log_id_attr=self.log_id_attr, decorations=self.decorations
        )

    def instance_query(self, lid=None) -> ConjunctiveQuery:
        """A wide query whose rows are explanation *instances*.

        The projection covers ``L.Lid`` plus every placeholder mentioned in
        the description (so instances can be rendered to natural language).
        With ``lid`` set, the query is restricted to one log record.
        """
        proj: list[AttrRef] = [AttrRef("L", self.log_id_attr)]
        for ref in self.placeholders():
            if ref not in proj:
                proj.append(ref)
        decorations = list(self.decorations)
        if lid is not None:
            decorations.append(
                Condition(AttrRef("L", self.log_id_attr), "=", Literal(lid))
            )
        return self.path.to_query(
            log_id_attr=self.log_id_attr,
            projection=proj,
            decorations=decorations,
        )

    def to_sql(self, reduced: bool = False) -> str:
        """The template as SQL text (paper Section 2.1 presentation form);
        ``reduced=True`` renders the multiplicity-reduced rewrite."""
        query = self.support_query()
        renderer = render_query_reduced if reduced else render_query
        return renderer(query)

    # ------------------------------------------------------------------
    # description handling
    # ------------------------------------------------------------------
    def placeholders(self) -> list[AttrRef]:
        """AttrRefs referenced by the description string."""
        refs: list[AttrRef] = []
        for alias, attr in _PLACEHOLDER.findall(self.describe_template()):
            ref = AttrRef(alias, attr)
            if ref not in refs:
                refs.append(ref)
        return refs

    def render(self, bindings: Mapping[str, Any]) -> str:
        """The description with each placeholder filled from ``bindings``
        (``"alias.attr"`` -> value); a placeholder with no binding stays
        as written (paper Example 2.2)."""
        return self._render_format.format(
            *[
                str(bindings[key]) if key in bindings else f"[{key}]"
                for key in self._render_keys
            ]
        )

    def describe_template(self) -> str:
        """The description string, auto-generated when none was given.

        The generic fallback narrates the chain of join conditions; curated
        domain phrasing lives in :mod:`repro.audit.nl`.
        """
        if self.description is not None:
            return self.description
        hops = []
        for step in self.path.steps:
            src = f"[{self.path.alias_of(step.src_var)}.{step.src_attr}]"
            dst = f"[{self.path.alias_of(step.dst_var)}.{step.dst_attr}]"
            hops.append(f"{src} matches {dst} in {self.path.var_tables[step.dst_var]}")
        return (
            "[L.User] accessed [L.Patient]'s record; connection: "
            + "; ".join(hops)
            + "."
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """Alias-permutation-invariant identity (conditions incl.
        decorations); templates with equal signatures explain exactly the
        same accesses."""
        return canonical_query_signature(self.support_query())

    def display_name(self) -> str:
        """Stable human-readable identifier for reports."""
        if self.name:
            return self.name
        tables = "+".join(
            sorted(t for t in self.path.tables() if t != self.path.log_table)
        )
        kind = "decorated" if self.is_decorated else "simple"
        return f"len{self.length}:{tables or self.path.log_table}:{kind}"

    def __str__(self) -> str:
        return f"<ExplanationTemplate {self.display_name()}>"


def dedupe_templates(
    templates: Iterable[ExplanationTemplate],
) -> list[ExplanationTemplate]:
    """Drop templates whose condition-set signature repeats (same query =>
    same explanations), keeping first occurrences in order."""
    seen: set = set()
    out: list[ExplanationTemplate] = []
    for template in templates:
        sig = template.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(template)
    return out
