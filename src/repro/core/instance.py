"""Explanation instances: data-specific results of a template's query.

Paper Section 2.1: "We refer to these data-specific descriptions (query
results) as explanation instances. ... when there are multiple explanation
instances for a given log record, we convert each to natural language and
rank the explanations in ascending order of path length."
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import Any

from .template import ExplanationTemplate


@dataclass(frozen=True)
class ExplanationInstance:
    """One concrete explanation of one log record.

    ``bindings`` maps ``"alias.attr"`` strings (e.g. ``"A.Date"``) to the
    values of the witnessing database tuples.
    """

    template: ExplanationTemplate
    lid: Any
    bindings: Mapping[str, Any]

    @property
    def path_length(self) -> int:
        """Join-path length of the originating template (the ranking key)."""
        return self.template.length

    def render(self) -> str:
        """Fill the template's description placeholders with this
        instance's values (paper Example 2.2: "Alice had an appointment
        with Dave on 1/1/2010")."""
        return self.template.render(self.bindings)

    def __str__(self) -> str:
        return f"[lid={self.lid}] {self.render()}"


def rank_instances(
    instances: Iterable[ExplanationInstance],
) -> list[ExplanationInstance]:
    """Rank ascending by path length (shorter = more direct explanation),
    breaking ties by template display name, then by the witnessing
    bindings — a *total* deterministic order, so the ranking never
    depends on the executor's row order (point and batch plans, memory
    and SQLite tables all agree)."""

    def key(inst: ExplanationInstance):
        return (
            inst.template.rank_prefix,
            str(inst.lid),
            sorted((k, str(v)) for k, v in inst.bindings.items()),
        )

    return sorted(instances, key=key)
