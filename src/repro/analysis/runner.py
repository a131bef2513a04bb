"""One-pass lint driver: parse the tree once, run every checker."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import checkers as _checkers  # noqa: F401  (registers the built-ins)
from .diagnostics import Diagnostic
from .project import Project
from .registry import resolve_checkers


@dataclass(frozen=True)
class LintResult:
    """Everything one run produced, pre-sorted."""

    diagnostics: tuple[Diagnostic, ...]
    files_scanned: int
    rules: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0

    def stats(self) -> dict[str, object]:
        by_code: dict[str, int] = {}
        for diag in self.diagnostics:
            by_code[diag.code] = by_code.get(diag.code, 0) + 1
        return {
            "files_scanned": self.files_scanned,
            "rules": list(self.rules),
            "findings": len(self.diagnostics),
            "findings_by_code": by_code,
        }


def run_lint(root: str | Path, paths: tuple[str, ...] = ()) -> LintResult:
    """Lint ``paths`` (default ``src``+``benchmarks``) under ``root``."""
    project = Project(root, paths)
    active = resolve_checkers()
    found: list[Diagnostic] = [
        Diagnostic(
            path=file.rel, line=1, col=1, code="RL000", message=file.parse_error
        )
        for file in project.files
        if file.parse_error is not None
    ]
    for checker in active:
        found.extend(checker.check(project))
    return LintResult(
        diagnostics=tuple(sorted(found)),
        files_scanned=len(project),
        rules=tuple(type(c).code for c in active),
    )
