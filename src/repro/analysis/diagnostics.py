"""Diagnostics: what a checker reports and how it is rendered.

A :class:`Diagnostic` is one finding anchored to a source position; the
module also owns the three renderers (ruff-style text, machine-readable
JSON, and the GitHub workflow annotations the CLI mirrors to stderr
inside GitHub Actions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: ``path:line:col CODE message``.

    ``path`` is repo-root-relative with ``/`` separators so output is
    stable across platforms; ``line`` is 1-based and ``col`` 1-based
    (``ast`` columns are 0-based — checkers add 1 at construction).
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def render_github(self) -> str:
        """One ``::error`` workflow command — GitHub turns these into
        inline annotations on the PR diff."""
        # Workflow-command property values need their own escaping.
        message = (
            self.message.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.code}::{message}"
        )


def render_text(diagnostics: tuple[Diagnostic, ...]) -> str:
    return "\n".join(diag.render() for diag in diagnostics)


def render_json(
    diagnostics: tuple[Diagnostic, ...], stats: dict[str, object]
) -> str:
    payload = {
        "version": 2,
        "findings": [diag.to_dict() for diag in diagnostics],
        "stats": stats,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_github(diagnostics: tuple[Diagnostic, ...]) -> str:
    return "\n".join(diag.render_github() for diag in diagnostics)
