"""The pluggable checker registry.

A checker is a class with a ``code`` (``RLxxx``), a short ``name``, a
one-line ``description``, and a ``check(project)`` generator yielding
:class:`~repro.analysis.diagnostics.Diagnostic` objects.  Decorating it
with :func:`register` makes ``repro-lint`` pick it up — the runner,
``--list-rules``, and the stats summary all read this registry and
nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, ClassVar, Protocol

if TYPE_CHECKING:
    from .diagnostics import Diagnostic
    from .project import Project


class Checker(Protocol):
    """Structural interface every registered checker satisfies."""

    code: ClassVar[str]
    name: ClassVar[str]
    description: ClassVar[str]

    def check(self, project: Project) -> Iterator[Diagnostic]: ...


#: code -> checker class, populated by :func:`register` at import time.
CHECKERS: dict[str, type[Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    code = cls.code
    if code in CHECKERS:
        raise ValueError(f"duplicate checker code {code!r}")
    CHECKERS[code] = cls
    return cls


def resolve_checkers() -> tuple[Checker, ...]:
    """Instantiate every registered checker, in code order."""
    return tuple(CHECKERS[code]() for code in sorted(CHECKERS))
