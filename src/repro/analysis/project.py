"""The project model checkers run against.

A :class:`Project` owns the file set for one lint run: every Python
file is read and parsed exactly once (checkers share the cached
:class:`SourceFile` trees), and non-Python context files (README,
test modules referenced by cross-file rules) are readable through
:meth:`Project.read_text` whether or not they were selected.

Selection semantics mirror ruff: directories are walked with a default
exclude list (caches, VCS metadata, and ``tests/fixtures`` — the lint
suite's own deliberately-broken fixture modules), while explicitly
named files are always scanned, even inside an excluded tree.  Checkers
that scope themselves to a package (RL008 only patrols ``server/``)
treat explicitly named files as in scope, which is what lets the
fixture tests exercise every rule.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

#: Directory names never walked during discovery.
EXCLUDED_DIR_NAMES = frozenset(
    {
        ".git",
        "__pycache__",
        ".venv",
        "venv",
        "htmlcov",
        ".pytest_cache",
        "build",
    }
)

#: Root-relative prefixes never walked during discovery (explicit paths
#: still get in — the lint fixtures seed violations on purpose).
EXCLUDED_REL_PREFIXES = ("tests/fixtures",)


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python file."""

    rel: str
    text: str
    tree: ast.Module | None
    parse_error: str | None
    explicit: bool

    def under(self, *prefixes: str) -> bool:
        """True if the file lives under any of the given rel prefixes."""
        return any(
            self.rel == prefix or self.rel.startswith(prefix + "/")
            for prefix in prefixes
        )

    @property
    def name(self) -> str:
        return self.rel.rsplit("/", 1)[-1]

    def in_scope(self, *prefixes: str) -> bool:
        """Package-scoped rules check files under ``prefixes`` — and any
        explicitly selected file, wherever it lives."""
        return self.explicit or self.under(*prefixes)


class Project:
    """The file set for one run, rooted at the repository checkout;
    every selected file is read and parsed once, up front."""

    def __init__(
        self, root: str | os.PathLike[str], paths: tuple[str, ...] = ()
    ) -> None:
        self.root = Path(root).resolve()
        self._files = {
            rel: self._parse(rel, explicit)
            for rel, explicit in self._discover(paths).items()
        }

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def _discover(self, paths: tuple[str, ...]) -> dict[str, bool]:
        selected: dict[str, bool] = {}  # rel -> explicit
        targets = paths or ("src", "benchmarks")
        for raw in targets:
            path = (self.root / raw).resolve()
            if path.is_file():
                selected[self._rel(path)] = True
            elif path.is_dir():
                for found in self._walk(path):
                    selected.setdefault(self._rel(found), False)
            elif paths:
                # A typo'd explicit path must not read as a clean tree;
                # the default src/benchmarks targets may simply be absent.
                raise ValueError(f"path does not exist: {raw}")
        return dict(sorted(selected.items()))

    def _walk(self, top: Path) -> Iterator[Path]:
        for dirpath, dirnames, filenames in os.walk(top):
            rel_dir = self._rel(Path(dirpath))
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in EXCLUDED_DIR_NAMES
                and not any(
                    f"{rel_dir}/{d}".lstrip("./").startswith(prefix)
                    for prefix in EXCLUDED_REL_PREFIXES
                )
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield Path(dirpath) / filename

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def _parse(self, rel: str, explicit: bool) -> SourceFile:
        text = (self.root / rel).read_text(encoding="utf-8")
        tree: ast.Module | None = None
        parse_error: str | None = None
        try:
            tree = ast.parse(text, filename=rel)
        except SyntaxError as exc:
            parse_error = f"syntax error: {exc.msg} (line {exc.lineno})"
        return SourceFile(
            rel=rel,
            text=text,
            tree=tree,
            parse_error=parse_error,
            explicit=explicit,
        )

    # ------------------------------------------------------------------
    # checker-facing API
    # ------------------------------------------------------------------
    @property
    def files(self) -> tuple[SourceFile, ...]:
        return tuple(self._files.values())

    def file(self, rel: str) -> SourceFile | None:
        return self._files.get(rel)

    def __len__(self) -> int:
        return len(self._files)

    def read_text(self, rel: str) -> str | None:
        """Context files (README, round-trip tests) outside the selected
        set — returns None when absent so rules can degrade gracefully."""
        if rel in self._files:
            return self._files[rel].text
        path = self.root / rel
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")
