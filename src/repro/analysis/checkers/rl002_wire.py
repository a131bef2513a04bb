"""RL002 — the wire error contract behind ``/v1/``.

Any module defining an ``ERROR_TYPES`` registry: every concrete
``AuditApiError`` subclass must carry a ``code`` string and an
``http_status`` (own or inherited in-module), be registered, and — for
the real ``src/repro/api/errors.py`` — have its code documented in the
README error table.  The rule reads the registry assignment rather than
a hard-coded class list, so it keeps up as error types are added.

The message half of the contract needs no rule: ``@message`` in
``repro.api.messages`` registers every message class and derives its
codec, and ``tests/test_wire_declaration.py`` pins the rest.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..diagnostics import Diagnostic
from ..project import Project, SourceFile
from ..registry import register

ERRORS_REL = "src/repro/api/errors.py"
README_REL = "README.md"


def _registry_names(tree: ast.Module, registry: str) -> set[str] | None:
    """Class names referenced in the value assigned to ``registry``.

    Handles both literal dicts and the comprehension-over-tuple idiom
    used by ``ERROR_TYPES``; returns None when the module has no such
    assignment.
    """
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == registry:
                value = node.value
                assert value is not None
                return {
                    n.id for n in ast.walk(value) if isinstance(n, ast.Name)
                }
    return None


def _attr_value(cls: ast.ClassDef, attr: str) -> ast.expr | None:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == attr:
                    return stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == attr
        ):
            return stmt.value
    return None


@register
class WireContractChecker:
    code = "RL002"
    name = "wire-contract"
    description = (
        "wire error classes need a code, an HTTP status, an ERROR_TYPES "
        "entry and a README row"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for file in project.files:
            if file.tree is None:
                continue
            errors = _registry_names(file.tree, "ERROR_TYPES")
            if errors is not None:
                yield from self._check_errors(project, file, errors)

    def _check_errors(
        self, project: Project, file: SourceFile, registered: set[str]
    ) -> Iterator[Diagnostic]:
        assert file.tree is not None
        classes = {
            stmt.name: stmt
            for stmt in file.tree.body
            if isinstance(stmt, ast.ClassDef)
        }
        # in-module subclass closure rooted at AuditApiError
        error_classes: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name, cls in classes.items():
                if name in error_classes:
                    continue
                bases = {b.id for b in cls.bases if isinstance(b, ast.Name)}
                if "AuditApiError" in bases or bases & error_classes:
                    error_classes.add(name)
                    changed = True

        readme = (
            project.read_text(README_REL) if file.rel == ERRORS_REL else None
        )

        def resolved(name: str, attr: str) -> ast.expr | None:
            seen: set[str] = set()
            frontier = [name]
            while frontier:
                cur = frontier.pop(0)
                if cur in seen or cur not in classes:
                    continue
                seen.add(cur)
                value = _attr_value(classes[cur], attr)
                if value is not None:
                    return value
                frontier.extend(
                    b.id for b in classes[cur].bases if isinstance(b, ast.Name)
                )
            # the AuditApiError base itself carries the defaults
            base = classes.get("AuditApiError")
            return _attr_value(base, attr) if base is not None else None

        for name in sorted(error_classes):
            cls = classes[name]
            for attr in ("code", "http_status"):
                if resolved(name, attr) is None:
                    yield Diagnostic(
                        path=file.rel,
                        line=cls.lineno,
                        col=cls.col_offset + 1,
                        code=self.code,
                        message=(
                            f"error class {name!r} resolves no {attr!r} — every "
                            "wire error must map to an HTTP status"
                        ),
                    )
            if name not in registered and name != "AuditApiError":
                yield Diagnostic(
                    path=file.rel,
                    line=cls.lineno,
                    col=cls.col_offset + 1,
                    code=self.code,
                    message=(
                        f"error class {name!r} is not registered in ERROR_TYPES "
                        "— error_from_wire() would rebuild it as the base class"
                    ),
                )
            code_value = resolved(name, "code")
            if (
                readme is not None
                and isinstance(code_value, ast.Constant)
                and isinstance(code_value.value, str)
                and f"`{code_value.value}`" not in readme
            ):
                yield Diagnostic(
                    path=file.rel,
                    line=cls.lineno,
                    col=cls.col_offset + 1,
                    code=self.code,
                    message=(
                        f"error code {code_value.value!r} ({name}) is missing "
                        "from the README error table"
                    ),
                )
