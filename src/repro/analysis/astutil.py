"""Small shared ``ast`` helpers the checkers lean on."""

from __future__ import annotations

import ast
from collections.abc import Iterator


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def rooted_attribute(node: ast.expr) -> tuple[str, str] | None:
    """``('svc', 'svc._cache')`` for an attribute/subscript chain rooted
    at any plain name, so the flow rules track state owned by
    *parameters* as well as ``self``.  Subscripts are transparent
    (``self._cache[k]`` resolves to ``self._cache``).  Requires at least
    one attribute hop (a bare local name is not shared state)."""
    parts: list[str] = []
    cur: ast.expr = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        else:
            break
    if isinstance(cur, ast.Name) and parts:
        return cur.id, cur.id + "." + ".".join(reversed(parts))
    return None


def walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested ``def``s,
    ``async def``s, lambdas, or class bodies — their statements run in a
    different execution context than the enclosing function."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))
