"""A conservative whole-project call graph.

Indexes every module-level function and class method in the project,
then resolves call sites to project functions where the target is
*provable* from the AST alone:

* ``f(...)`` — a function defined in (or ``from``-imported into) the
  calling module;
* ``mod.f(...)`` / ``pkg.mod.Class.m(...)`` — through ``import`` aliases
  that name project modules;
* ``self.m(...)`` — a method of the enclosing class or any base class
  reachable by name anywhere in the project (cross-module subclassing);
* ``self.attr.m(...)`` / ``var.m(...)`` — when the attribute or local is
  assigned a project-class construction in ``__init__`` / the same
  function body;
* ``Class(...).m(...)`` — constructor-typed receiver chains.

Anything else (duck-typed parameters, values out of containers,
callables passed as arguments) stays **unresolved** — the dotted name is
preserved so primitive-matching rules (blocking calls, fork sites) can
still recognize it, but no edge is created.  Under-approximating edges
is the right bias for the lint rules built on top: a missing edge can
hide a finding, a wrong edge fabricates one.
"""

from __future__ import annotations

import ast
import weakref
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

from .astutil import dotted_name, walk_shallow
from .project import Project

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True, eq=False)
class FunctionInfo:
    """One indexed function: where it lives and its AST."""

    qname: str  #: ``rel:Class.method`` or ``rel:function``
    rel: str
    node: FuncDef
    class_name: Optional[str]

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qname}>"


@dataclass(frozen=True, eq=False)
class CallSite:
    """One call inside a function: the node, the resolved target (or
    None), the dotted callee spelling (or None), and whether the
    receiver is literally ``self`` (same-object method call)."""

    call: ast.Call
    target: Optional[FunctionInfo]
    dotted: Optional[str]
    same_object: bool


def _module_dotted(rel: str) -> str:
    """``src/repro/db/dialect.py`` -> ``repro.db.dialect``."""
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class _ModuleIndex:
    """Per-module symbol tables: defs, classes, and import bindings."""

    def __init__(self, rel: str, tree: ast.Module) -> None:
        self.rel = rel
        self.dotted = _module_dotted(rel)
        self.functions: dict[str, FuncDef] = {}
        self.classes: dict[str, ast.ClassDef] = {}
        #: local alias -> project-module dotted path (``import`` forms).
        self.module_aliases: dict[str, str] = {}
        #: local name -> (source module dotted, symbol name) (``from``).
        self.symbols: dict[str, tuple[str, str]] = {}
        self._scan(tree)

    def _scan(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = stmt
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self.module_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(stmt, ast.ImportFrom):
                source = self._resolve_from(stmt)
                if source is None:
                    continue
                for alias in stmt.names:
                    self.symbols[alias.asname or alias.name] = (
                        source,
                        alias.name,
                    )

    def _resolve_from(self, stmt: ast.ImportFrom) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module
        package = self.dotted.split(".")
        if not self.rel.endswith("/__init__.py"):
            package = package[:-1]
        drop = stmt.level - 1
        if drop > len(package):
            return None
        if drop:
            package = package[:-drop]
        if stmt.module:
            package = package + stmt.module.split(".")
        return ".".join(package)


class CallGraph:
    """Project-wide function index plus call-site resolution."""

    def __init__(self, project: Project) -> None:
        self._modules: dict[str, _ModuleIndex] = {}
        self._by_dotted: dict[str, _ModuleIndex] = {}
        #: class name -> defining modules (rel), first-indexed order.
        self._class_sites: dict[str, list[str]] = {}
        self._functions: dict[str, FunctionInfo] = {}
        #: per-function local constructor types, lazily computed.
        self._local_types: dict[int, dict[str, str]] = {}
        #: per-class ``self.attr`` constructor types, lazily computed.
        self._attr_types: dict[tuple[str, str], dict[str, str]] = {}

        for file in project.files:
            if file.tree is None:
                continue
            index = _ModuleIndex(file.rel, file.tree)
            self._modules[file.rel] = index
            self._by_dotted[index.dotted] = index
            for name in index.classes:
                self._class_sites.setdefault(name, []).append(file.rel)
            for name, fn in index.functions.items():
                self._add(file.rel, None, name, fn)
            for cls_name, cls in index.classes.items():
                for stmt in cls.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add(file.rel, cls_name, stmt.name, stmt)

    def _add(
        self, rel: str, class_name: Optional[str], name: str, node: FuncDef
    ) -> None:
        qual = f"{class_name}.{name}" if class_name else name
        info = FunctionInfo(
            qname=f"{rel}:{qual}", rel=rel, node=node, class_name=class_name
        )
        self._functions[info.qname] = info

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def functions(self) -> tuple[FunctionInfo, ...]:
        return tuple(self._functions.values())

    def function(
        self, rel: str, name: str, class_name: Optional[str] = None
    ) -> Optional[FunctionInfo]:
        qual = f"{class_name}.{name}" if class_name else name
        return self._functions.get(f"{rel}:{qual}")

    def class_def(
        self, name: str, prefer_rel: Optional[str] = None
    ) -> Optional[tuple[str, ast.ClassDef]]:
        sites = self._class_sites.get(name)
        if not sites:
            return None
        rel = prefer_rel if prefer_rel in sites else sites[0]
        return rel, self._modules[rel].classes[name]

    def method_on(
        self, class_name: str, method: str, prefer_rel: Optional[str] = None
    ) -> Optional[FunctionInfo]:
        """Resolve ``method`` on ``class_name`` through its base chain
        (bases matched by name project-wide)."""
        seen: set[str] = set()
        frontier = [(class_name, prefer_rel)]
        while frontier:
            name, hint = frontier.pop(0)
            if name in seen:
                continue
            seen.add(name)
            found = self.class_def(name, hint)
            if found is None:
                continue
            rel, cls = found
            info = self.function(rel, method, class_name=name)
            if info is not None:
                return info
            for base in cls.bases:
                if isinstance(base, ast.Name):
                    frontier.append((base.id, rel))
                else:
                    base_dotted = dotted_name(base)
                    if base_dotted is not None:
                        frontier.append((base_dotted.rsplit(".", 1)[-1], rel))
        return None

    # ------------------------------------------------------------------
    # type inference (constructor-provable only)
    # ------------------------------------------------------------------
    def constructor_class(
        self, call: ast.Call, rel: str
    ) -> Optional[tuple[str, str]]:
        """``(defining rel, class name)`` when ``call`` provably builds a
        project class, else None."""
        index = self._modules.get(rel)
        if index is None:
            return None
        if isinstance(call.func, ast.Name):
            name = call.func.id
            if name in index.classes:
                return rel, name
            symbol = index.symbols.get(name)
            if symbol is not None:
                source = self._by_dotted.get(symbol[0])
                if source is not None and symbol[1] in source.classes:
                    return source.rel, symbol[1]
            return None
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        module, leaf = self._split_module(dotted, index)
        if module is not None and leaf in module.classes:
            return module.rel, leaf
        return None

    def local_types(self, ctx: FunctionInfo) -> dict[str, str]:
        """Local name -> class name, for provable constructions."""
        cached = self._local_types.get(id(ctx.node))
        if cached is not None:
            return cached
        out: dict[str, str] = {}
        for stmt in ast.walk(ctx.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            if not isinstance(stmt.value, ast.Call):
                continue
            built = self.constructor_class(stmt.value, ctx.rel)
            if built is None:
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = built[1]
        self._local_types[id(ctx.node)] = out
        return out

    def attr_types(self, rel: str, class_name: str) -> dict[str, str]:
        """``self.attr`` -> class name, from ``__init__`` constructions."""
        cached = self._attr_types.get((rel, class_name))
        if cached is not None:
            return cached
        out: dict[str, str] = {}
        init = self.function(rel, "__init__", class_name=class_name)
        if init is not None:
            for stmt in ast.walk(init.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                built = self.constructor_class(stmt.value, rel)
                if built is None:
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        out[target.attr] = built[1]
        self._attr_types[(rel, class_name)] = out
        return out

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def _split_module(
        self, dotted: str, index: _ModuleIndex
    ) -> tuple[Optional[_ModuleIndex], str]:
        """Longest import-alias prefix of ``dotted`` naming a project
        module; returns (module index, remaining leaf path)."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            alias = ".".join(parts[:cut])
            target = index.module_aliases.get(alias)
            if target is None and alias in index.symbols:
                source, symbol = index.symbols[alias]
                candidate = f"{source}.{symbol}"
                if candidate in self._by_dotted:
                    target = candidate
            if target is None:
                continue
            module = self._by_dotted.get(target)
            if module is not None:
                return module, ".".join(parts[cut:])
        return None, dotted

    def resolve_call(
        self, call: ast.Call, ctx: FunctionInfo
    ) -> Optional[FunctionInfo]:
        func = call.func
        index = self._modules.get(ctx.rel)
        if index is None:
            return None

        if isinstance(func, ast.Name):
            name = func.id
            if name in index.functions:
                return self.function(ctx.rel, name)
            symbol = index.symbols.get(name)
            if symbol is not None:
                source = self._by_dotted.get(symbol[0])
                if source is not None:
                    if symbol[1] in source.functions:
                        return self.function(source.rel, symbol[1])
                    if symbol[1] in source.classes:
                        return self.method_on(
                            symbol[1], "__init__", prefer_rel=source.rel
                        )
            if name in index.classes:
                return self.method_on(name, "__init__", prefer_rel=ctx.rel)
            return None

        if not isinstance(func, ast.Attribute):
            return None
        dotted = dotted_name(func)
        if dotted is None:
            # Constructor-chained receiver: ``Class(...).m(...)``.
            if isinstance(func.value, ast.Call):
                built = self.constructor_class(func.value, ctx.rel)
                if built is not None:
                    return self.method_on(
                        built[1], func.attr, prefer_rel=built[0]
                    )
            return None
        parts = dotted.split(".")

        if parts[0] == "self" and ctx.class_name is not None:
            if len(parts) == 2:
                return self.method_on(
                    ctx.class_name, parts[1], prefer_rel=ctx.rel
                )
            if len(parts) == 3:
                attr_class = self.attr_types(ctx.rel, ctx.class_name).get(
                    parts[1]
                )
                if attr_class is not None:
                    return self.method_on(attr_class, parts[2])
            return None

        if len(parts) == 2:
            local_class = self.local_types(ctx).get(parts[0])
            if local_class is not None:
                return self.method_on(local_class, parts[1])
            if parts[0] in index.classes or parts[0] in index.symbols:
                built = self.constructor_class(
                    ast.Call(func=ast.Name(id=parts[0], ctx=ast.Load()),
                             args=[], keywords=[]),
                    ctx.rel,
                )
                if built is not None:
                    return self.method_on(
                        built[1], parts[1], prefer_rel=built[0]
                    )

        module, leaf = self._split_module(dotted, index)
        if module is not None:
            leaf_parts = leaf.split(".")
            if len(leaf_parts) == 1 and leaf_parts[0] in module.functions:
                return self.function(module.rel, leaf_parts[0])
            if len(leaf_parts) == 2 and leaf_parts[0] in module.classes:
                return self.method_on(
                    leaf_parts[0], leaf_parts[1], prefer_rel=module.rel
                )
        return None

    def call_sites(self, ctx: FunctionInfo) -> Iterator[CallSite]:
        """Every call in ``ctx``'s body (nested defs excluded)."""
        for node in walk_shallow(ctx.node):
            if isinstance(node, ast.Call):
                yield self.call_site(node, ctx)

    def call_site(self, call: ast.Call, ctx: FunctionInfo) -> CallSite:
        same_object = (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
        )
        return CallSite(
            call=call,
            target=self.resolve_call(call, ctx),
            dotted=dotted_name(call.func),
            same_object=same_object,
        )


#: One graph per project instance — RL006 and RL008 both need it, and
#: one process (the test suite) may lint several projects.
_GRAPHS: "weakref.WeakKeyDictionary[Project, CallGraph]"
_GRAPHS = weakref.WeakKeyDictionary()


def get_callgraph(project: Project) -> CallGraph:
    graph = _GRAPHS.get(project)
    if graph is None:
        graph = CallGraph(project)
        _GRAPHS[project] = graph
    return graph
