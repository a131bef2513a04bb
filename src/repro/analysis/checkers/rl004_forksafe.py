"""RL004 — fork safety.

Two sub-checks, both aimed at state that must never cross a ``fork()``:

* **import-time resources** — a lock, socket, executor pool, or live
  service constructed at module level is inherited by every forked
  worker in an undefined state (a held lock stays held forever in the
  child).  Scope: all of ``src/repro``.
* **closure captures** — a factory passed to a ``ProcessPoolExecutor``
  (an ``initializer``, say) must construct its resources *inside* the
  child; a lambda that captures a service/lock/socket built in the
  parent ships parent-process state through ``fork``.

Blocking calls inside ``async def`` bodies were RL004's third check
until the call graph existed; RL008 now finds them *transitively*
(``src/repro/analysis/checkers/rl008_asyncflow.py``) and owns the
direct case too.  The blocking-primitive tables below are shared with
it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..astutil import dotted_name, free_names, walk_shallow
from ..diagnostics import Diagnostic
from ..project import Project, SourceFile
from ..registry import register

SCOPE = ("src/repro",)

#: Constructors whose product must not exist before ``fork()``.
FORBIDDEN_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "Lock",
        "RLock",
        "RWLock",
        "socket.socket",
        "socket.create_connection",
        "ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
        "AuditService",
        "AuditService.open",
        "open_service",
    }
)

#: Call targets a factory closure must not hand to — these ship the
#: closure (and everything it captures) into another process.
FACTORY_SINKS = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})

#: ``dotted.name`` call patterns that block the event loop (consumed by
#: RL008's transitive reachability check).
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "urllib.request.urlopen",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "input",
        "open",
    }
)

#: http.client connection classes — sync HTTP inside an async body.
BLOCKING_ATTRS = frozenset({"HTTPConnection", "HTTPSConnection"})


def _call_target(node: ast.Call) -> str | None:
    return dotted_name(node.func)


@register
class ForkSafetyChecker:
    code = "RL004"
    name = "fork-asyncio-safety"
    description = (
        "no locks/sockets/services at import time or captured by worker "
        "factories"
    )

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for file in project.files:
            if file.tree is None:
                continue
            if file.in_scope(*SCOPE):
                yield from self._check_module_level(file)
                yield from self._check_factory_closures(file)

    # ------------------------------------------------------------------
    def _check_module_level(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        stack: list[ast.stmt] = list(file.tree.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.If, ast.Try)):
                stack.extend(ast.iter_child_nodes(stmt))  # type: ignore[arg-type]
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            target = _call_target(value)
            if target in FORBIDDEN_FACTORIES:
                yield Diagnostic(
                    path=file.rel,
                    line=value.lineno,
                    col=value.col_offset + 1,
                    code=self.code,
                    message=(
                        f"{target}() at module level is inherited by forked "
                        "workers in an undefined state — construct it in "
                        "__init__ or inside the worker"
                    ),
                )

    # ------------------------------------------------------------------
    def _check_factory_closures(self, file: SourceFile) -> Iterator[Diagnostic]:
        assert file.tree is not None
        for fn in ast.walk(file.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # names bound in this scope to a forbidden construction
            tainted: dict[str, str] = {}
            for node in walk_shallow(fn):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                target = _call_target(node.value)
                if target is None or target not in FORBIDDEN_FACTORIES:
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if isinstance(t, ast.Name):
                        tainted[t.id] = target
            # also: `with AuditService.open(...) as service:`
            for node in walk_shallow(fn):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if (
                            isinstance(item.context_expr, ast.Call)
                            and _call_target(item.context_expr)
                            in FORBIDDEN_FACTORIES
                            and isinstance(item.optional_vars, ast.Name)
                        ):
                            tainted[item.optional_vars.id] = _call_target(
                                item.context_expr
                            ) or ""
            if not tainted:
                continue
            local_defs = {
                node.name: node
                for node in walk_shallow(fn)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in walk_shallow(fn):
                if not isinstance(node, ast.Call):
                    continue
                sink = _call_target(node)
                if sink is None or sink.rsplit(".", 1)[-1] not in FACTORY_SINKS:
                    continue
                closures: list[ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef]
                closures = []
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    if isinstance(arg, ast.Lambda):
                        closures.append(arg)
                    elif isinstance(arg, ast.Name) and arg.id in local_defs:
                        closures.append(local_defs[arg.id])
                for closure in closures:
                    for captured in sorted(free_names(closure) & set(tainted)):
                        yield Diagnostic(
                            path=file.rel,
                            line=closure.lineno,
                            col=closure.col_offset + 1,
                            code=self.code,
                            message=(
                                f"factory passed to {sink} captures "
                                f"{captured!r} (a {tainted[captured]}) from the "
                                "parent process — construct it inside the "
                                "factory instead"
                            ),
                        )
