"""RL008 — blocking calls reachable from server coroutines.

A ``time.sleep`` written directly inside an ``async def`` is the easy
case; the obvious dodge is one helper function of indirection.  This
rule closes the dodge: every coroutine in ``src/repro/server`` is a
root, and the project call graph is walked through plain (non-async)
callees looking for blocking primitives — the tables below plus whole
module families (``sqlite3.*``,
``socket.*``, ``subprocess.*``, ``urllib.request.*``).  A hit is
reported at the *root's* call site with the full chain, which is where
the fix goes: hand the chain to ``loop.run_in_executor`` (function
references passed as arguments create no call edge, so the executor
pattern stays clean by construction).
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

from ..callgraph import CallGraph, FunctionInfo, get_callgraph
from ..diagnostics import Diagnostic
from ..project import Project, SourceFile
from ..registry import register

SCOPE = ("src/repro/server",)

#: ``dotted.name`` call patterns that block the event loop.
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

#: Module families that are blocking wholesale — any call into them
#: counts, without enumerating every function.
BLOCKING_PREFIXES = ("sqlite3.", "socket.", "subprocess.", "urllib.request.")

#: Chains deeper than this are beyond anyone's mental model; stop.
MAX_DEPTH = 8

#: (blocking primitive, call chain from the summarized function down).
Summary = Optional[tuple[str, tuple[str, ...]]]


def blocking_primitive(dotted: str | None) -> str | None:
    """The blocking primitive a dotted call target names, or None."""
    if dotted is None:
        return None
    if dotted in BLOCKING_CALLS:
        return dotted
    if dotted.rsplit(".", 1)[-1] in BLOCKING_ATTRS:
        return dotted
    if dotted.startswith(BLOCKING_PREFIXES):
        return dotted
    return None


@register
class AsyncFlowChecker:
    code = "RL008"
    name = "async-blocking-flow"
    description = (
        "no blocking call (sqlite3/socket/subprocess/time.sleep/file I/O) "
        "reachable from a server coroutine through the call graph — "
        "run blocking work on the executor"
    )

    def __init__(self) -> None:
        self._summaries: dict[str, Summary] = {}
        self._in_progress: set[str] = set()

    def check(self, project: Project) -> Iterator[Diagnostic]:
        graph = get_callgraph(project)
        self._summaries.clear()
        for info in graph.functions():
            if not info.is_async:
                continue
            file = project.file(info.rel)
            if file is None or not file.in_scope(*SCOPE):
                continue
            yield from self._check_coroutine(file, info, graph)

    def _check_coroutine(
        self, file: SourceFile, info: FunctionInfo, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        for site in graph.call_sites(info):
            call = site.call
            primitive = blocking_primitive(site.dotted)
            if primitive is not None and site.target is None:
                yield Diagnostic(
                    path=file.rel,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    code=self.code,
                    message=(
                        f"blocking call {primitive}() inside async def "
                        f"{info.name!r} stalls the event loop — run it on "
                        "the executor (loop.run_in_executor) instead"
                    ),
                )
                continue
            if site.target is None or site.target.is_async:
                continue
            summary = self._summary(site.target, graph, depth=1)
            if summary is None:
                continue
            found, chain = summary
            shown = " -> ".join(chain)
            yield Diagnostic(
                path=file.rel,
                line=call.lineno,
                col=call.col_offset + 1,
                code=self.code,
                message=(
                    f"async def {info.name!r} reaches blocking {found}() "
                    f"through {shown!r} — the whole chain runs on the "
                    "event loop; move it to the executor"
                ),
            )

    def _summary(
        self, info: FunctionInfo, graph: CallGraph, depth: int
    ) -> Summary:
        if info.qname in self._summaries:
            return self._summaries[info.qname]
        if info.qname in self._in_progress or depth > MAX_DEPTH:
            return None
        self._in_progress.add(info.qname)
        try:
            result = self._compute(info, graph, depth)
        finally:
            self._in_progress.discard(info.qname)
        self._summaries[info.qname] = result
        return result

    def _compute(
        self, info: FunctionInfo, graph: CallGraph, depth: int
    ) -> Summary:
        for site in graph.call_sites(info):
            primitive = blocking_primitive(site.dotted)
            if primitive is not None and site.target is None:
                return (primitive, (info.name,))
            if site.target is None or site.target.is_async:
                continue
            below = self._summary(site.target, graph, depth + 1)
            if below is not None:
                return (below[0], (info.name, *below[1]))
        return None
