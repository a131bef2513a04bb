"""Per-function control-flow graphs and a forward dataflow solver.

The lock-flow rule (RL006) needs more than a statement walk: whether a
lock is held *at* a call site depends on the path taken through the
function.  This module gives it the two pieces that question needs:

* :class:`CFG` — a statement-level control-flow graph for one function.
  ``with`` blocks get synthetic ``with-enter``/``with-exit`` nodes so a
  context manager's effect (acquiring a lock) can be modeled exactly at
  the boundary it takes effect; ``try`` bodies conservatively edge into
  their handlers from every statement.
* :func:`forward` — a classic worklist fixpoint over any join
  semilattice: supply a ``transfer`` (node effect) and a ``join`` (path
  merge) and get back the state *entering* every node.

Both are deliberately approximate in the safe direction for may-
analyses (union joins): loops iterate to fixpoint, exceptional edges
are included, and ``break``/``continue``/``return`` never fall through.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import TypeVar

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef

#: Node kinds.  ``stmt`` carries an ordinary statement; ``with-enter``
#: and ``with-exit`` bracket a ``with`` body (their ``stmt`` is the
#: ``ast.With`` itself); ``entry``/``exit`` are the synthetic endpoints.
STMT = "stmt"
WITH_ENTER = "with-enter"
WITH_EXIT = "with-exit"
ENTRY = "entry"
EXIT = "exit"


@dataclass
class CFGNode:
    """One CFG node: a statement (or synthetic marker) plus successors."""

    index: int
    kind: str
    stmt: ast.stmt | None
    succs: list[int] = field(default_factory=list)


class CFG:
    """Control-flow graph of one function body.

    ``nodes[entry]`` / ``nodes[exit]`` are synthetic; every other node
    wraps exactly one statement.  Compound statements (``if``/``while``/
    ``for``/``try``) appear as their *header* node — the node where the
    test/iterable is evaluated — while their bodies become separate
    nodes reachable from the header.
    """

    def __init__(self, fn: FuncDef) -> None:
        self.fn = fn
        self.nodes: list[CFGNode] = []
        self.entry = self._new(ENTRY, None).index
        self.exit = self._new(EXIT, None).index
        frontier = _Builder(self).seq(fn.body, [self.entry])
        self.link(frontier, self.exit)

    def _new(self, kind: str, stmt: ast.stmt | None) -> CFGNode:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node

    def add(self, kind: str, stmt: ast.stmt | None) -> CFGNode:
        return self._new(kind, stmt)

    def link(self, preds: list[int], succ: int) -> None:
        for pred in preds:
            succs = self.nodes[pred].succs
            if succ not in succs:
                succs.append(succ)


class _Builder:
    """Recursive-descent CFG construction with loop target stacks."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: (header index, break frontier) per enclosing loop.
        self._loops: list[tuple[int, list[int]]] = []

    # ------------------------------------------------------------------
    def seq(self, stmts: list[ast.stmt], preds: list[int]) -> list[int]:
        """Wire a statement sequence after ``preds``; return the open
        frontier (nodes whose successor is whatever comes next)."""
        frontier = preds
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, preds: list[int]) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            header = cfg.add(STMT, stmt)
            cfg.link(preds, header.index)
            then = self.seq(stmt.body, [header.index])
            other = (
                self.seq(stmt.orelse, [header.index])
                if stmt.orelse
                else [header.index]
            )
            return then + other
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.add(STMT, stmt)
            cfg.link(preds, header.index)
            breaks: list[int] = []
            self._loops.append((header.index, breaks))
            body = self.seq(stmt.body, [header.index])
            cfg.link(body, header.index)
            self._loops.pop()
            after = self.seq(stmt.orelse, [header.index])
            return after + breaks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            enter = cfg.add(WITH_ENTER, stmt)
            cfg.link(preds, enter.index)
            body = self.seq(stmt.body, [enter.index])
            leave = cfg.add(WITH_EXIT, stmt)
            cfg.link(body, leave.index)
            return [leave.index]
        if isinstance(stmt, (ast.Try, ast.TryStar)):
            return self._try(stmt, preds)
        if isinstance(stmt, ast.Match):
            header = cfg.add(STMT, stmt)
            cfg.link(preds, header.index)
            frontier = [header.index]  # no case may match
            for case in stmt.cases:
                frontier += self.seq(case.body, [header.index])
            return frontier
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = cfg.add(STMT, stmt)
            cfg.link(preds, node.index)
            cfg.link([node.index], cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = cfg.add(STMT, stmt)
            cfg.link(preds, node.index)
            if self._loops:
                self._loops[-1][1].append(node.index)
            return []
        if isinstance(stmt, ast.Continue):
            node = cfg.add(STMT, stmt)
            cfg.link(preds, node.index)
            if self._loops:
                cfg.link([node.index], self._loops[-1][0])
            return []
        node = cfg.add(STMT, stmt)
        cfg.link(preds, node.index)
        return [node.index]

    def _try(self, stmt: ast.Try | ast.TryStar, preds: list[int]) -> list[int]:
        """An exception may surface at any statement of the body, so the
        handlers are reachable from every body node (and from the entry
        predecessors — the first statement may raise before running)."""
        cfg = self.cfg
        first = len(cfg.nodes)
        body = self.seq(stmt.body, preds)
        body_nodes = list(range(first, len(cfg.nodes)))
        after_else = self.seq(stmt.orelse, body) if stmt.orelse else body
        frontier = list(after_else)
        for handler in stmt.handlers:
            sources = list(preds) + body_nodes
            frontier += self.seq(handler.body, sources)
        if stmt.finalbody:
            return self.seq(stmt.finalbody, frontier)
        return frontier


# ----------------------------------------------------------------------
# node -> evaluated expressions
# ----------------------------------------------------------------------

def node_expressions(node: CFGNode) -> Iterator[ast.expr]:
    """The expressions evaluated *at* this node (bodies of compound
    statements are their own nodes and are not included)."""
    stmt = node.stmt
    if stmt is None or node.kind == WITH_EXIT:
        return
    if node.kind == WITH_ENTER:
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        for item in stmt.items:
            yield item.context_expr
        return
    if isinstance(stmt, ast.Expr):
        yield stmt.value
    elif isinstance(stmt, ast.Assign):
        yield stmt.value
        yield from stmt.targets
    elif isinstance(stmt, ast.AugAssign):
        yield stmt.value
        yield stmt.target
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, ast.Return):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
    elif isinstance(stmt, ast.Raise):
        if stmt.exc is not None:
            yield stmt.exc
        if stmt.cause is not None:
            yield stmt.cause
    elif isinstance(stmt, ast.Assert):
        yield stmt.test
        if stmt.msg is not None:
            yield stmt.msg
    elif isinstance(stmt, ast.Delete):
        yield from stmt.targets
    elif isinstance(stmt, ast.Match):
        yield stmt.subject


def walk_expressions(expr: ast.expr) -> Iterator[ast.AST]:
    """All sub-expressions of ``expr`` except lambda bodies (which run in
    a later, different activation) — comprehension bodies are included,
    matching how the checkers treat them as evaluated in place."""
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))


def node_calls(node: CFGNode) -> Iterator[ast.Call]:
    """Every call evaluated at this node, outermost first per expression."""
    for expr in node_expressions(node):
        for sub in walk_expressions(expr):
            if isinstance(sub, ast.Call):
                yield sub


# ----------------------------------------------------------------------
# forward dataflow
# ----------------------------------------------------------------------

S = TypeVar("S")


def forward(
    cfg: CFG,
    initial: S,
    transfer: Callable[[CFGNode, S], S],
    join: Callable[[S, S], S],
) -> list[S | None]:
    """Worklist fixpoint: the state *entering* each node, by index.

    ``initial`` enters the entry node; unreachable nodes keep ``None``.
    ``join`` must be monotone and idempotent; states are compared with
    ``==`` for convergence.
    """
    in_states: list[S | None] = [None] * len(cfg.nodes)
    in_states[cfg.entry] = initial
    worklist = [cfg.entry]
    while worklist:
        index = worklist.pop()
        state = in_states[index]
        assert state is not None
        out = transfer(cfg.nodes[index], state)
        for succ in cfg.nodes[index].succs:
            current = in_states[succ]
            merged = out if current is None else join(current, out)
            if merged != current:
                in_states[succ] = merged
                worklist.append(succ)
    return in_states
