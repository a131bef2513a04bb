"""RL006 — interprocedural lock-state flow on the RWLock protocol.

Per-function lock-state dataflow over the whole-project call graph.
Three violation shapes:

* **reentrant / upgrading acquisition** — acquiring the writer-
  preferring :class:`repro.api.locks.RWLock` (either mode) on a token
  that is already held on the current path is a guaranteed
  self-deadlock: the lock is not reentrant, and a read→write upgrade
  parks the writer behind its own read hold forever.  Detected both
  directly (``with self._lock.read_locked(): ... self._lock
  .write_locked()``) and through any resolvable call chain, with
  object identity matched through parameter binding (``helper(self)``
  acquiring ``svc._lock`` is the caller's own lock).
* **reader-path mutation** — a write to state owned by the object
  whose lock is held only in read mode: directly in the read-locked
  region (``self._n += 1``, ``self._seen.add(k)``) or through any
  resolvable call chain (a ``self.`` helper, a module-level helper
  mutating a parameter, a base-class method in another module).  Two
  readers run concurrently, so such a write is unsynchronized.  Calls
  to ``release_*`` are exempt: they are the lock's own bookkeeping.
* **fork while holding a lock** — ``os.fork`` /
  ``ProcessPoolExecutor`` construction / ``.submit`` on a known process
  pool, reached on any path where any lock is held: the child inherits
  the mutex state but not the thread that would release it.

Lock state is tracked per CFG node as a set of ``(token, mode)`` pairs
where the token is the receiver's dotted spine (``self._lock``,
``svc._lock``, a bare ``lock`` local); ``with``-block boundaries and
explicit ``acquire_*``/``try_acquire_read``/``release_*`` calls all
transfer.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import Optional

from ..astutil import dotted_name, rooted_attribute
from ..callgraph import CallGraph, CallSite, FunctionInfo, get_callgraph
from ..diagnostics import Diagnostic
from ..flow import CFG, WITH_ENTER, WITH_EXIT, CFGNode, forward, node_calls
from ..project import Project, SourceFile
from ..registry import register

SCOPE = ("src/repro",)

#: Method names that mutate their receiver — calling one of these on an
#: attribute chain counts as a write to the state that chain owns.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "add_template",
        "add_templates",
        "append",
        "clear",
        "discard",
        "extend",
        "ingest",
        "ingest_many",
        "ingest_prepared",
        "insert",
        "invalidate_cache",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
        "write",
    }
)

#: Context-manager / imperative spellings of the RWLock protocol.
ENTER_MODES = {"read_locked": "read", "write_locked": "write"}
#: ``try_acquire_read`` counts as held on both branches of its test: a
#: may-hold over-approximation that keeps the region it guards checked.
ACQUIRE_MODES = {
    "acquire_read": "read",
    "try_acquire_read": "read",
    "acquire_write": "write",
}
RELEASE_MODES = {"release_read": "read", "release_write": "write"}

#: Call spellings that fork (or submit work to a forked pool).
FORK_TAILS = frozenset({"fork", "ProcessPoolExecutor"})

#: ``(token, mode)`` pairs held on some path into a node.
LockState = frozenset[tuple[str, str]]

#: Effect-propagation depth cap — chains deeper than this are noise.
MAX_CHAIN = 8


@dataclass(frozen=True)
class _Effect:
    """One summarized side effect of calling a function, relative to its
    own parameter roots (``self`` included)."""

    kind: str  #: "mutate" | "acquire" | "fork"
    root: str  #: parameter name or "self"; "" for root-independent fork
    detail: str  #: attr path after root / token suffix / fork primitive
    mode: str  #: lock mode for "acquire", "" otherwise
    chain: tuple[str, ...]  #: call chain from the summarized fn downward

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.kind, self.root, self.detail, self.mode)


def _lock_token(expr: ast.expr) -> Optional[str]:
    """Dotted spine of a lock receiver — ``self._lock``, ``svc._lock``,
    or a bare ``lock`` name.  Subscripts are transparent."""
    parts: list[str] = []
    cur: ast.expr = expr
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        else:
            break
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _acquisitions(node: CFGNode) -> list[tuple[str, str, ast.expr]]:
    """``(token, mode, anchor)`` acquired at this node."""
    out: list[tuple[str, str, ast.expr]] = []
    if node.kind == WITH_ENTER:
        stmt = node.stmt
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        for item in stmt.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ENTER_MODES
            ):
                token = _lock_token(expr.func.value)
                if token is not None:
                    out.append((token, ENTER_MODES[expr.func.attr], expr))
        return out
    for call in node_calls(node):
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ACQUIRE_MODES
        ):
            token = _lock_token(call.func.value)
            if token is not None:
                out.append((token, ACQUIRE_MODES[call.func.attr], call))
    return out


def _releases(node: CFGNode) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if node.kind == WITH_EXIT:
        stmt = node.stmt
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        for item in stmt.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ENTER_MODES
            ):
                token = _lock_token(expr.func.value)
                if token is not None:
                    out.append((token, ENTER_MODES[expr.func.attr]))
        return out
    for call in node_calls(node):
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in RELEASE_MODES
        ):
            token = _lock_token(call.func.value)
            if token is not None:
                out.append((token, RELEASE_MODES[call.func.attr]))
    return out


def _lock_transfer(node: CFGNode, state: LockState) -> LockState:
    acquired = {(token, mode) for token, mode, _ in _acquisitions(node)}
    released = set(_releases(node))
    return frozenset((state - released) | acquired)


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = fn.args
    return [a.arg for a in (*args.posonlyargs, *args.args)]


def _binding(site: CallSite) -> dict[str, str]:
    """Callee root -> caller root, for effects that track object
    identity.  Only provable bindings: ``self.m(...)`` aliases the
    callee's first parameter to ``self``; plain-name arguments map
    positionally/by keyword to the caller name they carry."""
    target = site.target
    if target is None:
        return {}
    params = _param_names(target.node)
    out: dict[str, str] = {}
    offset = 0
    if target.class_name is not None:
        if not site.same_object:
            return {}  # foreign receiver: effects are another object's
        if params:
            out[params[0]] = "self"
        offset = 1
    for i, arg in enumerate(site.call.args):
        index = i + offset
        if index < len(params) and isinstance(arg, ast.Name):
            out[params[index]] = arg.id
    for kw in site.call.keywords:
        if kw.arg is not None and isinstance(kw.value, ast.Name):
            out[kw.arg] = kw.value.id
    return out


def _read_held_roots(state: LockState) -> set[str]:
    """Owners (token roots) whose lock is held in read mode only."""
    read = {t.split(".")[0] for t, m in state if m == "read"}
    return read - {t.split(".")[0] for t, m in state if m == "write"}


def _mapped_token(root: str, suffix: str) -> str:
    return f"{root}.{suffix}" if suffix else root


@register
class LockFlowChecker:
    code = "RL006"
    name = "lock-flow"
    description = (
        "no reentrant/upgrading RWLock acquisition, shared-state mutation "
        "under the read lock, or fork/pool-submit while holding a lock — "
        "tracked through the project call graph"
    )

    def __init__(self) -> None:
        self._summaries: dict[str, tuple[_Effect, ...]] = {}
        self._in_progress: set[str] = set()
        self._flows: dict[str, list[LockState | None]] = {}
        self._cfgs: dict[str, CFG] = {}

    # ------------------------------------------------------------------
    def check(self, project: Project) -> Iterator[Diagnostic]:
        graph = get_callgraph(project)
        self._summaries.clear()
        self._flows.clear()
        self._cfgs.clear()
        for info in graph.functions():
            file = project.file(info.rel)
            if file is None or not file.in_scope(*SCOPE):
                continue
            yield from self._check_function(file, info, graph)

    # ------------------------------------------------------------------
    # per-function flow
    # ------------------------------------------------------------------
    def _flow(self, info: FunctionInfo) -> tuple[CFG, list[LockState | None]]:
        cfg = self._cfgs.get(info.qname)
        if cfg is None:
            cfg = CFG(info.node)
            self._cfgs[info.qname] = cfg
            self._flows[info.qname] = forward(
                cfg, frozenset(), _lock_transfer, lambda a, b: a | b
            )
        return cfg, self._flows[info.qname]

    def _check_function(
        self, file: SourceFile, info: FunctionInfo, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        cfg, states = self._flow(info)
        pools = self._pool_roots(info, graph)
        for node in cfg.nodes:
            state = states[node.index]
            if state is None:
                continue
            held_tokens = {token for token, _ in state}

            # 1. direct reentrant / upgrading acquisition
            for token, mode, anchor in _acquisitions(node):
                held_modes = sorted(m for t, m in state if t == token)
                if not held_modes:
                    continue
                shape = (
                    "upgrading the read lock to the write lock"
                    if mode == "write" and "read" in held_modes
                    else f"re-acquiring the {mode} lock"
                )
                yield Diagnostic(
                    path=file.rel,
                    line=anchor.lineno,
                    col=anchor.col_offset + 1,
                    code=self.code,
                    message=(
                        f"{shape} on {token!r} while it is already held "
                        f"({'/'.join(held_modes)}) — the writer-preferring "
                        "RWLock is not reentrant; this self-deadlocks"
                    ),
                )

            if not state:
                continue

            # 2. direct writes to state whose owner is only read-locked
            read_held = _read_held_roots(state)
            for root, detail, (line, col) in self._direct_mutations(node):
                if root in read_held:
                    yield Diagnostic(
                        path=file.rel,
                        line=line,
                        col=col,
                        code=self.code,
                        message=(
                            f"{info.name!r} mutates shared state "
                            f"{root + '.' + detail!r} under the read lock — "
                            "concurrent readers race on it; move the write "
                            "under the write lock"
                        ),
                    )

            # 3. call-site effects under a held lock
            for call in node_calls(node):
                site = graph.call_site(call, info)
                primitive = self._fork_primitive(site, pools)
                if primitive is not None:
                    token = sorted(held_tokens)[0]
                    yield Diagnostic(
                        path=file.rel,
                        line=call.lineno,
                        col=call.col_offset + 1,
                        code=self.code,
                        message=(
                            f"{primitive} while holding {token!r} — the "
                            "forked child inherits the lock in an undefined "
                            "state and can never release it"
                        ),
                    )
                    continue
                if site.target is None or site.target.name in RELEASE_MODES:
                    continue
                binding = _binding(site)
                for effect in self._summary(site.target, graph):
                    yield from self._apply_effect(
                        file, info, call, site, effect, binding, state
                    )

    def _apply_effect(
        self,
        file: SourceFile,
        info: FunctionInfo,
        call: ast.Call,
        site: CallSite,
        effect: _Effect,
        binding: dict[str, str],
        state: LockState,
    ) -> Iterator[Diagnostic]:
        assert site.target is not None
        chain = " -> ".join((site.target.name, *effect.chain[1:]))
        pos = (call.lineno, call.col_offset + 1)
        if effect.kind == "fork":
            token = sorted(token for token, _ in state)[0]
            yield Diagnostic(
                path=file.rel,
                line=pos[0],
                col=pos[1],
                code=self.code,
                message=(
                    f"call chain {chain!r} reaches {effect.detail} while "
                    f"{token!r} is held — the forked child inherits the "
                    "lock in an undefined state"
                ),
            )
            return
        mapped_root = binding.get(effect.root)
        if mapped_root is None:
            return
        if effect.kind == "acquire":
            token = _mapped_token(mapped_root, effect.detail)
            held_modes = sorted(m for t, m in state if t == token)
            if held_modes:
                yield Diagnostic(
                    path=file.rel,
                    line=pos[0],
                    col=pos[1],
                    code=self.code,
                    message=(
                        f"call chain {chain!r} acquires the {effect.mode} "
                        f"lock on {token!r} while this path already holds "
                        f"it ({'/'.join(held_modes)}) — guaranteed "
                        "self-deadlock"
                    ),
                )
            return
        # mutate: only under a read-locked (and not write-locked) region
        # of the same object
        if mapped_root in _read_held_roots(state):
            target = f"{mapped_root}.{effect.detail}"
            yield Diagnostic(
                path=file.rel,
                line=pos[0],
                col=pos[1],
                code=self.code,
                message=(
                    f"{info.name!r} holds the read lock while call chain "
                    f"{chain!r} mutates shared state {target!r} — "
                    "concurrent readers race on it; move the write under "
                    "the write lock"
                ),
            )

    # ------------------------------------------------------------------
    # function summaries
    # ------------------------------------------------------------------
    def _summary(
        self, info: FunctionInfo, graph: CallGraph
    ) -> tuple[_Effect, ...]:
        cached = self._summaries.get(info.qname)
        if cached is not None:
            return cached
        if info.qname in self._in_progress:
            return ()
        self._in_progress.add(info.qname)
        try:
            effects = self._compute_summary(info, graph)
        finally:
            self._in_progress.discard(info.qname)
        self._summaries[info.qname] = effects
        return effects

    def _compute_summary(
        self, info: FunctionInfo, graph: CallGraph
    ) -> tuple[_Effect, ...]:
        cfg, states = self._flow(info)
        roots = set(_param_names(info.node)) | {"self"}
        pools = self._pool_roots(info, graph)
        out: dict[tuple[str, str, str, str], _Effect] = {}

        def add(effect: _Effect) -> None:
            if len(effect.chain) <= MAX_CHAIN:
                out.setdefault(effect.key, effect)

        for node in cfg.nodes:
            state = states[node.index]
            if state is None:
                continue
            held_tokens = {token for token, _ in state}
            held_roots = {token.split(".")[0] for token in held_tokens}

            for root, detail, _pos in self._direct_mutations(node):
                if root in roots and root not in held_roots:
                    add(
                        _Effect(
                            kind="mutate",
                            root=root,
                            detail=detail,
                            mode="",
                            chain=(info.name,),
                        )
                    )
            for token, mode, _anchor in _acquisitions(node):
                root = token.split(".")[0]
                if root in roots and token not in held_tokens:
                    suffix = token[len(root) + 1 :] if "." in token else ""
                    add(
                        _Effect(
                            kind="acquire",
                            root=root,
                            detail=suffix,
                            mode=mode,
                            chain=(info.name,),
                        )
                    )
            for call in node_calls(node):
                site = graph.call_site(call, info)
                primitive = self._fork_primitive(site, pools)
                if primitive is not None and not state:
                    add(
                        _Effect(
                            kind="fork",
                            root="",
                            detail=primitive,
                            mode="",
                            chain=(info.name,),
                        )
                    )
                if site.target is None:
                    continue
                binding = _binding(site)
                for effect in self._summary(site.target, graph):
                    chain = (info.name, site.target.name, *effect.chain[1:])
                    if effect.kind == "fork":
                        if not state:
                            add(replace(effect, chain=chain))
                        continue
                    mapped = binding.get(effect.root)
                    if mapped is None or mapped not in roots:
                        continue
                    if effect.kind == "acquire":
                        held = _mapped_token(mapped, effect.detail) in held_tokens
                    else:
                        held = mapped in held_roots
                    if not held:
                        add(replace(effect, root=mapped, chain=chain))
        return tuple(out.values())

    # ------------------------------------------------------------------
    # primitive detection
    # ------------------------------------------------------------------
    @staticmethod
    def _direct_mutations(
        node: CFGNode,
    ) -> Iterator[tuple[str, str, tuple[int, int]]]:
        """(root, detail, position) for each rooted-state write at node."""
        stmt = node.stmt
        if stmt is None or node.kind in (WITH_ENTER, WITH_EXIT):
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is None:
            return
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            leaves = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for leaf in leaves:
                rooted = rooted_attribute(leaf)
                if rooted is not None:
                    root, dotted = rooted
                    yield (
                        root,
                        dotted[len(root) + 1 :],
                        (leaf.lineno, leaf.col_offset + 1),
                    )
        for call in node_calls(node):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in MUTATOR_METHODS
            ):
                rooted = rooted_attribute(call.func.value)
                if rooted is not None:
                    root, dotted = rooted
                    yield (
                        root,
                        f"{dotted[len(root) + 1:]}.{call.func.attr}()",
                        (call.lineno, call.col_offset + 1),
                    )

    def _pool_roots(self, info: FunctionInfo, graph: CallGraph) -> set[str]:
        """Receiver spines provably bound to a ``ProcessPoolExecutor``:
        locals assigned one in this body, ``self.attr`` assigned one in
        the enclosing class's ``__init__``."""
        out: set[str] = set()
        for stmt in ast.walk(info.node):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and isinstance(
                stmt.value, ast.Call
            ):
                dotted = dotted_name(stmt.value.func)
                if dotted is None:
                    continue
                if dotted.rsplit(".", 1)[-1] != "ProcessPoolExecutor":
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        out.add(target.id)
                    else:
                        spine = _lock_token(target)
                        if spine is not None:
                            out.add(spine)
        if info.class_name is not None:
            init = graph.function(info.rel, "__init__", info.class_name)
            if init is not None and init.qname != info.qname:
                out |= self._pool_roots(init, graph)
        return out

    @staticmethod
    def _fork_primitive(site: CallSite, pools: set[str]) -> Optional[str]:
        dotted = site.dotted
        if dotted is None:
            return None
        tail = dotted.rsplit(".", 1)[-1]
        if tail in FORK_TAILS and site.target is None:
            return f"{dotted}()"
        if tail == "submit":
            receiver = dotted.rsplit(".", 1)[0]
            if receiver in pools:
                return f"{dotted}() (a ProcessPoolExecutor submit)"
        return None
