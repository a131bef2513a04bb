"""``repro.analysis`` — the ``repro-lint`` static-analysis toolkit.

A stdlib-``ast`` checker suite enforcing the invariants the compiler
never sees: the wire error contract (RL002), flow-sensitive RWLock
discipline (RL006), and no blocking calls reachable from server
coroutines (RL008).

Run it as ``python -m repro.analysis``; extend it by registering a
checker class — see ``src/repro/analysis/README.md``.
"""

from .diagnostics import Diagnostic
from .registry import CHECKERS, Checker, register
from .runner import LintResult, run_lint

__all__ = [
    "CHECKERS",
    "Checker",
    "Diagnostic",
    "LintResult",
    "register",
    "run_lint",
]
