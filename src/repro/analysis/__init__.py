"""``repro.analysis`` — the ``repro-lint`` static-analysis toolkit.

A stdlib-``ast`` checker suite enforcing the invariants the compiler
never sees: RWLock reader/writer discipline on the service facades
(RL001), the wire error contract (RL002),
typed-error hygiene on the wire tier (RL003), fork/asyncio safety
(RL004), and benchmark envelope conformance (RL005).

Run it as ``repro-audit lint`` or ``python -m repro.analysis``; extend
it by registering a checker class — see ``src/repro/analysis/README.md``.
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
