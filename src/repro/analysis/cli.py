"""The ``repro-lint`` command line.

Runs as ``python -m repro.analysis``; exits 0 on a clean tree, 1 on any
finding, 2 on usage errors (argparse's convention).

Inside GitHub Actions (``GITHUB_ACTIONS=true``) findings are
additionally emitted as ``::error`` workflow commands on stderr, so
every diagnostic renders as an inline annotation on the PR whichever
``--output`` mode CI asked for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagnostics import render_github, render_json, render_text
from .registry import CHECKERS
from .runner import run_lint


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST- and dataflow-based invariant checks for the repro tree: "
            "flow-sensitive lock discipline, the wire error contract, fork "
            "safety, transitive blocking in server coroutines, and bench "
            "envelopes."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to lint, relative to --root "
            "(default: src and benchmarks)"
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root the paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help=(
            "text = ruff-style path:line:col CODE message; json = versioned "
            "machine-readable findings+stats"
        ),
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help=(
            "append a machine-readable one-line JSON summary (rules run, "
            "files scanned, findings by code) to stdout"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for code in sorted(CHECKERS):
            cls = CHECKERS[code]
            print(f"{code}  {cls.name:<22} {cls.description}")
        return 0

    try:
        result = run_lint(args.root, tuple(args.paths))
    except (ValueError, OSError) as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    stats = result.stats()
    if args.output == "json":
        print(render_json(result.diagnostics, stats))
    elif result.diagnostics:
        print(render_text(result.diagnostics))

    if os.environ.get("GITHUB_ACTIONS") == "true" and result.diagnostics:
        print(render_github(result.diagnostics), file=sys.stderr)

    if args.output == "text":
        summary = (
            f"{len(result.diagnostics)} finding(s), "
            f"{result.files_scanned} file(s) scanned"
        )
        print(summary if result.diagnostics else f"clean — {summary}")
    if args.stats:
        print(json.dumps(stats, sort_keys=True))
    return result.exit_code
