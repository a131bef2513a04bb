"""Command-line interface: ``python -m repro`` / ``repro-audit``.

Every subcommand routes through the public API — the
:class:`repro.api.AuditService` facade — so the CLI is a thin shell over
exactly what a web tier would call; ``--json`` on the query subcommands
prints the typed response's ``to_dict()`` form instead of text.

Subcommands mirror the system's lifecycle:

* ``generate`` — simulate a CareWeb-like week and save it as CSVs;
* ``groups``   — infer collaborative groups from a saved database;
* ``mine``     — mine explanation templates and print them as SQL;
* ``explain``  — explain one access, or print a patient's access report;
* ``audit``    — print the compliance summary and the unexplained queue;
* ``evaluate`` — run the paper's headline coverage measurement;
* ``serve``    — expose the service as the v1 HTTP/NDJSON wire API.

Example session::

    repro-audit generate --out hospital/ --scale small
    repro-audit groups --db hospital/
    repro-audit mine --db hospital/ --support 0.01 --max-length 4
    repro-audit explain --db hospital/ --patient p00017
    repro-audit audit --db hospital/ --json
    repro-audit audit --db hospital/ --backend sqlite --db-path audit.db
"""

from __future__ import annotations

import argparse
import json
import sys

from .api import (
    AuditConfig,
    AuditService,
    ExplainRequest,
    MineRequest,
    TemplateLibrary,
    save_database,
    with_careweb_description,
    write_report,
)
from .ehr import SimulationConfig, simulate


def _templates_for(db, templates_path: str | None):
    """The template set to apply: a reviewed library when given, else None
    (the service resolves None to the standard hand-crafted set).  From a
    library, approved templates are used; when nothing is approved yet,
    suggested ones are (with a note).
    """
    if templates_path is None:
        return None
    library = TemplateLibrary.load(templates_path)
    templates, fallback = library.production_templates()
    if fallback:
        print(
            f"note: no approved templates in {templates_path}; "
            "using all suggested ones"
        )
    return templates


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, default=str))


def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: simulate a hospital week and save it as CSVs."""
    presets = {
        "tiny": SimulationConfig.tiny,
        "small": SimulationConfig.small,
        "benchmark": SimulationConfig.benchmark,
    }
    config = presets[args.scale](seed=args.seed)
    result = simulate(config)
    save_database(result.db, args.out)
    print(result.summary())
    print(f"saved to {args.out}/")
    return 0


def cmd_groups(args: argparse.Namespace) -> int:
    """``groups``: infer collaborative groups and persist the Groups table."""
    service = AuditService.open(
        args.db, templates=(), config=AuditConfig(eager_warm=False)
    )
    groups = service.build_groups(max_depth=args.max_depth)
    save_database(service.db, args.db)
    print(
        f"built {groups.group_rows} group rows over "
        f"{groups.users} users "
        f"(hierarchy depth {groups.max_depth}, "
        f"user-patient density {groups.density:.5f})"
    )
    for depth in range(min(groups.max_depth, 2) + 1):
        print(f"  depth {depth}: {groups.groups_per_depth[depth]} groups")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    """``mine``: run a mining algorithm and print/save the templates."""
    service = AuditService.open(
        args.db, templates=(), config=AuditConfig(eager_warm=False)
    )
    result = service.mine(
        MineRequest(
            algorithm=args.algorithm,
            support_fraction=args.support,
            max_length=args.max_length,
            max_tables=args.max_tables,
            bridge_length=args.bridge_length,
        )
    )
    if args.json:
        _print_json(result.to_dict())
    else:
        print(
            f"{result.algorithm}: {len(result.templates)} templates "
            f"(support threshold {result.threshold:.1f} accesses); "
            f"{result.support_stats['queries_run']} support queries "
            f"({result.support_stats['join_steps']} join steps), "
            f"{result.support_stats['skipped']} skipped, "
            f"{result.support_stats['cache_hits']} cache hits"
        )
        for mined in result.templates:
            print(f"\n-- length {mined.length}, support {mined.support}")
            print(mined.sql)
    if args.save:
        result.library().save(args.save)
        if not args.json:
            print(
                f"\nsaved {len(result.templates)} suggested templates to "
                f"{args.save} (review, set '-- status: approved', then pass "
                f"--templates to explain/audit)"
            )
    if args.save_json:
        result.library().dump(args.save_json)
        if not args.json:
            print(
                f"\nsaved {len(result.templates)} suggested templates to "
                f"{args.save_json} (versioned JSON library)"
            )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: explain one access or render a patient's report."""
    templates = _templates_for(args.db, args.templates)
    if templates is not None:
        # library templates usually carry no description; attach the
        # CareWeb natural-language phrasing so instances render readably
        templates = [with_careweb_description(t) for t in templates]
    service = AuditService.open(
        args.db,
        templates=templates,
        config=AuditConfig(eager_warm=False, **_backend_config(args)),
    )
    if args.patient:
        if args.json:
            _print_json(
                service.patient_report(args.patient, limit=args.limit).to_dict()
            )
        else:
            print(service.render_patient_report(args.patient, limit=args.limit))
        return 0
    if args.lid is None:
        print("provide --lid or --patient", file=sys.stderr)
        return 2
    result = service.explain(ExplainRequest(lid=args.lid))
    if args.json:
        _print_json(result.to_dict())
        return 0 if result.explained else 1
    if not result.explained:
        print(f"access {args.lid}: NO explanation found (flag for review)")
        return 1
    print(f"access {args.lid}: {len(result.explanations)} explanation(s)")
    for view in result.explanations:
        print(f"  [len {view.path_length}] {view.text}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """``audit``: compliance summary plus the unexplained queue.

    Every template is evaluated once as a set-at-a-time semijoin over the
    whole log.  ``--resumable`` builds the identical report as a sequence
    of bounded scan slices (``--page-rows`` per slice, optionally
    ``--quantum-ms`` of wall clock) instead of one monolithic evaluation
    — each slice its own short lock hold, the preemptable path a busy
    deployment serves over ``GET /v1/scan``.
    """
    config = AuditConfig(**_backend_config(args))
    with AuditService.open(
        args.db, templates=_templates_for(args.db, args.templates), config=config
    ) as service:
        if args.resumable:
            report = service.scan_report(
                page_rows=args.page_rows,
                quantum_seconds=(
                    None if args.quantum_ms is None else args.quantum_ms / 1000.0
                ),
            )
        else:
            report = service.report()
    if args.json:
        payload = report.to_dict()
        payload["queue"] = payload["queue"][: args.limit]
        payload["user_risk"] = payload["user_risk"][: args.limit]
        _print_json(payload)
        return 0
    print(report.summary())
    print(f"\ntop unexplained accesses (showing up to {args.limit}):")
    for entry in report.queue[: args.limit]:
        print(f"  {entry.lid}  {entry.date}  {entry.user} -> {entry.patient}")
    print("\nusers by unexplained-access count:")
    for user, count in report.user_risk[: args.limit]:
        print(f"  {user}: {count}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``evaluate``: the paper's headline coverage measurement."""
    config = AuditConfig(**_backend_config(args))
    with AuditService.open(
        args.db, templates=_templates_for(args.db, args.templates), config=config
    ) as service:
        coverage = service.coverage()
        total = service.stats()["log_rows"]
    if args.json:
        _print_json({"coverage": coverage, "total": total})
        return 0
    print(f"explained {coverage:.1%} of {total} accesses")
    print("(paper reports over 94% with groups at depth 1)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the v1 wire API over an opened service, in one process.

    ``--port 0``
    binds an ephemeral port; the ``listening on http://...`` line names
    it (scripts parse that line).  SIGINT/SIGTERM shut down cleanly
    (graceful drain: in-flight requests finish, new dials are refused).
    """
    from .server import serve

    config = AuditConfig(**_backend_config(args))
    with AuditService.open(
        args.db, templates=_templates_for(args.db, args.templates), config=config
    ) as service:
        return serve(service, host=args.host, port=args.port)


def cmd_reproduce(args: argparse.Namespace) -> int:
    """``reproduce``: run every paper experiment into a markdown report."""
    presets = {
        "tiny": SimulationConfig.tiny,
        "small": SimulationConfig.small,
        "benchmark": SimulationConfig.benchmark,
    }
    config = presets[args.scale](seed=args.seed)
    with open(args.out, "w") as fh:
        write_report(
            fh,
            config=config,
            include_mining_performance=args.with_mining_performance,
        )
    print(f"reproduction report written to {args.out}")
    return 0


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    """The storage-backend knobs shared by explain/audit/evaluate/serve."""
    p.add_argument(
        "--backend",
        choices=["memory", "sqlite"],
        default="memory",
        help="storage backend: 'memory' audits in the in-memory columnar "
        "engine, 'sqlite' compiles explanation templates to SQL and pushes "
        "them down to SQLite (identical results; lifts the RAM cap)",
    )
    p.add_argument(
        "--db-path",
        default=None,
        help="SQLite database file for --backend sqlite (default: private "
        "in-memory SQLite); an existing audited file is reused without "
        "re-ingesting",
    )
    p.add_argument(
        "--max-table-rows",
        type=int,
        default=None,
        help="row cap per in-memory table under --backend memory (exceeding "
        "it raises CapacityError pointing at --backend sqlite); default "
        "uncapped, ignored under --backend sqlite",
    )


def _backend_config(args: argparse.Namespace) -> dict:
    """AuditConfig kwargs from the :func:`_add_backend_args` flags."""
    return {
        "backend": args.backend,
        "db_path": args.db_path,
        "max_table_rows": args.max_table_rows,
    }


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (one subparser per subcommand)."""
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Explanation-Based Auditing (VLDB 2011) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="simulate a CareWeb-like hospital week")
    p.add_argument("--out", required=True, help="output database directory")
    p.add_argument(
        "--scale", choices=["tiny", "small", "benchmark"], default="small"
    )
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("groups", help="infer collaborative groups")
    p.add_argument("--db", required=True, help="database directory")
    p.add_argument("--max-depth", type=int, default=8)
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("mine", help="mine explanation templates")
    p.add_argument("--db", required=True)
    p.add_argument("--support", type=float, default=0.01, help="fraction s")
    p.add_argument("--max-length", type=int, default=4, help="M")
    p.add_argument("--max-tables", type=int, default=3, help="T")
    p.add_argument(
        "--algorithm", choices=["one-way", "two-way", "bridge"], default="one-way"
    )
    p.add_argument("--bridge-length", type=int, default=2)
    p.add_argument(
        "--save", help="write mined templates to a reviewable SQL library"
    )
    p.add_argument(
        "--save-json",
        help="write mined templates to a versioned JSON library "
        "(TemplateLibrary.dump)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the MineResult as JSON"
    )
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("explain", help="explain an access / patient report")
    p.add_argument("--db", required=True)
    p.add_argument("--lid", type=int, help="log id to explain")
    p.add_argument("--patient", help="print this patient's access report")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--templates", help="reviewed SQL/JSON template library")
    _add_backend_args(p)
    p.add_argument(
        "--json", action="store_true", help="print the typed result as JSON"
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("audit", help="compliance summary + unexplained queue")
    p.add_argument("--db", required=True)
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--templates", help="reviewed SQL/JSON template library")
    _add_backend_args(p)
    p.add_argument(
        "--json", action="store_true", help="print the AuditReport as JSON"
    )
    p.add_argument(
        "--resumable",
        action="store_true",
        help="build the (identical) report as bounded, suspendable scan "
        "slices instead of one monolithic evaluation",
    )
    p.add_argument(
        "--page-rows",
        type=int,
        default=None,
        help="row budget per resumable-scan slice "
        "(default: AuditConfig.scan_page_rows)",
    )
    p.add_argument(
        "--quantum-ms",
        type=int,
        default=None,
        help="wall-clock budget per resumable-scan slice, milliseconds "
        "(default: row-bounded only)",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("evaluate", help="headline coverage measurement")
    p.add_argument("--db", required=True)
    p.add_argument("--templates", help="reviewed SQL/JSON template library")
    _add_backend_args(p)
    p.add_argument(
        "--json", action="store_true", help="print coverage as JSON"
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("serve", help="serve the v1 HTTP/NDJSON wire API")
    p.add_argument("--db", required=True, help="database directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listening port (0 binds an ephemeral one, printed on stdout)",
    )
    p.add_argument("--templates", help="reviewed SQL/JSON template library")
    _add_backend_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "reproduce", help="run every paper experiment into a markdown report"
    )
    p.add_argument("--out", required=True, help="output markdown path")
    p.add_argument(
        "--scale", choices=["tiny", "small", "benchmark"], default="small"
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--with-mining-performance",
        action="store_true",
        help="include the (slow) Figure 13 five-algorithm sweep",
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
