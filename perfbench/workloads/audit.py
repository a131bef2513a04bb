"""``audit_batch`` and ``audit_sqlite``: the compliance officer's whole-log
audit from a CSV extract, fully cold each repetition.

One *lifetime* is ``open_service(csv_dir)`` (set-up: CSV load, or CSV ->
SQLite conversion into a fresh file) -> ``explain_all()`` -> ``report()``
-> a block of in-process point ``explain(lid)`` calls -> ``close()``.  The
point calls size the engine's point path with no wire tier in the way;
they follow every pass, not only the last, so that they are spread over
the whole run and a slow stretch of the host cannot cover them all.
"""

from __future__ import annotations

import os
import statistics

from repro.api import AuditConfig, open_service

from .. import stats
from ..worlds import lids_digest
from . import Run

#: Point explains answered before a block's timing starts (lazy index
#: builds).
POINT_WARMUP = 20


def plan(seconds: float, smoke: bool, backend: str) -> dict:
    if smoke:
        return {"backend": backend, "passes": 2, "points": 40}
    # a pass is super-linear in log size on SQLite (README), where a point
    # explain costs 25 ms, not 1 ms: same passes, fewer point calls
    return {
        "backend": backend,
        "passes": max(3, round(seconds / 4)),
        "points": round((20 if backend == "sqlite" else 150) * seconds),
    }


def reference_plan(full: dict) -> dict:
    # half, rounded up: the first pass of a process pays for growing the
    # heap, and a one-pass reference would be all first pass
    passes = (full["passes"] + 1) // 2
    return {**full, "passes": passes, "points": full["points"] // 2}


traced_plan = reference_plan


def run(ctx: Run) -> None:
    plan_ = ctx.plan
    sqlite = plan_["backend"] == "sqlite"
    oracle = ctx.oracle
    setups: list[float] = []
    passes: list[float] = []
    point: list[float] = []  # ms
    service = None
    db_path = None
    for lifetime in range(plan_["passes"]):
        if service is not None:
            ctx.service_counters(service)
            service.close()
        ctx.settle()
        ctx.phase("setup")
        if sqlite:
            # a fresh file each time: an existing one would be reopened
            # as-is, skipping the conversion that set-up is here to time
            run_tag = "traced" if ctx.tracer is not None else "plain"
            db_path = os.path.join(ctx.workdir, f"audit-{run_tag}-{lifetime}.db")
            config = AuditConfig(backend="sqlite", db_path=db_path, eager_warm=False)
        else:
            config = AuditConfig(eager_warm=False)
        service, seconds = ctx.timed(
            "setup", open_service, ctx.world_dir, config=config
        )
        setups.append(seconds)
        ctx.phase("pass")

        def one_pass(service=service):
            return service.explain_all(), service.report()

        (partition, report), seconds = ctx.timed("pass", one_pass)
        passes.append(seconds)
        # explained + unexplained tile the log, and the partition is the
        # memory-backend one the generator computed
        ctx.check(
            len(partition.explained) + len(partition.unexplained)
            == oracle["log_rows"]
            and not partition.explained & partition.unexplained
        )
        ctx.check(lids_digest(partition.unexplained) == oracle["unexplained_sha256"])
        ctx.check(
            report.total == oracle["log_rows"]
            and report.unexplained_count == len(oracle["unexplained"])
        )

        ctx.phase("point")
        lids = ctx.rng.choices(
            range(1, oracle["log_rows"] + 1),
            k=POINT_WARMUP + plan_["points"] // plan_["passes"],
        )
        for i, lid in enumerate(lids):
            if i < POINT_WARMUP:
                result = service.explain(lid)
            else:
                result, seconds = ctx.timed("explain", service.explain, lid)
                point.append(seconds * 1e3)
            ctx.check(result.suspicious == (lid in oracle["unexplained"]))

    if sqlite:
        ctx.named["store_bytes_per_row"] = (
            os.path.getsize(db_path) / oracle["total_rows"]
        )
        ctx.counters["store_bytes_per_row"] = ctx.named["store_bytes_per_row"]
    ctx.service_counters(service)
    service.close()
    ctx.add_counter("lifetimes", len(passes))

    ctx.named["setup_s"] = statistics.median(setups)
    ctx.named["audit_accesses_per_s"] = oracle["log_rows"] / statistics.median(passes)
    ctx.named["explain_p50_ms"] = statistics.median(point)
    ctx.e2e.update(
        setup_s=ctx.named["setup_s"],
        work_per_s=stats.quiet_rate(passes, [oracle["log_rows"]] * len(passes)),
        op_p50_ms=stats.quiet_percentile(point, 50.0),
        op_tail_ms=stats.quiet_percentile(point, stats.TAIL_Q),
    )
    ctx.notes.update(
        setup_samples=len(setups),
        pass_samples=len(passes),
        pass_seconds=passes,
        explain_samples=len(point),
        explain_whole_phase_tail=stats.tail(point),
    )
