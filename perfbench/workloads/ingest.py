"""``ingest_stream``: a live monitor appends accesses as they happen and
must flag each one before the next arrives, while reviewers keep reading.

The generator holds the last ``rows + batch_rows`` accesses of the log
out of the database directory; they are replayed in time order through
one caller thread, closed loop:

* phase A — per-row ``ingest``; after every 10th one ``explain`` of a
  random lid already in the log, after every 500th one
  ``report(limit=20)``.  Reads and writes interleave on one thread so
  the numbers measure cache patching and re-warm, not the interpreter's
  5 ms thread switch interval;
* phase B — the rest as ``ingest_many`` batches.
"""

from __future__ import annotations

import statistics

from repro.api import AuditConfig, open_service

from .. import stats
from ..worlds import load_stream
from . import Run

READ_EVERY = 10
REPORT_EVERY = 500
REPORT_LIMIT = 20


def plan(seconds: float, smoke: bool) -> dict:
    if smoke:
        return {"setups": 2, "rows": 60, "batches": 2, "batch_size": 20}
    return {
        "setups": 5,
        "rows": round(250 * seconds),
        "batches": round(5 * seconds / 3),
        "batch_size": 200,
    }


def stream_rows(plan_: dict) -> int:
    """Rows the generator must hold out of the log for this plan."""
    return plan_["rows"] + plan_["batches"] * plan_["batch_size"]


def reference_plan(full: dict) -> dict:
    # the held-out stream is sized for the full plan; the halves replay a
    # prefix of it
    return {
        **full,
        "setups": 1,
        "rows": full["rows"] // 2,
        "batches": max(1, full["batches"] // 2),
    }


traced_plan = reference_plan


def run(ctx: Run) -> None:
    plan_ = ctx.plan
    stream = load_stream(ctx.workdir)
    base_rows = stream[0][0] - 1  # lids are 1..n in time order
    setups: list[float] = []
    service = None
    ctx.phase("setup")
    for _ in range(plan_["setups"]):
        if service is not None:
            service.close()
        ctx.settle()
        service, seconds = ctx.timed(
            "setup", open_service, ctx.world_dir, config=AuditConfig()
        )
        setups.append(seconds)

    flags: dict[int, bool] = {}
    ingests: list[float] = []
    reads: list[float] = []
    ctx.phase("rows")
    for i, (lid, date, user, patient) in enumerate(stream[: plan_["rows"]], start=1):
        result, seconds = ctx.timed("ingest", service.ingest, user, patient, date)
        ingests.append(seconds)
        ctx.check(result.lid == lid)
        flags[lid] = result.suspicious
        if i % READ_EVERY == 0:
            _, seconds = ctx.timed(
                "explain", service.explain, ctx.rng.randint(1, base_rows + i)
            )
            reads.append(seconds)
        if i % REPORT_EVERY == 0:
            ctx.timed("report", service.report, limit=REPORT_LIMIT)
    monitor = service.stats()["ingest"]
    ctx.counters["delta_queries_per_ingest"] = monitor["avg_ingest_queries"]

    batches: list[float] = []
    sizes: list[int] = []
    ctx.phase("batches")
    cursor = plan_["rows"]
    for _ in range(plan_["batches"]):
        rows = stream[cursor : cursor + plan_["batch_size"]]
        cursor += len(rows)
        results, seconds = ctx.timed(
            "ingest_many", service.ingest_many, [(u, p, d) for _, d, u, p in rows]
        )
        batches.append(seconds)
        sizes.append(len(rows))
        ctx.check([r.lid for r in results] == [row[0] for row in rows])
        flags.update((r.lid, r.suspicious) for r in results)

    # the delta-maintained state equals a fresh partition of the final
    # log, and every flag raised at ingest time agrees with it (a prefix
    # replay flags against a prefix of the log, so only the full replay
    # can be compared access by access)
    ctx.phase("oracle")
    if cursor == len(stream):
        expected = ctx.oracle["unexplained"]
        ctx.check(service.unexplained_lids() == expected)
        ctx.check(all(flag == (lid in expected) for lid, flag in flags.items()))
    ctx.check(len(service.engine.all_lids()) == base_rows + cursor)
    ctx.service_counters(service)
    service.close()
    ctx.add_counter("lifetimes", 1)

    ingests_ms = [s * 1e3 for s in ingests]
    ctx.named["setup_s"] = statistics.median(setups)
    ctx.named["ingest_accesses_per_s"] = stats.median_slice_rate(ingests)
    ctx.named["ingest_p50_ms"] = statistics.median(ingests_ms)
    ctx.named["ingest_p99_ms"] = stats.percentile(ingests_ms, 99.0)
    ctx.named["ingest_batch_accesses_per_s"] = stats.median_slice_rate(
        batches, slices=len(batches), weights=sizes
    )
    ctx.named["explain_p50_ms"] = statistics.median(reads) * 1e3
    ctx.e2e.update(
        setup_s=ctx.named["setup_s"],
        work_per_s=stats.quiet_rate(ingests),
        op_p50_ms=stats.quiet_percentile(ingests_ms, 50.0),
        op_tail_ms=stats.quiet_percentile(ingests_ms, stats.TAIL_Q),
    )
    ctx.notes.update(
        setup_samples=len(setups),
        ingest_samples=len(ingests),
        ingest_whole_phase_tail=stats.tail(ingests_ms),
        explain_samples=len(reads),
        batch_samples=len(batches),
        flags_compared=len(flags) if cursor == len(stream) else 0,
    )
