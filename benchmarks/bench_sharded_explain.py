"""Sharded scatter-gather vs single-shard whole-log explanation.

The explanation workload partitions perfectly by patient (every template
is anchored on the accessed patient, and log self-joins equate the
``Patient`` attribute), so N process-backed shards should explain the
log close to N times faster than one core can — this benchmark measures
exactly that:

* **single** — :class:`~repro.api.AuditService` on one shard: one
  engine, one ``explain_all`` semijoin pass over the whole log;
* **sharded** — the same class on ``shards = cpu_count`` (capped):
  each shard runs its own semijoin pass concurrently in a dedicated
  worker process; the partitions union in the parent.

Shard construction (partitioning, worker start-up, payload shipping) is
deliberately *outside* the measured region — it is a once-per-deployment
cost, while ``explain_all`` is the recurring audit pass.

Both paths must produce the identical explained/unexplained partition.
On hosts with >= 4 cores the sharded pass must win by >= 2x
(``MIN_SPEEDUP``); on smaller hosts (including 1-core CI containers)
the differential still runs but the speedup floor is not asserted —
there is nothing to parallelize onto.

Set ``REPRO_BENCH_SMOKE=1`` for a CI-sized run (same assertions,
smaller workload).
"""

from __future__ import annotations

import os
import time

from repro.api import AuditConfig, AuditService
from repro.audit import all_event_user_templates, repeat_access_template
from repro.ehr import SimulationConfig, build_careweb_graph, simulate

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Required advantage of the sharded scatter-gather pass on >= 4 cores.
MIN_SPEEDUP = 2.0
#: Cores needed before the speedup floor is asserted.
MIN_CORES = 4
#: Shard-count cap (beyond the core count, extra shards only add IPC).
MAX_SHARDS = 8


def _world():
    """(db factory, templates) — a fresh identical world per service so
    neither path warms the other's caches."""
    if _SMOKE:
        # Larger than the other smoke worlds on purpose: the measured
        # region must dwarf the constant scatter-gather overhead (~a few
        # ms of IPC) for the speedup floor to be meaningful on 4 cores.
        config = SimulationConfig.small(seed=7).scaled(
            daily_encounter_rate=0.12,
            n_teams=12,
            patients_per_team=(80, 130),
        )
    else:
        config = SimulationConfig.benchmark()

    def fresh_db():
        return simulate(config).db

    db = fresh_db()
    graph = build_careweb_graph(db)
    templates = all_event_user_templates(graph)
    templates.append(repeat_access_template(graph))
    return fresh_db, templates


def bench_sharded_explain_speedup(report):
    """Process-sharded explain_all must beat single-shard >= 2x on >= 4
    cores, with an identical explained/unexplained partition always."""
    cores = os.cpu_count() or 1
    shards = max(2, min(cores, MAX_SHARDS))
    fresh_db, templates = _world()

    # --- single-shard baseline (cold caches, measured region = pass) ---
    single = AuditService.open(
        fresh_db(),
        templates=templates,
        config=AuditConfig(eager_warm=False),
    )
    started = time.perf_counter()
    single_partition = single.explain_all()
    single_seconds = time.perf_counter() - started

    # --- sharded scatter-gather (workers up, caches cold) --------------
    sharded_config = AuditConfig(eager_warm=False, shards=shards)
    with AuditService.open(
        fresh_db(), templates=templates, config=sharded_config
    ) as sharded:
        started = time.perf_counter()
        sharded_partition = sharded.explain_all()
        sharded_seconds = time.perf_counter() - started
        per_shard_rows = [
            s["log_rows"] for s in sharded.stats()["per_shard"]
        ]

    total = len(single_partition)
    speedup = single_seconds / sharded_seconds
    asserted = cores >= MIN_CORES
    report.section(
        "Sharded explanation — scatter-gather vs single shard",
        [
            f"  accesses                  {total}",
            f"  templates                 {len(templates)}",
            f"  cores                     {cores}",
            f"  shards (process-backed)   {shards} "
            f"(rows/shard: {min(per_shard_rows)}..{max(per_shard_rows)})",
            f"  single-shard explain_all  {single_seconds:8.2f} s",
            f"  sharded explain_all       {sharded_seconds:8.2f} s",
            f"  speedup                   {speedup:8.2f}x "
            + (
                f"(floor {MIN_SPEEDUP}x)"
                if asserted
                else f"(floor not asserted: {cores} < {MIN_CORES} cores)"
            ),
        ],
    )
    report.json(
        "sharded_explain",
        {
            "config": {
                "smoke": _SMOKE,
                "accesses": total,
                "templates": len(templates),
                "cores": cores,
                "shards": shards,
                "executor_kind": "process",
                "per_shard_rows": per_shard_rows,
                "speedup_asserted": asserted,
            },
            "timings": {
                "single_seconds": single_seconds,
                "sharded_seconds": sharded_seconds,
            },
            "explained": len(single_partition.explained),
            "unexplained": len(single_partition.unexplained),
            "coverage": single_partition.coverage,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
        },
        throughput={
            "sharded_accesses_per_second": total / sharded_seconds,
        },
    )

    # differential: the partition must not depend on the execution layout
    assert sharded_partition.explained == single_partition.explained
    assert sharded_partition.unexplained == single_partition.unexplained
    assert (
        sharded_partition.explained | sharded_partition.unexplained
        == single_partition.explained | single_partition.unexplained
    )
    if asserted:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded path only {speedup:.2f}x faster on {cores} cores "
            f"(need {MIN_SPEEDUP}x)"
        )
