"""Batch semijoin vs per-access point queries for bulk explanation.

The paper's headline workload — explain *every* access in a hospital
log — admits two strategies:

* **per-access loop** (the PR 1 point path): for each log id, pin
  ``L.Lid = ?`` into each template's support query until one explains it
  — O(accesses × templates) point queries;
* **batch semijoin** (:meth:`repro.core.engine.ExplanationEngine.
  explain_batch`): evaluate each template ONCE with its log variable
  restricted to the whole batch (``L.Lid IN batch``) and partition
  explained/unexplained in one pass — O(templates) queries total.

Both must produce identical explained/unexplained sets (asserted on the
measured per-access prefix); the batch path must win by >= 5x at 20k
accesses.  The per-access loop runs a prefix and is extrapolated
linearly — conservative in its favor, since point-query cost is flat
while the extrapolation charges it nothing for cache pressure.

Set ``REPRO_BENCH_SMOKE=1`` for a CI-sized run (same assertions, smaller
workload).
"""

from __future__ import annotations

import os
import time

from repro.audit import all_event_user_templates, repeat_access_template
from repro.core import ExplanationEngine
from repro.db import AttrRef, Condition, ConjunctiveQuery, Literal
from repro.ehr import SimulationConfig, build_careweb_graph, simulate

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Accesses explained by the batch path.
N_ACCESSES = 2_000 if _SMOKE else 20_000
#: Accesses the per-access loop actually runs (then extrapolated).
POINT_N = 300 if _SMOKE else 1_500
#: Required advantage of the batch semijoin path.
MIN_SPEEDUP = 5.0


def _world():
    """(db, templates, batch of log ids) for one run."""
    if _SMOKE:
        config = SimulationConfig.small(seed=7).scaled(daily_encounter_rate=0.12)
    else:
        config = SimulationConfig.benchmark()
    sim = simulate(config)
    graph = build_careweb_graph(sim.db)
    templates = all_event_user_templates(graph)
    templates.append(repeat_access_template(graph))
    lids = sorted(sim.db.table("Log").distinct_values("Lid"))
    assert len(lids) >= N_ACCESSES, (
        f"simulation too small: {len(lids)} log rows < {N_ACCESSES}"
    )
    return sim.db, templates, lids[:N_ACCESSES]


def _pin(query: ConjunctiveQuery, lid) -> ConjunctiveQuery:
    """The per-access point query: the template restricted to one log id."""
    pin = Condition(AttrRef("L", "Lid"), "=", Literal(lid))
    return ConjunctiveQuery.build(
        query.tuple_vars, query.conditions + (pin,), query.projection, query.distinct
    )


def bench_batch_explain_speedup(report):
    """explain_batch must beat the per-access point loop >= 5x at 20k."""
    db, templates, lids = _world()

    # --- batch semijoin path (cold engine) -----------------------------
    engine_batch = ExplanationEngine(db, templates)
    started = time.perf_counter()
    batch = engine_batch.explain_batch(lids)
    batch_seconds = time.perf_counter() - started
    batch_queries = engine_batch.executor.queries_executed

    # --- per-access point loop (cold engine, measured prefix) ----------
    engine_point = ExplanationEngine(db, templates)
    support_queries = [t.support_query() for t in engine_point.templates]
    target = AttrRef("L", "Lid")
    point_explained: set = set()
    prefix = lids[:POINT_N]
    started = time.perf_counter()
    for lid in prefix:
        for query in support_queries:
            if engine_point.executor.distinct_values(_pin(query, lid), target):
                point_explained.add(lid)
                break
    point_measured = time.perf_counter() - started
    point_queries = engine_point.executor.queries_executed
    point_projected = point_measured * (len(lids) / len(prefix))

    speedup = point_projected / batch_seconds
    report.section(
        "Batch explanation — semijoin vs per-access point loop",
        [
            f"  accesses                  {len(lids)}",
            f"  templates                 {len(engine_batch.templates)}",
            f"  batch semijoin            {batch_seconds:8.2f} s "
            f"({batch_queries} queries, {len(batch.explained)} explained, "
            f"{len(batch.unexplained)} unexplained)",
            f"  per-access measured       {point_measured:8.2f} s "
            f"for {len(prefix)} accesses ({point_queries} queries)",
            f"  per-access projected      {point_projected:8.2f} s "
            f"for {len(lids)} accesses",
            f"  speedup                   {speedup:8.1f}x (floor {MIN_SPEEDUP}x)",
        ],
    )
    report.json(
        "batch_explain",
        {
            "config": {
                "smoke": _SMOKE,
                "accesses": len(lids),
                "point_prefix": len(prefix),
                "templates": len(engine_batch.templates),
            },
            "timings": {
                "batch_seconds": batch_seconds,
                "point_measured_seconds": point_measured,
                "point_projected_seconds": point_projected,
            },
            "queries": {"batch": batch_queries, "point_prefix": point_queries},
            "explained": len(batch.explained),
            "unexplained": len(batch.unexplained),
            "coverage": batch.coverage,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
        },
        throughput={
            "batch_vs_point_speedup": speedup,
            "explained_per_second": len(lids) / batch_seconds,
        },
    )

    # differential: identical explained sets on the measured prefix
    assert point_explained == batch.explained & set(prefix)
    # partition sanity: explained/unexplained tile the batch exactly
    assert batch.explained | batch.unexplained == set(lids)
    assert not batch.explained & batch.unexplained
    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.1f}x faster (need {MIN_SPEEDUP}x)"
    )
