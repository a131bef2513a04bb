"""Streaming ingest benchmark: one batched ``ingest_many`` maintenance pass.

Replays a slice of the synthetic hospital's own traffic through
:class:`~repro.audit.streaming.AccessMonitor` on top of a pre-seeded log
as ONE ``ingest_many`` batch: the log table patches its indexes and
distinct projections in place, the engine maintains every template with
one semijoin per (template, log variable), and each access is explained
and alerted on.  Per-access ingest is measured end to end by perfbench's
``ingest_stream`` workload.

Set ``REPRO_BENCH_SMOKE=1`` for a CI-sized run (same assertions, smaller
workload).
"""

from __future__ import annotations

import os
import time

from repro.audit import all_event_user_templates, repeat_access_template
from repro.core import ExplanationEngine
from repro.ehr import SimulationConfig, build_careweb_graph, simulate

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Rows pre-seeded into the log before streaming starts.
SEED_ROWS = 2_000 if _SMOKE else 20_000
#: Accesses streamed through the monitor.
STREAM_N = 300 if _SMOKE else 5_000


def _prepared(config):
    """(engine-ready db, seed-truncated log, held-out stream) for one run.

    The simulation's log is chronological, so truncating to the first
    ``SEED_ROWS`` rows and replaying the next ``STREAM_N`` as the live
    stream reproduces a monitor catching up with real traffic.
    """
    sim = simulate(config)
    log = sim.db.table("Log")
    all_rows = list(log.rows())
    assert len(all_rows) >= SEED_ROWS + STREAM_N, (
        f"simulation too small: {len(all_rows)} log rows < "
        f"{SEED_ROWS + STREAM_N}"
    )
    date_i = log.schema.column_index("Date")
    user_i = log.schema.column_index("User")
    patient_i = log.schema.column_index("Patient")
    log.clear()
    log.insert_many(all_rows[:SEED_ROWS])
    stream = [
        (r[user_i], r[patient_i], r[date_i])
        for r in all_rows[SEED_ROWS : SEED_ROWS + STREAM_N]
    ]
    graph = build_careweb_graph(sim.db)
    templates = all_event_user_templates(graph)
    templates.append(repeat_access_template(graph))
    return sim.db, templates, stream


def _config():
    if _SMOKE:
        return SimulationConfig.small(seed=7).scaled(daily_encounter_rate=0.12)
    return SimulationConfig.benchmark()


def bench_streaming_batch_ingest(report):
    """Batched ingest_many: one maintenance pass, same alert counters."""
    db, templates, stream = _prepared(_config())
    engine = ExplanationEngine(db, templates)
    from repro.audit import AccessMonitor

    monitor = AccessMonitor(engine)
    started = time.perf_counter()
    out = monitor.ingest_many(stream)
    elapsed = time.perf_counter() - started
    queries = monitor.stats()["total_queries"]
    report.section(
        "Streaming ingest — batched ingest_many",
        [
            f"  batch size                {len(out)}",
            f"  total time                {elapsed:8.2f} s "
            f"({elapsed / len(out) * 1e3:.2f} ms/access)",
            f"  queries                   {queries} "
            f"(~{queries / len(out):.1f} per access)",
            f"  alerts                    {monitor.alerts}",
        ],
    )
    report.json(
        "streaming_batch_ingest",
        {
            "config": {"smoke": _SMOKE, "batch_size": len(out)},
            "timings": {"total_seconds": elapsed},
            "queries": queries,
            "alerts": monitor.alerts,
        },
        throughput={"accesses_per_second": len(out) / elapsed},
    )
    assert len(out) == len(stream)
    assert monitor.seen == len(stream)
