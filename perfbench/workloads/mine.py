"""``mine_templates``: an administrator mines frequent explanation
templates and waits minutes, not milliseconds (paper Section 3, Fig. 13).

One cycle runs the three miners of the paper once each over the same
service; they must return identical template sets (the paper's claim).
A run long enough for several cycles reports each miner's fastest call;
the 12 s run of ``BENCHMARK.json`` has room for one.
Each miner issues about 3.9k distinct query shapes, which overflow the
1024-entry plan cache — the "larger than the program's own cache" case.
"""

from __future__ import annotations

import statistics

from repro.api import AuditConfig, MineRequest, open_service

from . import Run

ALGORITHMS = ("one-way", "two-way", "bridge")


def plan(seconds: float, smoke: bool) -> dict:
    request = {"support_fraction": 0.01, "max_length": 5, "max_tables": 4}
    if smoke:
        request = {"support_fraction": 0.05, "max_length": 3, "max_tables": 3}
    # one cycle of world_std takes about 13 s on the sizing machine
    return {
        "setups": 2 if smoke else 5,
        "cycles": max(1, round(seconds / 13)),
        "algorithms": list(ALGORITHMS),
        "request": request,
    }


def reference_plan(full: dict) -> dict:
    """The untraced half of a traced run: the first miner alone is the
    reference the tracing overhead is measured against."""
    return {**full, "setups": 1, "cycles": 1, "algorithms": list(ALGORITHMS[:1])}


def traced_plan(full: dict) -> dict:
    return {**full, "setups": 1, "cycles": 1}


def run(ctx: Run) -> None:
    plan_ = ctx.plan
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

    calls: list[float] = []
    cycles: list[float] = []
    best: dict[str, float] = {}  # algorithm -> its fastest call
    found: set[int] = set()
    signatures = None
    ctx.phase("mine")
    for _ in range(plan_["cycles"]):
        cycle = 0.0
        for algorithm in plan_["algorithms"]:
            request = MineRequest(
                algorithm=algorithm, bridge_length=2, **plan_["request"]
            )
            mined, seconds = ctx.timed("mine", service.mine, request)
            calls.append(seconds)
            best[algorithm] = min(seconds, best.get(algorithm, seconds))
            cycle += seconds
            # the three miners find the same templates
            if signatures is None:
                signatures = mined.signatures()
            ctx.check(mined.signatures() == signatures)
            found.add(len(mined.templates))
            for key in ("query_time", "queries_run", "skipped"):
                ctx.add_counter(f"support.{key}", mined.support_stats[key])
        cycles.append(cycle)
    ctx.check(len(found) == 1 and min(found) > 0)
    ctx.counters["templates_found"] = min(found)
    ctx.add_counter("mine_calls", len(calls))
    ctx.service_counters(service)
    service.close()
    ctx.add_counter("lifetimes", 1)

    ctx.named["setup_s"] = statistics.median(setups)
    ctx.named["mine_s"] = statistics.median(cycles)
    ctx.e2e.update(
        setup_s=ctx.named["setup_s"],
        # the unit of mining work is a support query: their number is
        # set by the schema graph, not by the size of the log
        work_per_s=ctx.counters["support.queries_run"]
        / len(cycles)
        / sum(best.values()),
        # the mean, not the median: with three calls the median is
        # whichever miner happens to land in the middle
        op_p50_ms=sum(best.values()) / len(best) * 1e3,
        op_tail_ms=max(best.values()) * 1e3,
    )
    ctx.notes.update(
        setup_samples=len(setups),
        mine_calls=len(calls),
        mine_call_seconds=calls,
        templates_found=min(found),
    )
