"""Figure 13: cumulative mining run time by explanation length.

Paper (days 1-6 first accesses, data sets A+B+groups, T=3, s=1%, M=5,
all Section 3.2.1 optimizations): Bridge-2 is the most efficient because
it pushes the start/end constraints down; one-way beats two-way because
two-way considers more initial edges; every algorithm returns the same
template set.

Substrate note: support is counted by relation composition
(``repro/core/support.py``), so a support query — for a partial path as
for a closed one — costs one join step: the parent chain's relation
joined with one edge, plus, for a partial path, one union over the
relation to weigh the log rows it reaches.  Run time therefore tracks
how many candidates an algorithm generates, deduplicates and counts, not
how deep their joins are (the five miners take 0.25-0.7 s here where the
per-candidate k-way join took 2.3-4.8 s).  At the paper's T=3 the
optimizer-skip optimization removes nearly every partial-path query,
which flattens the inter-algorithm differences — so this benchmark keeps
measuring the regime the paper's numbers come from: the candidate
frontier large relative to the explanation set (T=4) with the skip
optimization disabled, where every partial path an algorithm generates
is a support query.  The orderings asserted below rest on those query
counts (bridge-2 < one-way < two-way); wall-clock time follows them,
except that bridge-2 and one-way now finish within noise of each other
(merging frontier pairs costs about what 1.1k fewer queries save).
The skip ablation itself is measured in bench_ablation_optimizations.
"""

import pytest

from benchlib import is_smoke

# Paper-scale reproduction: the full benchmark hospital is the point, so
# under REPRO_BENCH_SMOKE=1 (the CI smoke runs) this module skips itself.
pytestmark = pytest.mark.skipif(
    is_smoke(), reason="paper-scale reproduction; skipped in smoke mode"
)

from repro.core import MiningConfig, SupportConfig
from repro.evalx import mining_performance

CONFIG = MiningConfig(
    support_fraction=0.01,
    max_length=5,
    max_tables=4,
    support=SupportConfig(use_skip=False),
)


def bench_fig13_mining_performance(benchmark, mining_study, report):
    results = benchmark.pedantic(
        lambda: mining_performance(mining_study, config=CONFIG),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"  mining input: {len(mining_study.mining_db().table('Log'))} "
        f"first accesses, {len(mining_study.mining_graph().edges)} edges; "
        f"T=4, s=1%, M=5, skip-optimization off (see module docstring)"
    ]
    lines.append(
        f"  {'algorithm':<10} " + " ".join(f"len{k:>8}" for k in range(1, 6))
        + f" {'queries':>9}"
    )
    for name, result in results.items():
        series = result.cumulative_time_by_length()
        cells = " ".join(f"{series.get(k, 0.0):10.2f}" for k in range(1, 6))
        lines.append(
            f"  {name:<10} {cells} {result.support_stats['queries_run']:9d}"
        )
    lines.append(
        "  paper: Bridge-2 fastest; one-way < two-way; same template sets"
    )
    report.section(
        "Figure 13 — cumulative mining run time by length (seconds)", lines
    )
    report.json(
        "fig13_mining_performance",
        {
            "config": {
                "support_fraction": CONFIG.support_fraction,
                "max_length": CONFIG.max_length,
                "max_tables": CONFIG.max_tables,
                "use_skip": CONFIG.support.use_skip,
            },
            "algorithms": {
                name: {
                    "cumulative_seconds_by_length": result.cumulative_time_by_length(),
                    "templates": len(result.templates),
                    "support_stats": result.support_stats,
                }
                for name, result in results.items()
            },
        },
    )

    sigs = [r.signatures() for r in results.values()]
    assert all(s == sigs[0] for s in sigs), "all algorithms must agree"

    total = {
        name: result.cumulative_time_by_length()[5]
        for name, result in results.items()
    }
    queries = {
        name: result.support_stats["queries_run"]
        for name, result in results.items()
    }
    # the paper's headline ordering, measured on wall-clock time
    assert total["one-way"] < total["two-way"]
    assert total["bridge-2"] < total["two-way"]
    assert total["bridge-2"] <= min(total["bridge-3"], total["bridge-4"])
    # and its mechanism, measured robustly on support-query counts
    assert queries["bridge-2"] < queries["one-way"] < queries["two-way"]
