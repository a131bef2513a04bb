"""repro-lint over the repository's own tree: rule cost and cache win.

The eight rules (including the flow-sensitive RL006-RL008, which build a
project call graph and run dataflow fixpoints) must stay cheap enough to
run on every commit, and the incremental result cache must actually pay:
a warm run answers from content hashes without parsing a single file.

Two gated metrics:

* ``lint_files_per_second`` — cold full-tree throughput, all rules
  (machine-dependent; gated against the committed baseline on
  comparable hardware);
* ``lint_cache_warm_speedup`` — cold time over warm-cache time on the
  same tree (same-run ratio, portable across machines; a cache-keying
  regression that forces re-analysis drags it toward 1).  A
  conservative floor is asserted inline.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro.analysis import run_lint

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Timed repetitions; the fastest is kept.
REPS = 1 if _SMOKE else 3
#: A warm hit skips parsing and every rule — anything under this factor
#: means the cache is being missed or the key is thrashing.
MIN_WARM_SPEEDUP = 2.0


def bench_lint_tree(report):
    """Cold full-tree lint vs warm cache hit, identical verdicts."""
    cold_seconds = float("inf")
    cold = None
    for _ in range(REPS):
        started = time.perf_counter()
        cold = run_lint(ROOT)
        cold_seconds = min(cold_seconds, time.perf_counter() - started)
    # the acceptance bar rides along: the real tree lints clean
    assert cold.diagnostics == ()

    cache_dir = tempfile.mkdtemp(prefix="repro-lint-bench-")
    warm = None
    try:
        run_lint(ROOT, cache_dir=cache_dir)  # populate
        warm_seconds = float("inf")
        for _ in range(REPS):
            started = time.perf_counter()
            warm = run_lint(ROOT, cache_dir=cache_dir)
            warm_seconds = min(warm_seconds, time.perf_counter() - started)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # identical verdict cold vs cached, or the speedup is meaningless
    assert warm == cold

    files = cold.files_scanned
    rate = files / cold_seconds if cold_seconds else 0.0
    speedup = cold_seconds / warm_seconds if warm_seconds else 1.0

    report.section(
        "repro-lint full tree: cold rules vs warm result cache",
        [
            f"  files scanned           {files:8d}  "
            f"(rules: {', '.join(cold.rules)})",
            f"  cold lint               {cold_seconds:8.3f} s "
            f"({rate:.0f} files/s)",
            f"  warm cache hit          {warm_seconds:8.3f} s",
            f"  speedup (cold/warm)     {speedup:8.1f}x  "
            f"(floor {MIN_WARM_SPEEDUP}x)",
        ],
    )
    report.json(
        "lint_tree",
        {
            "config": {
                "smoke": _SMOKE,
                "files": files,
                "rules": list(cold.rules),
                "reps": REPS,
                "min_warm_speedup": MIN_WARM_SPEEDUP,
            },
            "timings": {
                "cold_seconds": cold_seconds,
                "warm_seconds": warm_seconds,
            },
        },
        throughput={
            "lint_files_per_second": rate,
            "lint_cache_warm_speedup": speedup,
        },
    )

    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache hit ran at only {speedup:.1f}x the cold lint "
        f"(floor {MIN_WARM_SPEEDUP}x) — is the cache being missed?"
    )
