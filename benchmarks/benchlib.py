"""Shared machine-readable benchmark record schema.

Every ``benchmarks/bench_*.py`` emits its results through one writer
(:func:`make_record` via ``PaperReport.json`` in ``conftest.py``), so
records from different runs and machines read alike:

* ``schema_version`` — bump when the envelope shape changes;
* ``machine`` — git SHA, CPU count, Python version, platform — enough to
  judge whether two records are comparable;
* ``smoke`` — whether the run used the CI-sized workload
  (``REPRO_BENCH_SMOKE=1``);
* ``results`` — the benchmark's own payload, unconstrained.

These records are artifacts, not a gate: the performance gate is
``perfbench`` (``BENCHMARK.json``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess

#: Bump when the envelope shape changes.
BENCH_SCHEMA_VERSION = 3


def git_sha() -> str:
    """The repo's short HEAD SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_environment() -> dict:
    """The machine-metadata block every record carries."""
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count() or 1,
        "python_version": platform.python_version(),
        "platform": platform.platform(),
    }


def is_smoke() -> bool:
    """Whether this run uses the CI-sized workload."""
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


def make_record(name: str, payload: dict) -> dict:
    """The shared envelope around one benchmark's payload."""
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "smoke": is_smoke(),
        "machine": bench_environment(),
        "results": payload,
    }


def write_record(path: str, record: dict) -> str:
    """Write one record as pretty, key-sorted JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
