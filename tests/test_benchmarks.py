"""The benches under ``benchmarks/`` run outside tier-1 (the paper figures
take minutes), but tier-1 still collects them: a ``benchlib`` or
``conftest`` break then fails here, not in the slow figure step.  The
record envelope every bench writes through ``benchlib`` is checked here
too."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_module_collects():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "--collect-only",
            "-q",
            "benchmarks",
            "-o",
            "python_files=bench_*.py",
            "-o",
            "python_functions=bench_*",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = {
        line.split("::")[0] for line in proc.stdout.splitlines() if "::" in line
    }
    benches = {
        f"benchmarks/{path.name}" for path in (ROOT / "benchmarks").glob("bench_*.py")
    }
    assert benches and collected == benches


def _load_benchlib():
    spec = importlib.util.spec_from_file_location(
        "benchlib", ROOT / "benchmarks" / "benchlib.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchlib = _load_benchlib()


def test_record_envelope_wraps_the_payload(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    record = benchlib.make_record("demo", {"rows": 7})
    assert sorted(record) == ["machine", "name", "results", "schema_version", "smoke"]
    assert record["schema_version"] == benchlib.BENCH_SCHEMA_VERSION
    assert record["name"] == "demo"
    assert record["results"] == {"rows": 7}
    machine = record["machine"]
    assert sorted(machine) == ["cpu_count", "git_sha", "platform", "python_version"]
    assert machine["cpu_count"] >= 1 and machine["git_sha"]


@pytest.mark.parametrize("value, smoke", [("1", True), ("0", False), (None, False)])
def test_record_smoke_flag_follows_the_environment(monkeypatch, value, smoke):
    if value is None:
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    else:
        monkeypatch.setenv("REPRO_BENCH_SMOKE", value)
    assert benchlib.is_smoke() is smoke
    assert benchlib.make_record("demo", {})["smoke"] is smoke


def test_write_record_round_trips_as_sorted_json(tmp_path):
    record = benchlib.make_record("demo", {"b": 2, "a": 1, "when": tmp_path})
    path = tmp_path / "BENCH_demo.json"
    assert benchlib.write_record(str(path), record) == str(path)
    text = path.read_text()
    assert text.endswith("}\n")
    loaded = json.loads(text)
    assert loaded["results"] == {"a": 1, "b": 2, "when": str(tmp_path)}
    assert list(loaded) == sorted(loaded)
