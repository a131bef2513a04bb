"""A ``--smoke`` run (tiny world) of every workload, both modes: answers
are checked against the oracle, and the names emitted are exactly those
in BENCHMARK.json."""

import json
import os
import subprocess
import sys

import pytest

from perfbench import run, spec, worlds
from perfbench.run import HERE, ROOT


def args_for(workload, workdir, trace=0, seed=5):
    return run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--smoke", "--workdir", str(workdir)]
    )


def test_generator_is_deterministic_in_the_seed(tmp_path):
    prints = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / name
        workdir.mkdir()
        prints.append(run.role_generate(args_for("audit_batch", workdir, seed=seed)))
    assert prints[0] == prints[1]
    assert prints[0] != prints[2]
    fingerprint = prints[0]["fingerprint"]
    assert set(fingerprint) == {"rows", "log_sha256"}
    assert fingerprint["rows"]["Log"] > 500 and len(fingerprint["log_sha256"]) == 64
    # same bytes on disk, and the oracle partitions the whole log
    for file in ("world/Log.csv", "oracle.json"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    oracle = worlds.load_oracle(str(tmp_path / "a"))
    assert 0 < len(oracle["unexplained"]) < oracle["log_rows"]


def test_ingest_inputs_hold_the_stream_out_of_the_log(tmp_path):
    args = args_for("ingest_stream", tmp_path)
    run.role_generate(args)
    stream = worlds.load_stream(str(tmp_path))
    oracle = worlds.load_oracle(str(tmp_path))
    with open(tmp_path / "world" / "Log.csv") as fh:
        on_disk = sum(1 for _ in fh) - 1  # header
    assert len(stream) == 60 + 2 * 20
    assert on_disk + len(stream) == oracle["log_rows"]
    assert [row[0] for row in stream] == list(range(on_disk + 1, oracle["log_rows"] + 1))


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_run_emits_exactly_the_benchmark_names(workload, tmp_path):
    run.role_generate(args_for(workload, tmp_path))
    plain = run.role_measure(args_for(workload, tmp_path, trace=0))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0
    assert list(plain["metrics"]) == [m.name for m in spec.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    expected_named = {n.name for n in spec.NAMED if workload in n.workloads}
    assert expected_named <= set(plain["named"])
    assert plain["named"]["failed_share"] == 0.0

    traced = run.role_measure(args_for(workload, tmp_path, trace=1))
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m.name for m in spec.PER_LAYER]
    units = {m.name: m.unit for m in spec.PER_LAYER}
    assert all(m["unit"] == units[name] for name, m in traced["metrics"].items())
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    # the spans account for the traced wall time of the operations
    assert 0.85 <= values["trace.coverage_ratio"] <= 1.0001
    # layers a workload bypasses report zero
    bypassed = {
        "audit_batch": ["db.dialect.compiles", "server.app.handler_self_us"],
        "audit_sqlite": ["db.executor.queries", "db.table.index_builds"],
        "serve_point": ["db.dialect.compiles", "api.locks.write_hold_us"],
        "ingest_stream": ["server.http.parse_us", "core.mining.mine_self_s"],
        "mine_templates": ["client.request_self_us", "db.drivers.sqlite.statements"],
    }[workload]
    assert all(values[name] == 0 for name in bypassed)
    loaded = {
        "audit_batch": ["db.csvio.load_s", "db.executor.semijoin_s"],
        "audit_sqlite": ["db.sqlbackend.load_s", "db.drivers.sqlite.statements"],
        "serve_point": ["server.app.pool_hop_us", "serve.untraced_gap_us"],
        "ingest_stream": ["api.locks.write_hold_us", "core.engine.notify_appended_us"],
        "mine_templates": ["core.support.queries_run", "db.executor.count_distinct_s"],
    }[workload]
    assert all(values[name] > 0 for name in loaded)
    assert values["db.executor.queries"] in (0, 11)  # the 11 standard templates
    # the wrappers are gone again
    from perfbench import layers

    assert layers._installed == []


def test_contract_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "audit_sqlite",
         "--seed", "9", "--seconds", "0.5", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m.name for m in spec.END_TO_END}
    detail = json.loads(lines[0])
    assert set(detail["machine"]) == {"nproc", "python", "platform", "git_sha"}
    # temp inputs are removed
    assert not [n for n in os.listdir(os.path.join(HERE, "out")) if n.startswith("audit_sqlite-")]


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
