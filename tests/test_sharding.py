"""Unit tests for the patient-hash partitioner, the sharding config
knobs, the engine's shard-local entry points, and the CI benchmark
regression gate (``benchmarks/compare_bench.py``)."""

import json
import os
import sys

import pytest

from repro.api import AuditConfig
from repro.core import ExplanationEngine
from repro.db import partition_by_patient, shard_of

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
)
import benchlib  # noqa: E402
import compare_bench  # noqa: E402


# ----------------------------------------------------------------------
# shard_of
# ----------------------------------------------------------------------
def test_shard_of_is_stable_and_in_range():
    for n in (1, 2, 7, 16):
        for value in ("p00017", "p99999", 42, None, "Alice"):
            s = shard_of(value, n)
            assert 0 <= s < n
            assert s == shard_of(value, n)  # deterministic


def test_shard_of_single_shard_is_zero():
    assert shard_of("anything", 1) == 0


def test_shard_of_rejects_bad_counts():
    with pytest.raises(ValueError):
        shard_of("x", 0)


def test_shard_of_spreads_keys():
    hit = {shard_of(f"p{i:05d}", 7) for i in range(200)}
    assert hit == set(range(7))


# ----------------------------------------------------------------------
# partition_by_patient
# ----------------------------------------------------------------------
def test_partition_preserves_rows_and_shares_tables(fig3_db):
    shards = partition_by_patient(fig3_db, 2)
    assert len(shards) == 2
    all_rows = []
    for i, shard in enumerate(shards):
        # non-log tables are shared by reference
        assert shard.table("Appointments") is fig3_db.table("Appointments")
        assert shard.table("Doctor_Info") is fig3_db.table("Doctor_Info")
        # log is a private table, never the original
        assert shard.table("Log") is not fig3_db.table("Log")
        patient_i = shard.table("Log").schema.column_index("Patient")
        for row in shard.table("Log").rows():
            assert shard_of(row[patient_i], 2) == i
            all_rows.append(row)
    assert sorted(all_rows) == sorted(fig3_db.table("Log").rows())


def test_partition_single_shard_still_copies_log(fig3_db):
    (shard,) = partition_by_patient(fig3_db, 1)
    assert shard.table("Log") is not fig3_db.table("Log")
    assert shard.table("Log").rows() == fig3_db.table("Log").rows()


# ----------------------------------------------------------------------
# config knobs
# ----------------------------------------------------------------------
def test_config_sharding_defaults_round_trip():
    config = AuditConfig(shards=4)
    assert AuditConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("kwargs", [{"shards": 0}, {"shards": -1}])
def test_config_rejects_bad_sharding_knobs(kwargs):
    with pytest.raises(ValueError):
        AuditConfig(**kwargs)


# ----------------------------------------------------------------------
# engine shard-local entry points
# ----------------------------------------------------------------------
def test_engine_coverage_counts_and_support_counts(fig3_db, fig3_graph):
    from repro.audit.handcrafted import event_user_template

    template = event_user_template(fig3_graph, "Appointments", "Doctor")
    engine = ExplanationEngine(fig3_db, [template])
    total, unexplained = engine.coverage_counts()
    assert total == len(engine.all_lids())
    assert unexplained == len(engine.unexplained_lids())
    if total:
        assert engine.coverage() == (total - unexplained) / total
    (count,) = engine.support_counts([template])
    assert count == len(engine.explained_lids(template))


# ----------------------------------------------------------------------
# the benchmark-regression gate
# ----------------------------------------------------------------------
def _record(name, throughput, **overrides):
    record = benchlib.make_record(name, {"anything": 1}, throughput)
    record.update(overrides)
    return record


def _write(dirpath, record):
    path = os.path.join(dirpath, f"BENCH_{record['name']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def _gate(fresh, base, *extra):
    args = ["--fresh", str(fresh), "--baselines", str(base)]
    return compare_bench.main(args + list(extra))


def test_gate_passes_on_identical_records(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    record = _record("demo", {"x_speedup": 10.0})
    _write(base, record)
    _write(fresh, record)
    assert _gate(fresh, base) == 0


def test_gate_fails_on_degraded_throughput(tmp_path):
    """The acceptance demo: a synthetically degraded BENCH JSON (>30%
    down) must fail the gate."""
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    _write(base, _record("demo", {"x_speedup": 10.0}))
    _write(fresh, _record("demo", {"x_speedup": 6.9}))  # -31%
    assert _gate(fresh, base) == 1


def test_gate_tolerates_within_threshold_and_improvements(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    _write(base, _record("demo", {"x_speedup": 10.0, "y_speedup": 5.0}))
    _write(fresh, _record("demo", {"x_speedup": 7.5, "y_speedup": 50.0}))
    assert _gate(fresh, base) == 0


def test_gate_skips_missing_fresh_and_smoke_mismatch(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    _write(base, _record("notrun", {"x_speedup": 10.0}))
    _write(base, _record("other", {"x_speedup": 10.0}, smoke=True))
    _write(fresh, _record("other", {"x_speedup": 1.0}, smoke=False))
    assert _gate(fresh, base) == 0


def test_gate_fails_on_schema_version_mismatch(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    _write(base, _record("demo", {"x_speedup": 10.0}, schema_version=1))
    _write(fresh, _record("demo", {"x_speedup": 10.0}))
    assert _gate(fresh, base) == 1


def test_gate_skips_rates_across_machines_but_gates_ratios(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    baseline = _record("demo", {"ops_per_second": 1000.0, "x_speedup": 10.0})
    baseline["machine"] = dict(baseline["machine"], cpu_count=64)
    _write(base, baseline)
    # rate collapsed but machine differs -> skipped; ratio held -> pass
    _write(fresh, _record("demo", {"ops_per_second": 10.0, "x_speedup": 9.9}))
    assert _gate(fresh, base) == 0


def test_gate_gives_ratios_double_slack_across_machines(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    baseline = _record("demo", {"x_speedup": 10.0})
    baseline["machine"] = dict(baseline["machine"], cpu_count=64)
    _write(base, baseline)
    # -50% would fail same-machine (>30%) but passes cross-machine (<=60%)
    _write(fresh, _record("demo", {"x_speedup": 5.0}))
    assert _gate(fresh, base) == 0
    # beyond even the doubled slack still fails cross-machine
    _write(fresh, _record("demo", {"x_speedup": 3.0}))
    assert _gate(fresh, base) == 1


def test_gate_update_mode_copies_gated_records(tmp_path):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    fresh.mkdir()
    _write(fresh, _record("gated", {"x_speedup": 10.0}))
    _write(fresh, _record("ungated", {}))
    assert _gate(fresh, base, "--update") == 0
    assert (base / "BENCH_gated.json").exists()
    assert not (base / "BENCH_ungated.json").exists()


def test_gate_passes_with_no_baselines(tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert _gate(fresh, tmp_path / "none") == 0


def test_committed_baselines_are_valid_records():
    """Every committed baseline parses, carries the current schema
    version, and declares at least one gated metric."""
    baselines = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "baselines"
    )
    paths = [p for p in os.listdir(baselines) if p.endswith(".json")]
    assert paths, "no committed baselines"
    for name in paths:
        record = benchlib.load_record(os.path.join(baselines, name))
        assert record["schema_version"] == benchlib.BENCH_SCHEMA_VERSION
        assert benchlib.throughput_of(record), name
        assert record["machine"]["cpu_count"] >= 1
