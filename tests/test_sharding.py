"""Unit tests for the patient-hash partitioner, the sharding config
knobs, and the engine's shard-local entry points."""

import pytest

from repro.api import AuditConfig
from repro.core import ExplanationEngine
from repro.db import partition_by_patient, shard_of


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
