"""AuditConfig round-trips and the bounded LRU plan cache it governs."""

import dataclasses

import pytest

from repro.api import AuditConfig, AuditService
from repro.db.optimizer import PlanCache, QueryPlan


def _plan() -> QueryPlan:
    return QueryPlan(needed={}, pushable_idx={}, residual_idx=(), steps=())


class TestAuditConfig:
    def test_defaults_round_trip(self):
        config = AuditConfig()
        assert AuditConfig.from_dict(config.to_dict()) == config

    def test_non_default_round_trip(self):
        config = AuditConfig(
            log_table="Audit",
            log_id_attr="Id",
            plan_cache_size=7,
            alert_on_unexplained=False,
            scan_page_rows=64,
            backend="sqlite",
            db_path="audit.db",
            eager_warm=False,
        )
        data = config.to_dict()
        assert data["plan_cache_size"] == 7
        assert AuditConfig.from_dict(data) == config

    def test_to_dict_is_json_scalar_only(self):
        import json

        json.dumps(AuditConfig().to_dict())  # must not raise

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown AuditConfig fields"):
            AuditConfig.from_dict({"plan_cach_size": 10})

    def test_unknown_key_rejected_message_names_lenient_mode(self):
        with pytest.raises(ValueError, match="strict=False"):
            AuditConfig.from_dict({"plan_cach_size": 10})

    def test_lenient_mode_warns_and_ignores_unknown_keys(self):
        with pytest.warns(UserWarning, match="ignoring unknown AuditConfig"):
            config = AuditConfig.from_dict(
                {"scan_page_rows": 3, "from_the_future": True}, strict=False
            )
        assert config.scan_page_rows == 3

    def test_lenient_mode_still_validates_known_keys(self):
        with pytest.raises(ValueError):
            AuditConfig.from_dict({"scan_page_rows": 0}, strict=False)

    def test_lenient_mode_without_unknown_keys_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = AuditConfig.from_dict(
                AuditConfig().to_dict(), strict=False
            )
        assert config == AuditConfig()

    def test_replace_revalidates(self):
        config = AuditConfig()
        assert config.replace(plan_cache_size=2).plan_cache_size == 2
        with pytest.raises(ValueError):
            config.replace(plan_cache_size=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"log_table": ""},
            {"log_id_attr": ""},
            {"plan_cache_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AuditConfig(**kwargs)

    def test_has_no_placement_knobs(self):
        names = {f.name for f in dataclasses.fields(AuditConfig)}
        assert not names & {"shards", "executor_kind", "parallelism"}
        assert not hasattr(AuditConfig(), "effective_parallelism")
        with pytest.raises(TypeError):
            AuditConfig(shards=2)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            AuditConfig().plan_cache_size = 5


class TestPlanCacheLRU:
    def test_hit_refreshes_recency(self):
        cache = PlanCache(max_size=2)
        cache.store(("a",), _plan())
        cache.store(("b",), _plan())
        assert cache.lookup(("a",)) is not None  # "a" is now most recent
        cache.store(("c",), _plan())  # evicts LRU = "b", not "a"
        assert cache.lookup(("a",)) is not None
        assert cache.lookup(("b",)) is None

    def test_fifo_without_hits(self):
        cache = PlanCache(max_size=2)
        cache.store(("a",), _plan())
        cache.store(("b",), _plan())
        cache.store(("c",), _plan())
        assert cache.lookup(("a",)) is None
        assert len(cache) == 2

    def test_counters_and_stats(self):
        cache = PlanCache(max_size=4)
        cache.store(("k",), _plan())
        cache.lookup(("k",))
        cache.lookup(("missing",))
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_max_size_validated(self):
        with pytest.raises(ValueError):
            PlanCache(max_size=0)


class TestConfigDrivesService:
    def test_plan_cache_size_from_config(self, hospital_db):
        service = AuditService.open(
            hospital_db,
            templates=(),
            config=AuditConfig(plan_cache_size=5, eager_warm=False),
        )
        assert service.plan_cache.max_size == 5
        # private per-service cache, not the process-wide shared one
        from repro.db.optimizer import shared_plan_cache

        assert service.plan_cache is not shared_plan_cache()

    def test_stats_exposes_plan_cache_counters(self, hospital_db):
        from repro.audit.handcrafted import event_user_template
        from repro.core.graph import SchemaGraph

        graph = SchemaGraph(hospital_db)
        template = event_user_template(graph, "Appointments", "Doctor")
        service = AuditService.open(
            hospital_db, templates=[template], config=AuditConfig(eager_warm=False)
        )
        service.explain_batch([116])
        service.explain_batch([130])
        stats = service.stats()["plan_cache"]
        assert set(stats) == {"hits", "misses", "size"}
        assert stats["misses"] >= 1
        assert stats["hits"] >= 1  # repeated semijoin shape re-used

    def test_semijoin_threshold_reaches_engine(self, hospital_db):
        """Batched ingest switches strategy at the engine's
        SEMIJOIN_BATCH_MIN: a batch one row short of it is maintained by
        prepared probes, which never consult the plan cache; a batch of
        exactly that size by semijoins planned through the service's."""
        from repro.audit.handcrafted import event_user_template
        from repro.core.engine import SEMIJOIN_BATCH_MIN
        from repro.core.graph import SchemaGraph

        graph = SchemaGraph(hospital_db)
        template = event_user_template(graph, "Appointments", "Doctor")
        service = AuditService.open(hospital_db, templates=[template])
        cache = service.plan_cache

        def lookups_during(n: int) -> int:
            before = cache.hits + cache.misses
            service.ingest_many([("Dave", "Alice", 50 + i) for i in range(n)])
            return cache.hits + cache.misses - before

        assert lookups_during(SEMIJOIN_BATCH_MIN - 1) == 0
        assert lookups_during(SEMIJOIN_BATCH_MIN) >= 1


#: ``AuditConfig().to_dict()`` as stored by a build whose config still
#: carried the seven evaluation-path toggles, the three shard knobs and
#: the serving-fleet width.
STORED_21_KEY_CONFIG = {
    "log_table": "Log",
    "log_id_attr": "Lid",
    "use_batch_path": True,
    "semijoin_batch_min": 8,
    "predicate_pushdown": True,
    "distinct_reduction": True,
    "plan_cache_size": 1024,
    "incremental_ingest": True,
    "batch_ingest": None,
    "alert_on_unexplained": True,
    "shards": 1,
    "executor_kind": "thread",
    "parallelism": None,
    "vectorized": True,
    "workers": None,
    "scan_page_rows": 512,
    "scan_quantum_seconds": None,
    "backend": "memory",
    "db_path": None,
    "max_table_rows": None,
    "eager_warm": True,
}
REMOVED_TOGGLES = [
    "batch_ingest",
    "distinct_reduction",
    "executor_kind",
    "incremental_ingest",
    "parallelism",
    "predicate_pushdown",
    "semijoin_batch_min",
    "shards",
    "use_batch_path",
    "vectorized",
    "workers",
]


class TestStoredConfigCompatibility:
    def test_lenient_load_drops_the_removed_toggles_with_one_warning(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = AuditConfig.from_dict(STORED_21_KEY_CONFIG, strict=False)
        assert config == AuditConfig()
        assert len(caught) == 1
        assert str(REMOVED_TOGGLES) in str(caught[0].message)

    def test_strict_load_names_the_removed_toggles(self):
        with pytest.raises(ValueError) as raised:
            AuditConfig.from_dict(STORED_21_KEY_CONFIG)
        assert str(REMOVED_TOGGLES) in str(raised.value)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("shards", 2),
            ("executor_kind", "process"),
            ("parallelism", 2),
            ("workers", 2),
        ],
    )
    def test_a_removed_shard_knob_alone_is_named_or_dropped(self, key, value):
        stored = {"scan_page_rows": 64, key: value}
        with pytest.raises(ValueError, match=key):
            AuditConfig.from_dict(stored)
        with pytest.warns(UserWarning, match=key):
            config = AuditConfig.from_dict(stored, strict=False)
        assert config == AuditConfig(scan_page_rows=64)

    def test_lenient_load_of_a_sharded_config_opens_one_engine(
        self, hospital_db
    ):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = AuditConfig.from_dict({"shards": 4}, strict=False)
        assert config == AuditConfig()
        assert len(caught) == 1 and "shards" in str(caught[0].message)
        with AuditService.open(hospital_db, templates=(), config=config) as service:
            assert service.db is hospital_db
            stats = service.stats()
        assert tuple(stats) == (
            "log_rows",
            "templates",
            "queries_executed",
            "plan_cache",
            "lock",
            "ingest",
            "config",
        )
        assert stats["log_rows"] == len(hospital_db.table("Log"))
        assert stats["config"] == AuditConfig().to_dict()
