"""The AuditService facade: lifecycle, typed requests, engine-level equivalence,
alert policy, and the threaded reader/writer smoke test."""

import threading

import pytest

from repro.api import (
    AuditConfig,
    AuditService,
    ExplainRequest,
    MineRequest,
    ReviewStatus,
    TemplateLibrary,
)
from repro.audit.handcrafted import (
    event_group_template,
    event_user_template,
    repeat_access_template,
)
from repro.core.engine import ExplanationEngine
from repro.core.graph import SchemaGraph
from repro.db import ColumnType, Database, TableSchema


def _build_hospital() -> Database:
    """A private copy of the conftest hospital (the threaded test needs
    two identical databases: one concurrent, one serial reference)."""
    db = Database("hospital")
    log = db.create_table(
        TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.INT), "User", "Patient"],
            primary_key=["Lid"],
        )
    )
    appts = db.create_table(
        TableSchema.build(
            "Appointments", ["Patient", "Doctor", ("Date", ColumnType.INT)]
        )
    )
    groups = db.create_table(
        TableSchema.build(
            "Groups",
            [("Group_Depth", ColumnType.INT), ("Group_id", ColumnType.INT), "User"],
        )
    )
    log.insert_many(
        [
            (100, 1, "Nick", "Alice"),
            (116, 2, "Dave", "Alice"),
            (127, 3, "Ron", "Alice"),
            (130, 9, "Dave", "Alice"),
            (900, 4, "Eve", "Bob"),
        ]
    )
    appts.insert_many([("Alice", "Dave", 1), ("Bob", "Sam", 2)])
    groups.insert_many(
        [
            (1, 10, "Dave"),
            (1, 10, "Nick"),
            (1, 10, "Ron"),
            (1, 11, "Sam"),
            (1, 12, "Eve"),
        ]
    )
    return db


def _graph(db: Database) -> SchemaGraph:
    from repro.core.edges import SchemaAttr

    graph = SchemaGraph(db)
    graph.add_relationship(
        SchemaAttr("Log", "Patient"), SchemaAttr("Appointments", "Patient")
    )
    graph.add_relationship(
        SchemaAttr("Appointments", "Doctor"), SchemaAttr("Log", "User")
    )
    graph.add_relationship(
        SchemaAttr("Appointments", "Doctor"), SchemaAttr("Groups", "User")
    )
    graph.add_relationship(
        SchemaAttr("Groups", "User"), SchemaAttr("Log", "User")
    )
    graph.allow_self_join("Groups", "Group_id")
    graph.allow_self_join("Log", "Patient")
    graph.allow_self_join("Log", "User")
    return graph


def _templates(db: Database):
    graph = _graph(db)
    return [
        event_user_template(graph, "Appointments", "Doctor"),
        repeat_access_template(graph),
        event_group_template(graph, "Appointments", "Doctor", depth=1),
    ]


@pytest.fixture
def service(hospital_db):
    return AuditService.open(hospital_db, templates=_templates(hospital_db))


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_open_from_database(self, service, hospital_db):
        assert service.db is hospital_db
        assert len(service.templates()) == 3

    def test_open_from_csv_directory(self, hospital_db, tmp_path):
        from repro.api import save_database

        path = str(tmp_path / "hospital")
        save_database(hospital_db, path)
        reopened = AuditService.open(path, templates=())
        assert reopened.stats()["log_rows"] == 5

    def test_context_manager_closes(self, hospital_db):
        with AuditService.open(hospital_db, templates=()) as service:
            service.coverage()
        with pytest.raises(RuntimeError, match="closed"):
            service.coverage()
        with pytest.raises(RuntimeError, match="closed"):
            service.ingest("Dave", "Alice", 50)

    def test_open_with_library_prefers_approved(self, hospital_db):
        templates = _templates(hospital_db)
        library = TemplateLibrary()
        library.add(templates[0], ReviewStatus.APPROVED)
        library.add(templates[1], ReviewStatus.SUGGESTED)
        service = AuditService.open(hospital_db, templates=library)
        assert len(service.templates()) == 1

    def test_open_with_unreviewed_library_falls_back_to_suggested(
        self, hospital_db
    ):
        library = TemplateLibrary()
        for t in _templates(hospital_db):
            library.add(t, ReviewStatus.SUGGESTED)
        service = AuditService.open(hospital_db, templates=library)
        assert len(service.templates()) == 3

    def test_open_with_library_path(self, hospital_db, tmp_path):
        library = TemplateLibrary()
        for t in _templates(hospital_db):
            library.add(t, ReviewStatus.APPROVED)
        path = str(tmp_path / "lib.json")
        library.dump(path)
        service = AuditService.open(hospital_db, templates=path)
        assert len(service.templates()) == 3

    def test_save_then_reopen_templates(self, service, hospital_db, tmp_path):
        path = str(tmp_path / "prod.json")
        service.save_templates(path)
        reopened = AuditService.open(hospital_db, templates=path)
        assert {t.signature() for t in reopened.templates()} == {
            t.signature() for t in service.templates()
        }


# ----------------------------------------------------------------------
# typed requests / responses
# ----------------------------------------------------------------------
class TestExplain:
    def test_bare_lid_and_request_agree(self, service):
        bare = service.explain(116)
        typed = service.explain(ExplainRequest(lid=116))
        assert bare == typed
        assert bare.explained and not bare.suspicious

    def test_limit(self, service):
        assert len(service.explain(ExplainRequest(lid=116, limit=1)).explanations) == 1

    def test_unexplained_access(self, service):
        result = service.explain(900)
        assert result.suspicious
        assert result.to_dict() == {
            "lid": 900,
            "explained": False,
            "explanations": [],
        }

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ExplainRequest(lid=None)
        with pytest.raises(ValueError):
            ExplainRequest(lid=1, limit=0)

    def test_to_dict_is_json_ready(self, service):
        import json

        json.dumps(service.explain(116).to_dict())


class TestReports:
    def test_report_queue_and_risk(self, service):
        report = service.report()
        assert report.total == 5
        assert [e.lid for e in report.queue] == [900]
        assert report.user_risk == (("Eve", 1),)
        assert report.explained_count == 4
        assert report.coverage == pytest.approx(0.8)
        assert "review queue" in report.summary()

    def test_report_limit_caps_queue_not_risk(self, service):
        report = service.report(limit=0)
        assert report.queue == ()
        assert report.unexplained_count == 1
        assert report.user_risk == (("Eve", 1),)

    def test_patient_report(self, service):
        report = service.patient_report("Alice")
        assert [e.lid for e in report.entries] == [100, 116, 127, 130]
        assert not any(e.suspicious for e in report.entries)
        rendered = service.render_patient_report("Alice", limit=2)
        assert "Access report for patient Alice" in rendered
        assert "116" in rendered and "130" not in rendered

    def test_stats_surface(self, service):
        stats = service.stats()
        assert stats["log_rows"] == 5
        assert stats["templates"] == 3
        assert stats["plan_cache"]["size"] >= 1
        assert stats["lock"]["read_acquisitions"] >= 1
        assert stats["ingest"] is None  # nothing streamed yet
        assert stats["config"] == AuditConfig().to_dict()


# ----------------------------------------------------------------------
# writers: ingest / mine / add_templates
# ----------------------------------------------------------------------
class TestIngest:
    def test_ingest_explained(self, service):
        result = service.ingest("Dave", "Alice", 50)
        assert result.explained and not result.alerted
        assert result.lid == 901  # next free integer id
        assert "appointment" in result.headline().lower() or result.explanations

    def test_ingest_unexplained_alerts(self, service):
        seen = []
        service.on_alert(seen.append)
        result = service.ingest("Mallory", "Bob", 51)
        assert result.suspicious and result.alerted
        assert seen == [result]
        assert service.stats()["ingest"]["alerts"] == 1

    def test_alert_policy_off(self, hospital_db):
        service = AuditService.open(
            hospital_db,
            templates=_templates(hospital_db),
            config=AuditConfig(alert_on_unexplained=False),
        )
        seen = []
        service.on_alert(seen.append)
        result = service.ingest("Mallory", "Bob", 51)
        assert result.suspicious and not result.alerted
        assert seen == []
        # unexplained accesses still land in the review queue
        assert result.lid in {e.lid for e in service.report().queue}

    def test_ingest_many_matches_serial(self):
        accesses = [
            ("Dave", "Alice", 50),
            ("Mallory", "Bob", 51),
            ("Dave", "Alice", 52),
        ]
        batch_svc = AuditService.open(
            _build_hospital(), templates=_templates(_build_hospital())
        )
        serial_svc = AuditService.open(
            _build_hospital(), templates=_templates(_build_hospital())
        )
        batched = batch_svc.ingest_many(accesses)
        serial = [serial_svc.ingest(u, p, d) for u, p, d in accesses]
        assert [r.to_dict() for r in batched] == [r.to_dict() for r in serial]
        assert batch_svc.report().to_dict() == serial_svc.report().to_dict()

    def test_monitor_stats_before_any_ingest(self, hospital_db):
        """stats() must not divide by zero on an empty stream."""
        from repro.audit.streaming import AccessMonitor

        monitor = AccessMonitor(ExplanationEngine(hospital_db))
        assert monitor.alert_rate() == 0.0
        stats = monitor.stats()
        assert stats["seen"] == 0
        assert stats["alert_rate"] == 0.0
        assert stats["avg_ingest_queries"] == 0.0
        assert stats["avg_ingest_seconds"] == 0.0


class TestMine:
    def test_mine_and_register(self, hospital_db):
        service = AuditService.open(
            hospital_db, templates=(), config=AuditConfig(eager_warm=False)
        )
        result = service.mine(
            MineRequest(support_fraction=0.2, max_length=2, register=True),
            graph=_graph(hospital_db),
        )
        assert result.templates, "expected at least the appointment template"
        assert len(service.templates()) == len(result.templates)
        assert result.to_dict()["algorithm"] == "one-way"

    def test_mine_request_validation(self):
        with pytest.raises(ValueError):
            MineRequest(algorithm="deep-learning")
        with pytest.raises(ValueError):
            MineRequest(support_fraction=0.0)

    def test_mined_library_round_trip(self, hospital_db, tmp_path):
        service = AuditService.open(
            hospital_db, templates=(), config=AuditConfig(eager_warm=False)
        )
        result = service.mine(
            MineRequest(support_fraction=0.2, max_length=4),
            graph=_graph(hospital_db),
        )
        path = str(tmp_path / "mined.json")
        result.library().dump(path)
        loaded = TemplateLibrary.load(path)
        assert {e.template.signature() for e in loaded} == result.signatures()


# ----------------------------------------------------------------------
# placements: one shard is the caller's database; more shards refuse the
# whole-database writers
# ----------------------------------------------------------------------
class TestPlacement:
    def test_one_shard_serves_the_callers_database(self):
        """(No pool and no partition copy: ``test_explain_dispatch``.)"""
        db = _build_hospital()
        service = AuditService.open(
            db, templates=(), config=AuditConfig(eager_warm=False)
        )
        assert service.db is db
        assert service.engine.db is service.db
        assert service.explain(116, wait=False) == service.explain(116)
        mined = service.mine(
            MineRequest(support_fraction=0.2, max_length=2, register=True),
            graph=_graph(db),
        )
        assert len(service.templates()) == len(mined.templates) > 0
        groups = service.build_groups(max_depth=2)
        assert groups.group_rows == len(db.table("Groups")) > 0
        assert service.stats()["executor_kind"] == "inline"

    def test_sharded_refuses_whole_database_writers(self):
        from repro.api import UnsupportedOperationError

        config = AuditConfig(shards=2)
        with AuditService.open(
            _build_hospital(), templates=_templates(_build_hospital()), config=config
        ) as service:
            with pytest.raises(UnsupportedOperationError) as mined:
                service.mine(MineRequest())
            with pytest.raises(UnsupportedOperationError) as grouped:
                service.build_groups()
            assert mined.value.http_status == grouped.value.http_status == 501
            assert service.explain(116, wait=False) is None
            assert service.explain(116).explained


# ----------------------------------------------------------------------
# after the deprecation shims: the old top-level names are gone, the
# engine-level classes they pointed at still agree with the service
# ----------------------------------------------------------------------
class TestDeprecationShims:
    def test_unknown_attribute_still_raises(self):
        import repro

        for name in ("NoSuchThing", "ExplanationEngine", "OneWayMiner"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_old_entry_points_match_service(self, hospital_db):
        """The engine and the service agree on every explanation."""
        templates = _templates(hospital_db)
        engine = ExplanationEngine(hospital_db, templates)
        service = AuditService.open(hospital_db, templates=templates)

        for lid in (100, 116, 127, 130, 900):
            assert [i.render() for i in engine.explain(lid)] == [
                v.text for v in service.explain(lid).explanations
            ]


# ----------------------------------------------------------------------
# threading
# ----------------------------------------------------------------------
class TestThreadedSmoke:
    N_READERS = 4
    READS_PER_THREAD = 25
    #: Streamed accesses all post-date the seed log, so explanations of
    #: pre-existing accesses are append-insensitive (the repeat-access
    #: template only looks backward in time).
    WRITES = [
        ("Dave", "Alice", 50),
        ("Mallory", "Bob", 51),
        ("Dave", "Alice", 52),
        ("Eve", "Bob", 53),
        ("Nick", "Alice", 54),
        ("Sam", "Bob", 55),
    ]
    READ_LIDS = (100, 116, 127, 130, 900)

    def test_concurrent_readers_with_writer_match_serial(self):
        service = AuditService.open(
            _build_hospital(), templates=_templates(_build_hospital())
        )
        errors: list[BaseException] = []
        observations: list[tuple[int, tuple[str, ...]]] = []
        obs_lock = threading.Lock()
        start = threading.Barrier(self.N_READERS + 1)

        def reader() -> None:
            try:
                start.wait()
                for i in range(self.READS_PER_THREAD):
                    lid = self.READ_LIDS[i % len(self.READ_LIDS)]
                    result = service.explain(lid)
                    with obs_lock:
                        observations.append(
                            (lid, tuple(v.text for v in result.explanations))
                        )
            except BaseException as exc:  # noqa: BLE001 - surface to main
                errors.append(exc)

        def writer() -> None:
            try:
                start.wait()
                for i, (user, patient, date) in enumerate(self.WRITES):
                    if i % 2 == 0:
                        service.ingest(user, patient, date)
                    else:
                        service.ingest_many([(user, patient, date)])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=reader) for _ in range(self.N_READERS)
        ] + [threading.Thread(target=writer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert len(observations) == self.N_READERS * self.READS_PER_THREAD

        # the serial reference: same writes, no concurrency
        serial = AuditService.open(
            _build_hospital(), templates=_templates(_build_hospital())
        )
        for user, patient, date in self.WRITES:
            serial.ingest(user, patient, date)

        expected = {
            lid: tuple(v.text for v in serial.explain(lid).explanations)
            for lid in self.READ_LIDS
        }
        for lid, texts in observations:
            assert texts == expected[lid], f"reader diverged on lid {lid}"
        assert service.report().to_dict() == serial.report().to_dict()
        assert service.coverage() == serial.coverage()
        stats = service.stats()
        assert stats["lock"]["write_acquisitions"] >= len(self.WRITES)
        assert stats["ingest"]["seen"] == len(self.WRITES)
