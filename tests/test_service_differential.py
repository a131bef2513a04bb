"""Differential suite: the service must be indistinguishable from a
bare engine over the same log.

On both storage backends, warmed at open or cold, `AuditService` must
return results
byte-identical (via ``to_dict()`` / set equality) to :class:`Reference`
— an in-memory ``ExplanationEngine`` and ``AccessMonitor`` over the same
database, rendered through the same message dataclasses — for
explain_all, coverage, reports, per-access explanation, mining support,
and stay identical after incremental ``ingest_many``/``ingest`` with
service-assigned log ids.  Batches the log rejects, empty batches and
a monitor that fails mid-batch leave the service in step with its log.
"""

import datetime as dt
from collections import Counter

import pytest

from repro.api import (
    AccessView,
    AuditConfig,
    AuditReport,
    AuditService,
    ExplainResult,
    ExplanationView,
    IngestResult,
    MineRequest,
    PatientReport,
    UnexplainedView,
    UnsupportedOperationError,
    open_service,
    open_sql_database,
    standard_templates,
)
from repro.api.service import format_patient_report
from repro.audit.streaming import AccessMonitor
from repro.core.engine import SEMIJOIN_BATCH_MIN, ExplanationEngine
from repro.ehr import SimulationConfig, simulate

#: Every service shape: both storage backends, warmed inside ``open()``
#: (the default) or cold (readers and ingest build what they need).
SHAPES = {
    "memory-warm": {"backend": "memory"},
    "memory-cold": {"backend": "memory", "eager_warm": False},
    "sqlite-warm": {"backend": "sqlite"},
    "sqlite-cold": {"backend": "sqlite", "eager_warm": False},
}


def _fresh_db():
    return simulate(SimulationConfig.tiny(seed=7)).db


_CLOCK_START = dt.datetime(2026, 7, 1)


def _ticking_clock(start=_CLOCK_START):
    state = {"n": 0}

    def clock():
        state["n"] += 1
        return start + dt.timedelta(minutes=state["n"])

    return clock


def _sample_patients(db, k=3):
    log = db.table("Log")
    patient_i = log.schema.column_index("Patient")
    seen = []
    for row in log.rows():
        if row[patient_i] not in seen:
            seen.append(row[patient_i])
        if len(seen) >= k:
            break
    return seen


class Reference:
    """The oracle: a bare in-memory engine and monitor, rendered through
    the message dataclasses the service returns — no service code in the
    loop."""

    def __init__(self, clock=None):
        self.db = _fresh_db()
        self.engine = ExplanationEngine(self.db, standard_templates(self.db))
        self.monitor = AccessMonitor(self.engine, clock=clock)

    def _log(self):
        log = self.db.table("Log")
        columns = ("Lid", "Date", "User", "Patient")
        return log, [log.schema.column_index(c) for c in columns]

    def log_rows(self):
        return len(self.db.table("Log"))

    def coverage(self):
        return self.engine.coverage()

    def unexplained_lids(self):
        return frozenset(self.engine.unexplained_lids())

    def summary(self):
        return self.report().summary()

    def explain_all(self):
        return self.engine.explain_all()

    def explain_batch(self, lids):
        return self.engine.explain_batch(lids)

    def support_many(self, templates):
        return self.engine.support_counts(templates)

    def templates(self):
        return self.engine.templates

    def explain(self, lid):
        return ExplainResult(
            lid=lid,
            explanations=tuple(
                ExplanationView.from_instance(i) for i in self.engine.explain(lid)
            ),
        )

    def patient_report(self, patient):
        log, (lid_i, date_i, user_i, _) = self._log()
        rows = sorted(
            log.lookup("Patient", patient), key=lambda r: (r[date_i], r[lid_i])
        )
        return PatientReport(
            patient=patient,
            entries=tuple(
                AccessView(
                    lid=r[lid_i],
                    date=r[date_i],
                    user=r[user_i],
                    explanations=tuple(
                        i.render() for i in self.engine.explain(r[lid_i])
                    ),
                )
                for r in rows
            ),
        )

    def render_patient_report(self, patient):
        return format_patient_report(self.patient_report(patient))

    def report(self, limit=None):
        log, (lid_i, date_i, user_i, patient_i) = self._log()
        unexplained = self.engine.unexplained_lids()
        rows = sorted(
            (r for r in log.rows() if r[lid_i] in unexplained),
            key=lambda r: (r[date_i], r[lid_i]),
        )
        counts = Counter(r[user_i] for r in rows)
        return AuditReport(
            total=len(self.engine.all_lids()),
            unexplained_count=len(rows),
            coverage=self.engine.coverage(),
            queue=tuple(
                UnexplainedView(
                    lid=r[lid_i], date=r[date_i], user=r[user_i], patient=r[patient_i]
                )
                for r in rows[:limit]
            ),
            user_risk=tuple(
                sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
            ),
        )

    def ingest_many(self, batch):
        return [
            IngestResult.from_streamed(a, a.suspicious)
            for a in self.monitor.ingest_many(batch)
        ]

    def ingest(self, user, patient):
        access = self.monitor.ingest(user, patient)
        return IngestResult.from_streamed(access, access.suspicious)


@pytest.fixture(scope="module")
def reference():
    """The oracle over the shared read-only world."""
    return Reference()


def _open(shape, **kwargs):
    return open_service(_fresh_db(), config=AuditConfig(**SHAPES[shape]), **kwargs)


@pytest.mark.parametrize("shape", SHAPES)
def test_reads_identical(reference, shape):
    with _open(shape) as service:
        # aggregate views
        assert service.coverage() == reference.coverage()
        assert service.unexplained_lids() == reference.unexplained_lids()
        assert service.summary() == reference.summary()
        # whole-log partition
        ours = service.explain_all()
        theirs = reference.explain_all()
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        # full compliance artifact, including queue order and user risk
        assert service.report().to_dict() == reference.report().to_dict()
        assert service.report(limit=5).to_dict() == reference.report(limit=5).to_dict()
        # patient portal screens
        for patient in _sample_patients(reference.db):
            assert (
                service.patient_report(patient).to_dict()
                == reference.patient_report(patient).to_dict()
            )
            ours_text = service.render_patient_report(patient)
            assert ours_text == reference.render_patient_report(patient)
        # per-access explanation (present and absent ids)
        for lid in (1, 2, 3, 10**9):
            assert service.explain(lid).to_dict() == reference.explain(lid).to_dict()
        # batch partition with an id the log does not hold
        some = sorted(reference.unexplained_lids())[:5] + [10**9]
        ours = service.explain_batch(some)
        theirs = reference.explain_batch(some)
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        # mining support counts
        templates = list(reference.templates())[:4]
        assert service.support_many(templates) == reference.support_many(templates)
        # template sets agree
        assert service.templates() == reference.templates()


@pytest.mark.parametrize("shape", SHAPES)
def test_ingest_identical(shape):
    """Ids, dates, explanations and alert flags match the memory
    reference, for a batch and for a single access after it."""
    base = Reference(clock=_ticking_clock())
    with _open(shape, clock=_ticking_clock()) as service:
        patients = _sample_patients(base.db, k=3) + ["brand-new-patient"]
        batch = [
            (f"u{i % 2:04d}", patients[i % len(patients)], None)
            for i in range(12)
        ]
        ours = [r.to_dict() for r in service.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs
        one_ours = service.ingest("u0001", patients[0]).to_dict()
        one_theirs = base.ingest("u0001", patients[0]).to_dict()
        assert one_ours == one_theirs
        # post-ingest aggregates still agree
        assert service.coverage() == base.coverage()
        assert service.report().to_dict() == base.report().to_dict()
        assert service.unexplained_lids() == base.unexplained_lids()


@pytest.mark.parametrize("shape", SHAPES)
def test_batch_semijoin_ingest_identical(shape):
    """A batch of 4 x SEMIJOIN_BATCH_MIN rows takes the batch-semijoin
    maintenance strategy and still matches the reference."""
    base = Reference(clock=_ticking_clock())
    with _open(shape, clock=_ticking_clock()) as service:
        patients = _sample_patients(base.db, k=4)
        batch = [
            ("u0001", patients[i % 4], None) for i in range(4 * SEMIJOIN_BATCH_MIN)
        ]
        ours = [r.to_dict() for r in service.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs
        assert service.coverage() == base.coverage()


@pytest.mark.parametrize("shape", SHAPES)
def test_schema_rejected_batch_lands_nothing_and_burns_no_lid(shape):
    """Row 3 of 4 is one the log schema rejects: the service checks the
    whole batch before appending it, so no row lands, no alert fires for
    the unexplained row before it, and no id is spent."""
    from repro.db.errors import IntegrityError

    with _open(shape) as service:
        alerts = []
        service.on_alert(alerts.append)
        before = service.stats()["log_rows"]
        unexplained = service.unexplained_lids()
        patients = _sample_patients(_fresh_db(), k=2)
        when = dt.datetime(2026, 7, 1)
        batch = [
            ("u0001", patients[0], when),
            ("intruder", patients[1], when + dt.timedelta(minutes=1)),
            ("u0002", patients[0], "not-a-date"),
            ("u0003", patients[1], when + dt.timedelta(minutes=2)),
        ]
        with pytest.raises(IntegrityError, match="Log.Date"):
            service.ingest_many(batch)
        assert service.stats()["log_rows"] == before
        assert service.report().total == before
        assert service.unexplained_lids() == unexplained
        assert service.stats()["ingest"]["seen"] == 0
        assert alerts == []
        # the next ingest gets the id the rejected batch would have begun at
        later = service.ingest("intruder", patients[1], when)
        assert later.lid == before + 1
        assert later.alerted and alerts == [later]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize(
    "bad_at, bad_field",
    [(0, "Date"), (3, "Date"), (1, "User")],
    ids=["first-date", "last-date", "second-user"],
)
def test_rejected_row_anywhere_in_batch_lands_nothing(bad_at, bad_field, shape):
    """Wherever the bad row sits and whichever column it breaks, the
    service rejects the batch before the log sees a row, and a good
    batch after it starts at the next unspent id."""
    from repro.db.errors import IntegrityError

    with _open(shape) as service:
        before = service.stats()["log_rows"]
        patients = _sample_patients(_fresh_db(), k=2)
        when = dt.datetime(2026, 7, 1)
        batch = [
            (f"u000{i + 1}", patients[i % 2], when + dt.timedelta(minutes=i))
            for i in range(4)
        ]
        user, patient, date = batch[bad_at]
        batch[bad_at] = (
            (user, patient, "not-a-date") if bad_field == "Date" else (5, patient, date)
        )
        with pytest.raises(IntegrityError, match=f"Log.{bad_field}"):
            service.ingest_many(batch)
        assert service.stats()["log_rows"] == before
        assert service.stats()["ingest"]["seen"] == 0
        good = [(f"u000{i + 1}", patients[i % 2], when) for i in range(4)]
        results = service.ingest_many(good)
        assert [r.lid for r in results] == [before + 1 + i for i in range(4)]
        assert service.stats()["log_rows"] == before + 4


@pytest.mark.parametrize("shape", SHAPES)
def test_empty_batch_lands_nothing_and_spends_no_lid(shape):
    with _open(shape) as service:
        before = service.stats()["log_rows"]
        assert service.ingest_many([]) == []
        assert service.stats()["log_rows"] == before
        assert service.stats()["ingest"] is None
        patient = _sample_patients(_fresh_db(), k=1)[0]
        assert service.ingest("u0001", patient, None).lid == before + 1


def test_monitor_failed_mid_batch_keeps_engine_in_step_with_log():
    """A bare monitor appends as far as the log accepts: rows 1-2 of a
    batch whose row 3 is rejected stay in the table, so the engine must
    hear of them — coverage, the lid universe and the unexplained queue
    all count them — before the error propagates."""
    from repro.db.errors import IntegrityError

    reference = Reference()
    before = reference.log_rows()
    patient = _sample_patients(reference.db, k=1)[0]
    when = dt.datetime(2026, 7, 1)
    batch = [
        ("u0001", patient, when),
        ("intruder", patient, when + dt.timedelta(minutes=1)),
        ("u0002", patient, "not-a-date"),
        ("u0003", patient, when + dt.timedelta(minutes=2)),
    ]
    with pytest.raises(IntegrityError):
        reference.monitor.ingest_many(batch)
    assert reference.log_rows() == before + 2
    partition = reference.explain_all()
    assert len(partition) == len(reference.engine.all_lids()) == before + 2
    assert before + 1 in partition.explained | partition.unexplained
    assert before + 2 in reference.unexplained_lids()  # the intruder
    assert reference.monitor.seen == 2


@pytest.mark.parametrize("shape", SHAPES)
def test_service_monitor_failed_mid_batch_keeps_engine_in_step(
    shape, monkeypatch
):
    """The same failure reached through the service: with its schema
    check bypassed, the log rejects row 3 mid-append on either backend;
    the two rows before it land, are audited, and count in every read."""
    import repro.api.service as service_mod
    from repro.db.errors import IntegrityError

    monkeypatch.setattr(service_mod, "check_rows", lambda schema, rows: (rows, None))
    with _open(shape) as service:
        before = service.stats()["log_rows"]
        patient = _sample_patients(_fresh_db(), k=1)[0]
        when = dt.datetime(2026, 7, 1)
        batch = [
            ("u0001", patient, when),
            ("intruder", patient, when + dt.timedelta(minutes=1)),
            ("u0002", patient, "not-a-date"),
            ("u0003", patient, when + dt.timedelta(minutes=2)),
        ]
        with pytest.raises(IntegrityError):
            service.ingest_many(batch)
        assert service.stats()["log_rows"] == before + 2
        assert service.report().total == before + 2
        assert before + 2 in service.unexplained_lids()  # the intruder
        assert service.stats()["ingest"]["seen"] == 2
        # the failed batch spent its four ids
        assert service.ingest("u0001", patient, when).lid == before + 5


def test_capacity_error_mid_batch_keeps_engine_in_step_with_log():
    """The memory backend's row cap fires between two rows of a batch."""
    from repro.db.errors import CapacityError

    db = _fresh_db()
    log = db.table("Log")
    before = len(log)
    log.max_rows = before + 2
    service = AuditService.open(db)
    patient = _sample_patients(db, k=1)[0]
    with pytest.raises(CapacityError):
        service.ingest_many([("intruder", patient, None)] * 4)
    assert len(log) == before + 2
    assert len(service.engine.all_lids()) == service.report().total == before + 2
    assert {before + 1, before + 2} & service.unexplained_lids() == {before + 1}
    ingest = service.stats()["ingest"]
    # the failed batch still spent its queries and its time
    assert ingest["seen"] == 2
    assert ingest["total_queries"] == 2 * 12
    assert ingest["last_ingest_seconds"] > 0


@pytest.mark.parametrize("shape", SHAPES)
def test_alerts_fire_in_ingest_order(shape):
    events = []
    with _open(shape) as service:
        service.on_alert(lambda r: events.append(r.lid))
        results = service.ingest_many(
            [("nobody", f"ghost-patient-{i}", None) for i in range(4)]
        )
        alerted = [r.lid for r in results if r.alerted]
        assert events == alerted
        assert len(events) == 4  # ghost patients have no explanations


@pytest.mark.parametrize("shape", SHAPES)
def test_add_templates_registers_and_rewarms(reference, shape):
    with open_service(
        _fresh_db(), templates=(), config=AuditConfig(**SHAPES[shape])
    ) as service:
        before = service.coverage()
        assert before == 0.0
        offered = service.add_templates(list(reference.templates()))
        assert offered == len(reference.templates())
        assert service.coverage() == reference.coverage()


def test_lifecycle_and_unsupported_writers_on_sqlite():
    service = _open("sqlite-warm")
    # typed UnsupportedOperationError (a NotImplementedError subclass so
    # pre-wire callers keep working), carrying a remediation hint
    with pytest.raises(NotImplementedError) as excinfo:
        service.mine(MineRequest())
    assert isinstance(excinfo.value, UnsupportedOperationError)
    assert excinfo.value.code == "unsupported_operation"
    assert excinfo.value.http_status == 501
    assert "SQLite backend" in str(excinfo.value)
    assert "add_templates" in excinfo.value.hint
    with pytest.raises(UnsupportedOperationError) as excinfo:
        service.build_groups()
    assert "SQLite backend" in str(excinfo.value)
    assert "AuditService.open" in excinfo.value.hint
    service.close()
    service.close()  # idempotent
    with pytest.raises(RuntimeError):
        service.coverage()


def test_open_service_opens_the_one_service_class():
    db = _fresh_db()
    with open_service(db) as service:
        assert type(service) is AuditService
        assert service.db is db
        assert service.engine.db is db


def test_close_closes_every_database_the_service_opened(tmp_path, monkeypatch):
    """The SQLite database the service converted its source into closes
    with the service, while a database the caller passed in stays open."""
    from repro.db.drivers.sqlite import SqliteDriver

    closes = []
    close = SqliteDriver.close

    def recording_close(self):
        stats = self.snapshot_stats()
        closes.append(f"{stats['path']} connected={stats['connected']}")
        close(self)

    monkeypatch.setattr(SqliteDriver, "close", recording_close)
    db_path = str(tmp_path / "audit.db")
    config = AuditConfig(backend="sqlite", db_path=db_path)
    service = open_service(_fresh_db(), config=config)
    assert closes == []
    service.close()
    assert closes == [f"{db_path} connected=True"]

    given = open_sql_database(_fresh_db(), None)
    with AuditService.open(given, config=AuditConfig(backend="sqlite")):
        pass
    assert given.driver.snapshot_stats()["connected"] is True
    given.close()


#: The top-level ``stats()`` keys, on either backend.
STATS_KEYS = (
    "log_rows",
    "templates",
    "queries_executed",
    "plan_cache",
    "lock",
    "ingest",
    "config",
)


@pytest.mark.parametrize("shape", SHAPES)
def test_stats_has_one_shape(shape):
    """The same keys, in order, before and after ingest; the ingest
    counters are the monitor's own."""
    with _open(shape) as service:
        before = service.stats()
        assert before["ingest"] is None
        assert before["log_rows"] == Reference().log_rows()
        patients = _sample_patients(_fresh_db(), k=3)
        service.ingest_many([("u0001", p, None) for p in patients])
        service.ingest("nobody", patients[0])
        after = service.stats()
    reference = AccessMonitor(ExplanationEngine(_fresh_db())).stats()
    assert tuple(before) == tuple(after) == STATS_KEYS
    assert tuple(after["ingest"]) == tuple(reference)
    assert "shards" not in after["config"]
    ingest = after["ingest"]
    assert ingest["seen"] == len(patients) + 1
    assert after["log_rows"] == before["log_rows"] + len(patients) + 1
    assert ingest["avg_ingest_queries"] == ingest["total_queries"] / ingest["seen"]
    assert ingest["alert_rate"] == ingest["alerts"] / ingest["seen"]
    assert ingest["last_ingest_queries"] > 0
