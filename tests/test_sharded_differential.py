"""Differential suite: every placement of the service must be
indistinguishable from a bare engine over the unpartitioned log.

For every shard count in {1, 2, 7} (one inline shard, or one worker
process per shard), `AuditService` must return results byte-identical
(via ``to_dict()`` / set equality) to :class:`Reference` — an
``ExplanationEngine`` and ``AccessMonitor`` over the same database,
rendered through the same message dataclasses — for explain_all,
coverage, reports, per-access explanation, mining support, and stay
identical after incremental ``ingest_many``/``ingest`` with
service-assigned global log ids.

The SQLite storage backend rides the same treatment: at shards {1, 2, 7}
every read and ingest surface must match the in-memory reference
byte-identically.
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

SHARD_COUNTS = (1, 2, 7)


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
    """The oracle: a bare engine and monitor over the unpartitioned
    database, rendered through the message dataclasses the service
    returns — no shard op, merge or service code in the loop."""

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


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_reads_identical(reference, shards):
    config = AuditConfig(shards=shards)
    with AuditService.open(_fresh_db(), config=config) as sharded:
        # aggregate views
        assert sharded.coverage() == reference.coverage()
        assert sharded.unexplained_lids() == reference.unexplained_lids()
        assert sharded.summary() == reference.summary()
        # whole-log partition
        ours = sharded.explain_all()
        theirs = reference.explain_all()
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        # full compliance artifact, including queue order and user risk
        assert sharded.report().to_dict() == reference.report().to_dict()
        assert sharded.report(limit=5).to_dict() == reference.report(limit=5).to_dict()
        # patient portal screens route to one shard
        for patient in _sample_patients(reference.db):
            assert (
                sharded.patient_report(patient).to_dict()
                == reference.patient_report(patient).to_dict()
            )
            ours_text = sharded.render_patient_report(patient)
            assert ours_text == reference.render_patient_report(patient)
        # per-access explanation (present and absent ids)
        for lid in (1, 2, 3, 10**9):
            assert sharded.explain(lid).to_dict() == reference.explain(lid).to_dict()
        # batch partition with ids no shard holds
        some = sorted(reference.unexplained_lids())[:5] + [10**9]
        ours = sharded.explain_batch(some)
        theirs = reference.explain_batch(some)
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        # mining support counts are per-shard sums
        templates = list(reference.templates())[:4]
        assert sharded.support_many(templates) == reference.support_many(templates)
        # template sets agree
        assert sharded.templates() == reference.templates()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sqlite_backend_sharded_reads_identical(reference, shards):
    """The SQLite backend under sharding: every shard converts its
    partition to a private (in-memory) SQLite database, and every read
    surface stays byte-identical to the single-node memory service."""
    config = AuditConfig(shards=shards, backend="sqlite")
    with open_service(_fresh_db(), config=config) as service:
        assert service.coverage() == reference.coverage()
        assert service.unexplained_lids() == reference.unexplained_lids()
        ours = service.explain_all()
        theirs = reference.explain_all()
        assert ours.explained == theirs.explained
        assert ours.unexplained == theirs.unexplained
        assert service.report().to_dict() == reference.report().to_dict()
        for patient in _sample_patients(reference.db, k=2):
            assert (
                service.patient_report(patient).to_dict()
                == reference.patient_report(patient).to_dict()
            )
        for lid in (1, 2, 10**9):
            assert service.explain(lid).to_dict() == reference.explain(lid).to_dict()
        templates = list(reference.templates())[:4]
        assert service.support_many(templates) == reference.support_many(templates)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sqlite_backend_sharded_ingest_identical(shards):
    """Ingest through the SQLite backend (single-node and sharded)
    matches the memory reference: ids, dates, explanations, alerts."""
    base = Reference(clock=_ticking_clock())
    config = AuditConfig(shards=shards, backend="sqlite")
    with open_service(
        _fresh_db(), config=config, clock=_ticking_clock()
    ) as service:
        patients = _sample_patients(base.db, k=3) + ["brand-new-patient"]
        batch = [
            (f"u{i % 2:04d}", patients[i % len(patients)], None)
            for i in range(8)
        ]
        ours = [r.to_dict() for r in service.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs
        assert service.coverage() == base.coverage()
        assert service.report().to_dict() == base.report().to_dict()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_ingest_identical(shards):
    base = Reference(clock=_ticking_clock())
    config = AuditConfig(shards=shards)
    with AuditService.open(
        _fresh_db(), config=config, clock=_ticking_clock()
    ) as sharded:
        patients = _sample_patients(base.db, k=3) + ["brand-new-patient"]
        batch = [
            (f"u{i % 2:04d}", patients[i % len(patients)], None)
            for i in range(12)
        ]
        ours = [r.to_dict() for r in sharded.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs  # ids, dates, explanations, alert flags
        one_ours = sharded.ingest("u0001", patients[0]).to_dict()
        one_theirs = base.ingest("u0001", patients[0]).to_dict()
        assert one_ours == one_theirs
        # post-ingest aggregates still agree
        assert sharded.coverage() == base.coverage()
        assert sharded.report().to_dict() == base.report().to_dict()
        assert sharded.unexplained_lids() == base.unexplained_lids()


#: The smallest shard count at which the tiny world leaves a shard with
#: no patient (its 36 patients hash into 10 of 11 shards).
EMPTY_SHARD_COUNT = 11


def test_a_shard_without_patients_merges_and_ingests_identically(reference):
    """A worker whose partition holds no log row answers every read with
    nothing, the merges stay byte-identical, and the first patient routed
    to it lands there and is audited like anywhere else."""
    from repro.db import shard_of

    base = Reference(clock=_ticking_clock())
    config = AuditConfig(shards=EMPTY_SHARD_COUNT)
    with AuditService.open(
        _fresh_db(), config=config, clock=_ticking_clock()
    ) as sharded:
        rows = [s["log_rows"] for s in sharded.stats()["per_shard"]]
        assert rows.count(0) == 1
        empty = rows.index(0)
        assert sharded.coverage() == reference.coverage()
        assert sharded.report().to_dict() == reference.report().to_dict()
        ours = sharded.explain_all()
        assert ours.explained == reference.explain_all().explained
        assert ours.unexplained == reference.explain_all().unexplained
        newcomer = next(
            p
            for p in (f"newcomer-{i}" for i in range(1000))
            if shard_of(p, EMPTY_SHARD_COUNT) == empty
        )
        batch = [("u0001", newcomer, None), ("u0001", newcomer, None)]
        ours = [r.to_dict() for r in sharded.ingest_many(batch)]
        assert ours == [r.to_dict() for r in base.ingest_many(batch)]
        assert sharded.stats()["per_shard"][empty]["log_rows"] == 2
        assert sharded.report().to_dict() == base.report().to_dict()
        assert (
            sharded.patient_report(newcomer).to_dict()
            == base.patient_report(newcomer).to_dict()
        )


@pytest.mark.parametrize("shards", (1, 3))
def test_sharded_batch_semijoin_ingest_identical(shards):
    """The batch-semijoin ingest strategy survives sharding: each of the
    four patients has SEMIJOIN_BATCH_MIN rows in the batch, so every shard
    that owns one maintains its share by semijoin."""
    base = Reference(clock=_ticking_clock())
    sharded_config = AuditConfig(shards=shards)
    with AuditService.open(
        _fresh_db(), config=sharded_config, clock=_ticking_clock()
    ) as sharded:
        patients = _sample_patients(base.db, k=4)
        batch = [
            ("u0001", patients[i % 4], None) for i in range(4 * SEMIJOIN_BATCH_MIN)
        ]
        ours = [r.to_dict() for r in sharded.ingest_many(batch)]
        theirs = [r.to_dict() for r in base.ingest_many(batch)]
        assert ours == theirs
        assert sharded.coverage() == base.coverage()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_failed_mid_batch_ingest_keeps_engine_in_step_with_log(shards, backend):
    """Row 3 of 4 is rejected: rows 1-2 stay in the log table, so the
    engine must hear of them — coverage, the lid universe and the
    unexplained queue all count them — before the error propagates."""
    from repro.db.errors import IntegrityError

    config = AuditConfig(shards=shards, backend=backend)
    with open_service(_fresh_db(), config=config) as service:
        before = service.stats()["log_rows"]
        patient = _sample_patients(_fresh_db(), k=1)[0]  # one owning shard
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
        partition = service.explain_all()
        assert len(partition) == before + 2
        assert before + 1 in partition.explained | partition.unexplained
        assert before + 2 in service.unexplained_lids()  # the intruder
        assert service.stats()["ingest"]["seen"] == 2
        # the service keeps working, and the rejected ids are not reused
        later = service.ingest("intruder", patient, when + dt.timedelta(minutes=3))
        assert later.lid == before + 5
        assert not later.suspicious  # a repeat of the landed intruder row
        assert service.report().total == before + 3


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


@pytest.mark.parametrize("shards", (1, 3))
def test_sharded_alerts_fire_in_ingest_order(shards):
    events = []
    config = AuditConfig(shards=shards)
    with AuditService.open(_fresh_db(), config=config) as sharded:
        sharded.on_alert(lambda r: events.append(r.lid))
        results = sharded.ingest_many(
            [("nobody", f"ghost-patient-{i}", None) for i in range(4)]
        )
        alerted = [r.lid for r in results if r.alerted]
        assert events == alerted
        assert len(events) == 4  # ghost patients have no explanations


@pytest.mark.parametrize("shards", (1, 3))
def test_sharded_add_templates_broadcasts(reference, shards):
    with AuditService.open(
        _fresh_db(), templates=(), config=AuditConfig(shards=shards)
    ) as sharded:
        before = sharded.coverage()
        assert before == 0.0
        offered = sharded.add_templates(list(reference.templates()))
        assert offered == len(reference.templates())
        assert sharded.coverage() == reference.coverage()


def test_sharded_stats_aggregate(reference):
    with AuditService.open(
        _fresh_db(), config=AuditConfig(shards=4)
    ) as sharded:
        stats = sharded.stats()
        assert stats["shards"] == 4
        assert stats["executor_kind"] == "process"
        assert stats["log_rows"] == reference.log_rows()
        assert len(stats["per_shard"]) == 4
        assert stats["ingest"] is None  # nothing ingested yet
        per_shard_rows = sum(s["log_rows"] for s in stats["per_shard"])
        assert per_shard_rows == stats["log_rows"]
        sharded.ingest("u0001", "p-any")
        assert sharded.stats()["ingest"]["seen"] == 1


def test_sharded_lifecycle_and_unsupported_writers():
    service = AuditService.open(
        _fresh_db(), config=AuditConfig(shards=2)
    )
    # typed UnsupportedOperationError (a NotImplementedError subclass so
    # pre-wire callers keep working), carrying a remediation hint
    with pytest.raises(NotImplementedError) as excinfo:
        service.mine(MineRequest())
    assert isinstance(excinfo.value, UnsupportedOperationError)
    assert excinfo.value.code == "unsupported_operation"
    assert excinfo.value.http_status == 501
    assert "add_templates" in excinfo.value.hint
    with pytest.raises(UnsupportedOperationError) as excinfo:
        service.build_groups()
    assert "AuditService.open" in excinfo.value.hint
    service.close()
    service.close()  # idempotent
    with pytest.raises(RuntimeError):
        service.coverage()


def test_open_service_opens_the_one_service_class():
    db = _fresh_db()
    with open_service(db) as single:
        assert type(single) is AuditService and single.shards == 1
        assert single.db is db
    with open_service(
        _fresh_db(), config=AuditConfig(shards=2)
    ) as sharded:
        assert type(sharded) is AuditService and sharded.shards == 2


@pytest.mark.parametrize("shards", (2, 3, 7))
def test_cli_audit_json_identical_across_shards(tmp_path, capsys, shards):
    from repro.api import save_database
    from repro.cli import main

    db_dir = str(tmp_path / "hospital")
    save_database(_fresh_db(), db_dir)
    assert main(["audit", "--db", db_dir, "--json"]) == 0
    single_out = capsys.readouterr().out
    assert main(["audit", "--db", db_dir, "--json", "--shards", str(shards)]) == 0
    assert capsys.readouterr().out == single_out
    assert main(["evaluate", "--db", db_dir, "--json", "--shards", str(shards)]) == 0
    assert "coverage" in capsys.readouterr().out


def test_more_than_one_shard_means_process_shards(tmp_path, monkeypatch):
    """``shards > 1`` places one worker process per shard, whether the
    config comes from Python or from ``repro-audit audit --shards``."""
    from repro import cli
    from repro.api import save_database

    with AuditService.open(_fresh_db(), config=AuditConfig(shards=2)) as service:
        assert service.stats()["executor_kind"] == "process"

    kinds = []

    class Recording(AuditService):
        def report(self, limit=None):
            kinds.append(self.stats()["executor_kind"])
            return super().report(limit)

    monkeypatch.setattr(cli, "AuditService", Recording)
    db_dir = str(tmp_path / "hospital")
    save_database(_fresh_db(), db_dir)
    assert cli.main(["audit", "--db", db_dir, "--shards", "2"]) == 0
    assert kinds == ["process"]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_close_closes_every_database_the_service_opened(
    tmp_path, monkeypatch, shards
):
    """Each shard's SQLite database closes with the service — the one
    inline shard's and every worker process's — while a database the
    caller passed in stays open.  Closes are logged to a file, so a shard
    worker (forked with the patched driver) reports its own."""
    from repro.api.sharded import _mp_context
    from repro.db.drivers.sqlite import SqliteDriver
    from repro.db.sqlbackend import shard_db_path

    if shards > 1 and _mp_context() is None:
        pytest.skip("shard workers inherit the patched driver only under fork")
    closes = tmp_path / "closes.log"
    close = SqliteDriver.close

    def recording_close(self):
        stats = self.snapshot_stats()
        with open(closes, "a") as log:
            log.write(f"{stats['path']} connected={stats['connected']}\n")
        close(self)

    monkeypatch.setattr(SqliteDriver, "close", recording_close)
    db_path = str(tmp_path / "audit.db")
    config = AuditConfig(shards=shards, backend="sqlite", db_path=db_path)
    service = open_service(_fresh_db(), config=config)
    assert not closes.exists()
    service.close()
    paths = (
        [db_path]
        if shards == 1
        else [shard_db_path(db_path, i) for i in range(shards)]
    )
    assert sorted(closes.read_text().splitlines()) == [
        f"{path} connected=True" for path in sorted(paths)
    ]

    given = open_sql_database(_fresh_db(), None)
    with AuditService.open(given, config=AuditConfig(backend="sqlite")):
        pass
    assert given.driver.snapshot_stats()["connected"] is True
    given.close()


#: The top-level ``stats()`` keys at every placement.
STATS_KEYS = (
    "shards",
    "executor_kind",
    "log_rows",
    "templates",
    "queries_executed",
    "plan_cache",
    "lock",
    "ingest",
    "per_shard",
    "config",
)


@pytest.mark.parametrize(
    "shards,kind", [(1, "inline"), (2, "process"), (7, "process")]
)
def test_stats_has_one_shape_at_every_placement(shards, kind):
    """The same keys at every placement, before and after ingest; ingest
    counters add and averages recompute."""
    with AuditService.open(_fresh_db(), config=AuditConfig(shards=shards)) as service:
        before = service.stats()
        assert before["executor_kind"] == kind
        assert before["ingest"] is None
        assert before["shards"] == shards
        assert len(before["per_shard"]) == shards
        patients = _sample_patients(_fresh_db(), k=3)
        service.ingest_many([("u0001", p, None) for p in patients])
        service.ingest("nobody", patients[0])
        after = service.stats()
    reference = AccessMonitor(ExplanationEngine(_fresh_db())).stats()
    assert set(before) == set(after) == set(STATS_KEYS)
    assert set(after["ingest"]) == set(reference)
    ingest = after["ingest"]
    assert ingest["seen"] == len(patients) + 1
    assert ingest["avg_ingest_queries"] == ingest["total_queries"] / ingest["seen"]
    assert ingest["alert_rate"] == ingest["alerts"] / ingest["seen"]
    assert ingest["last_ingest_queries"] > 0


@pytest.mark.parametrize("shards", (2, 3))
def test_explain_merge_ranks_what_every_shard_returns(
    reference, monkeypatch, shards
):
    """The explain merge ranks the union of the shards' answers instead of
    trusting that only the owner answers: with overlapping partitions
    (every shard holds the whole log) each instance arrives once per
    shard, and the merged list is the reference ranking with every entry
    repeated that many times."""
    import repro.api.service as service_mod

    monkeypatch.setattr(
        service_mod, "partition_by_patient", lambda db, n, log_table: [db] * n
    )
    lid = next(
        lid
        for lid in sorted(reference.engine.all_lids())
        if len(reference.explain(lid).explanations) > 1
    )
    with AuditService.open(
        _fresh_db(), config=AuditConfig(shards=shards)
    ) as service:
        merged = service.explain(lid).explanations
    expected = reference.explain(lid).explanations
    assert merged == tuple(view for view in expected for _ in range(shards))
