"""Tests for the streaming access monitor (online auditing)."""

import datetime as dt

import pytest

from repro.audit import (
    AccessMonitor,
    all_event_user_templates,
    repeat_access_template,
)
from repro.core import ExplanationEngine
from repro.db import ColumnType, Database, TableSchema
from repro.ehr import EPOCH, SimulationConfig, build_careweb_graph, simulate


def build_engine(seed=13):
    sim = simulate(SimulationConfig.tiny(seed=seed))
    graph = build_careweb_graph(sim.db)
    templates = all_event_user_templates(graph)
    templates.append(repeat_access_template(graph))
    return ExplanationEngine(sim.db, templates), sim


@pytest.fixture
def engine():
    return build_engine()


class TestIngest:
    def test_appends_to_log(self, engine):
        eng, sim = engine
        before = len(sim.db.table("Log"))
        monitor = AccessMonitor(eng)
        monitor.ingest("u0000", "p00001", EPOCH + dt.timedelta(days=9))
        assert len(sim.db.table("Log")) == before + 1

    def test_lids_continue_sequence(self, engine):
        eng, sim = engine
        max_lid = max(sim.db.table("Log").distinct_values("Lid"))
        monitor = AccessMonitor(eng)
        access = monitor.ingest("u0000", "p00001")
        assert access.lid == max_lid + 1
        access2 = monitor.ingest("u0000", "p00002")
        assert access2.lid == max_lid + 2

    def test_explained_access_not_flagged(self, engine):
        eng, sim = engine
        # find a patient with an appointment; stream the doctor's access
        appt = sim.db.table("Appointments").rows()[0]
        patient, doctor = appt[0], appt[1]
        monitor = AccessMonitor(eng)
        access = monitor.ingest(doctor, patient, EPOCH + dt.timedelta(days=8))
        assert not access.suspicious
        assert "accessed" in access.headline() or access.instances

    def test_unrelated_access_alerts(self, engine):
        eng, sim = engine
        alerts = []
        monitor = AccessMonitor(eng, alert_handlers=(alerts.append,))
        # a brand-new user can have no event or prior access
        access = monitor.ingest("intruder", "p00001", EPOCH)
        assert access.suspicious
        assert alerts == [access]
        assert monitor.alerts == 1

    def test_repeat_explained_after_first_stream(self, engine):
        eng, sim = engine
        monitor = AccessMonitor(eng)
        first = monitor.ingest("intruder", "p00001", EPOCH + dt.timedelta(days=8))
        assert first.suspicious
        second = monitor.ingest(
            "intruder", "p00001", EPOCH + dt.timedelta(days=9)
        )
        # the second access is a repeat of the first streamed one
        assert not second.suspicious
        assert any(
            i.template.name == "repeat-access" for i in second.instances
        )

    def test_alert_rate(self, engine):
        eng, sim = engine
        monitor = AccessMonitor(eng)
        assert monitor.alert_rate() == 0.0
        monitor.ingest("intruder", "p00001", EPOCH)
        assert monitor.alert_rate() == 1.0

    def test_ingest_many(self, engine):
        eng, _ = engine
        monitor = AccessMonitor(eng)
        out = monitor.ingest_many(
            [
                ("intruder", "p00001", EPOCH),
                ("intruder", "p00001", EPOCH + dt.timedelta(hours=1)),
            ]
        )
        assert len(out) == 2
        assert monitor.seen == 2

    def test_on_alert_registration(self, engine):
        eng, _ = engine
        monitor = AccessMonitor(eng)
        seen = []
        monitor.on_alert(seen.append)
        monitor.ingest("intruder", "p00001", EPOCH)
        assert len(seen) == 1

    def test_coverage_cache_invalidated(self, engine):
        eng, _ = engine
        monitor = AccessMonitor(eng)
        eng.coverage()  # warm the cache
        access = monitor.ingest("intruder", "p00001", EPOCH)
        assert access.lid in eng.unexplained_lids()


def _stream(sim, n=30):
    """A deterministic mixed stream with strictly increasing timestamps."""
    appts = sim.db.table("Appointments").rows()
    out = []
    for i in range(n):
        when = EPOCH + dt.timedelta(days=8, minutes=i)
        if i % 3 == 0:
            patient, doctor = appts[i % len(appts)][0], appts[i % len(appts)][1]
            out.append((doctor, patient, when))  # explained by appointment
        elif i % 3 == 1:
            out.append((f"intruder{i % 4}", "p00001", when))  # snooping
        else:
            prev = out[-1]
            out.append((prev[0], prev[1], when))  # repeat of previous access
    return out


class TestStreamingRegression:
    """ingest_many == one-by-one ingest, at O(templates × N) point queries."""

    def test_batch_matches_one_by_one(self):
        eng_a, sim_a = build_engine()
        eng_b, sim_b = build_engine()  # identical world, separate state
        stream = _stream(sim_a)
        mon_one = AccessMonitor(eng_a)
        one_by_one = [mon_one.ingest(u, p, d) for u, p, d in stream]
        mon_batch = AccessMonitor(eng_b)
        batched = mon_batch.ingest_many(_stream(sim_b))
        assert [a.lid for a in batched] == [a.lid for a in one_by_one]
        assert [a.suspicious for a in batched] == [
            a.suspicious for a in one_by_one
        ]
        assert mon_batch.alerts == mon_one.alerts
        assert mon_batch.seen == mon_one.seen == len(stream)
        assert eng_b.unexplained_lids() == eng_a.unexplained_lids()
        assert eng_b.coverage() == pytest.approx(eng_a.coverage())

    def test_batch_headlines_match_one_by_one(self):
        eng_a, sim_a = build_engine()
        eng_b, sim_b = build_engine()
        mon_one = AccessMonitor(eng_a)
        one_by_one = [mon_one.ingest(u, p, d) for u, p, d in _stream(sim_a, 12)]
        batched = AccessMonitor(eng_b).ingest_many(_stream(sim_b, 12))
        assert [a.headline() for a in batched] == [
            a.headline() for a in one_by_one
        ]

    def test_ingest_issues_point_queries_not_rescans(self, engine):
        """Probe-call count is O(templates × N): per access, one instance
        probe per template — whose rows are both the delta membership and
        the verdict's instances — plus one support probe per extra
        log-ranging variable; never a second evaluation for the verdict,
        never O(N²) re-joins of the whole log."""
        eng, _ = engine
        monitor = AccessMonitor(eng)
        n_templates = len(eng.templates)
        monitor.ingest("u0000", "p00001", EPOCH + dt.timedelta(days=8))
        warm = monitor.last_ingest_queries  # includes one-time cache warming
        assert warm <= 4 * n_templates
        n = 25
        before = eng.executor.queries_executed
        for i in range(n):
            monitor.ingest("u0000", "p00001", EPOCH + dt.timedelta(days=9, minutes=i))
        spent = eng.executor.queries_executed - before
        # T instance probes + <= 1 extra log alias per template => hard
        # per-access ceiling of 2T, linear in N
        assert spent <= 2 * n_templates * n
        assert monitor.last_ingest_queries <= 2 * n_templates

    def test_standard_templates_cost_twelve_probe_calls_per_ingest(self):
        """11 standard templates, one of them (repeat-access) with a
        second log-ranging variable: exactly 12 probe calls per ingest."""
        from repro.api import AuditService

        sim = simulate(SimulationConfig.tiny(seed=13))
        service = AuditService.open(sim.db)
        assert len(service.engine.templates) == 11
        for i in range(10):
            service.ingest("u0000", "p00001", EPOCH + dt.timedelta(days=9, minutes=i))
        assert service.stats()["ingest"]["avg_ingest_queries"] == 12

    def test_batch_query_count_linear(self, engine):
        eng, _ = engine
        monitor = AccessMonitor(eng)
        eng.coverage()  # warm every template cache
        n = 40
        batch = [
            ("u0000", "p00001", EPOCH + dt.timedelta(days=8, minutes=i))
            for i in range(n)
        ]
        before = eng.executor.queries_executed
        out = monitor.ingest_many(batch)
        spent = eng.executor.queries_executed - before
        assert len(out) == n
        assert spent <= 3 * len(eng.templates) * n

    def test_batch_alert_handlers_fire_in_order(self, engine):
        eng, _ = engine
        seen = []
        monitor = AccessMonitor(eng, alert_handlers=(lambda a: seen.append(a.lid),))
        out = monitor.ingest_many(
            [
                ("intruderA", "p00001", EPOCH),
                ("intruderB", "p00002", EPOCH + dt.timedelta(minutes=1)),
            ]
        )
        assert seen == [a.lid for a in out if a.suspicious]
        assert len(seen) == monitor.alerts == 2

    def test_ingest_many_empty_batch(self, engine):
        eng, _ = engine
        monitor = AccessMonitor(eng)
        assert monitor.ingest_many([]) == []
        assert monitor.seen == 0


def _toy_engine(lids=((1, 1, "Dave", "Alice"),)):
    """A template-free engine over a minimal log (monitor unit tests)."""
    db = Database("toy")
    log = db.create_table(
        TableSchema.build(
            "Log",
            [("Lid", ColumnType.INT), ("Date", ColumnType.INT), "User", "Patient"],
        )
    )
    log.insert_many(lids)
    return ExplanationEngine(db)


class TestMonitorTestability:
    """Injectable clock and robust lid allocation (no hidden now())."""

    def test_clock_injected_for_missing_dates(self):
        ticks = []
        base = dt.datetime(2026, 7, 1, 9, 0, 0)

        def clock():
            ticks.append(len(ticks))
            return base + dt.timedelta(minutes=len(ticks))

        db = Database("toy")
        db.create_table(
            TableSchema.build(
                "Log",
                [("Lid", ColumnType.INT), ("Date", ColumnType.DATE), "User", "Patient"],
            )
        )
        monitor = AccessMonitor(ExplanationEngine(db), clock=clock)
        first = monitor.ingest("u", "p")
        second = monitor.ingest("u", "p")
        assert first.date == base + dt.timedelta(minutes=1)
        assert second.date == base + dt.timedelta(minutes=2)
        assert ticks == [0, 1]

    def test_explicit_date_bypasses_clock(self):
        def clock():  # pragma: no cover - must never run
            raise AssertionError("clock must not be consulted")

        monitor = AccessMonitor(_toy_engine(), clock=clock)
        access = monitor.ingest("u", "p", 7)
        assert access.date == 7

    def test_next_lid_skips_noncontiguous_gaps(self):
        monitor = AccessMonitor(_toy_engine([(5, 1, "a", "p"), (900, 2, "b", "q")]))
        assert monitor.ingest("u", "p", 3).lid == 901

    def test_next_lid_ignores_non_integer_lids(self):
        assert AccessMonitor._initial_next_lid({"ext-7", 41, "ext-9"}) == 42
        assert AccessMonitor._initial_next_lid({"ext-7", "ext-9"}) == 1
        assert AccessMonitor._initial_next_lid(set()) == 1

    def test_next_lid_ignores_bools(self):
        # True == 1 numerically; a boolean lid must not anchor the sequence
        assert AccessMonitor._initial_next_lid({True}) == 1
        assert AccessMonitor._initial_next_lid({True, 3}) == 4

    def test_empty_log_starts_at_one(self):
        monitor = AccessMonitor(_toy_engine(()))
        assert monitor.ingest("u", "p", 1).lid == 1

    def test_stats_counters(self):
        monitor = AccessMonitor(_toy_engine(()))
        assert monitor.stats()["seen"] == 0
        monitor.ingest("u", "p", 1)
        monitor.ingest_many([("v", "q", 2), ("w", "r", 3)])
        stats = monitor.stats()
        assert stats["seen"] == 3
        assert stats["alerts"] == 3  # template-free engine explains nothing
        assert stats["alert_rate"] == 1.0
        assert stats["total_seconds"] >= stats["last_ingest_seconds"] >= 0.0
        assert stats["total_queries"] >= 0

    def test_ingest_agrees_with_fresh_engine_oracle(self):
        """After each delta-maintained ingest, an engine built from
        scratch over the grown log gives the same instances and flag."""
        eng, sim = build_engine()
        monitor = AccessMonitor(eng)
        for user, patient, date in _stream(sim, 9):
            access = monitor.ingest(user, patient, date)
            fresh = ExplanationEngine(sim.db, eng.templates)
            expected = fresh.explain(access.lid)
            assert [i.render() for i in access.instances] == [
                i.render() for i in expected
            ]
            assert access.suspicious == (not expected)
        assert eng.unexplained_lids() == fresh.unexplained_lids()
