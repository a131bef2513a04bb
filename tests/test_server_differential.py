"""Differential suite: the wire API must be indistinguishable from the
in-process facade.

On both storage backends, warmed at open or cold, an
:class:`~repro.server.AuditServer` is put in front of the exact service
object the reference calls run on, so
every ``/v1/`` endpoint can be pinned **byte-identical** (same
``to_dict`` payloads, and — for the raw-response tests — the same
response bytes) to ``AuditService``.  The cursor-paginated
``unexplained`` walk must reproduce the one-shot queue, NDJSON
``explain/batch`` must stream incrementally (first line on the wire
before the last lid is evaluated), and ingest over the wire must match
an identical in-process ingest on a twin service sharing the clock.
"""

import datetime as dt
import threading

import pytest

from repro.api import (
    AuditConfig,
    ExplainRequest,
    ExplainResult,
    open_service,
    to_wire,
)
from repro.client import AuditClient
from repro.ehr import SimulationConfig, simulate
from repro.server import AuditServer, dump_json

#: Every served storage backend (the sqlite world serves template-to-SQL
#: pushdown executors).
BACKENDS = ("memory", "sqlite")

#: Every served deployment shape: both backends, warmed inside ``open()``
#: (the default) or cold, so the first requests build what they read.
WORLDS = [(backend, warm) for backend in BACKENDS for warm in (True, False)]

#: Fixed clock => both the served service and the in-process twin stamp
#: ingested accesses identically.
FROZEN_NOW = dt.datetime(2010, 1, 9, 12, 0, 0)


def _open_service(backend: str = "memory", warm: bool = True):
    db = simulate(SimulationConfig.tiny(seed=7)).db
    return open_service(
        db,
        config=AuditConfig(backend=backend, eager_warm=warm),
        clock=lambda: FROZEN_NOW,
    )


class World:
    """One served service + client + an identical in-process twin."""

    def __init__(self, backend: str, warm: bool) -> None:
        self.backend = backend
        self.service = _open_service(backend, warm)
        self.twin = _open_service(backend, warm)
        self.server = AuditServer(self.service, port=0).start()
        self.client = AuditClient(self.server.host, self.server.port)

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.service.close()
        self.twin.close()


@pytest.fixture(
    scope="module",
    params=WORLDS,
    ids=[f"{b}-{'warm' if w else 'cold'}" for b, w in WORLDS],
)
def world(request):
    w = World(*request.param)
    yield w
    w.close()


def _sample_lids(world, count=25):
    queue = [v.lid for v in world.service.report().queue]
    explained = sorted(
        set(world.service.explain_all().explained), key=str
    )[: count - len(queue[:10])]
    return queue[:10] + explained + [10**9]  # plus one unknown lid


# ----------------------------------------------------------------------
# read endpoints: typed equality
# ----------------------------------------------------------------------
class TestReadDifferential:
    def test_explain(self, world):
        for lid in _sample_lids(world):
            wire = world.client.explain(lid)
            local = world.service.explain(lid)
            assert wire.to_dict() == local.to_dict()
            assert wire == local

    def test_explain_with_limit(self, world):
        request = ExplainRequest(lid=_sample_lids(world)[0], limit=1)
        assert (
            world.client.explain(request).to_dict()
            == world.service.explain(request).to_dict()
        )

    def test_patient_report(self, world):
        patients = sorted(
            {v.patient for v in world.service.report().queue}, key=str
        )[:5]
        for patient in patients:
            assert (
                world.client.patient_report(patient).to_dict()
                == world.service.patient_report(patient).to_dict()
            )

    def test_patient_report_with_limit(self, world):
        patient = world.service.report().queue[0].patient
        assert (
            world.client.patient_report(patient, limit=2).to_dict()
            == world.service.patient_report(patient, limit=2).to_dict()
        )

    def test_render_patient_report(self, world):
        patient = world.service.report().queue[0].patient
        assert world.client.render_patient_report(
            patient
        ) == world.service.render_patient_report(patient)

    def test_report(self, world):
        assert (
            world.client.report().to_dict()
            == world.service.report().to_dict()
        )

    def test_report_with_limit(self, world):
        assert (
            world.client.report(limit=3).to_dict()
            == world.service.report(limit=3).to_dict()
        )

    def test_summary(self, world):
        assert world.client.summary() == world.service.summary()

    def test_coverage(self, world):
        assert world.client.coverage() == world.service.coverage()

    def test_stats_static_fields(self, world):
        """Counter fields move between any two calls; the deployment
        facts must agree exactly."""
        wire = world.client.stats()
        local = world.service.stats()
        for key in ("log_rows", "templates", "config"):
            assert wire[key] == local[key]
        assert set(wire) == set(local)

    def test_templates_list(self, world):
        listed = world.client.templates()
        local = world.service.templates()
        assert [t["sql"] for t in listed] == [t.to_sql() for t in local]
        assert [t["name"] for t in listed] == [t.name for t in local]

    def test_template_library_round_trip(self, world):
        library = world.client.template_library()
        assert {t.to_sql() for t in library.approved_templates()} == {
            t.to_sql() for t in world.service.templates()
        }

    def test_add_templates_is_facade_identical(self, world):
        """Re-offering the registered set over the wire reports the same
        count the facade does and leaves the set unchanged (dedup)."""
        library = world.client.template_library()
        before = world.service.templates()
        assert world.client.add_templates(library) == len(before)
        assert world.service.templates() == before


# ----------------------------------------------------------------------
# read endpoints: raw byte identity
# ----------------------------------------------------------------------
class TestByteIdentity:
    def _raw(self, world, path):
        response = world.client._raw_request("GET", path)
        body = response.read()
        assert response.status == 200
        return body

    def test_explain_bytes(self, world):
        lid = _sample_lids(world)[0]
        expected = dump_json(to_wire(world.service.explain(lid)))
        assert self._raw(world, f"/v1/explain?lid={lid}") == expected

    def test_report_bytes(self, world):
        expected = dump_json(to_wire(world.service.report()))
        assert self._raw(world, "/v1/report") == expected

    def test_patient_report_bytes(self, world):
        patient = world.service.report().queue[0].patient
        expected = dump_json(to_wire(world.service.patient_report(patient)))
        assert (
            self._raw(world, f"/v1/patients/{patient}/report") == expected
        )

    def test_coverage_bytes(self, world):
        from repro.server import envelope

        expected = dump_json(
            envelope("Coverage", {"coverage": world.service.coverage()})
        )
        assert self._raw(world, "/v1/coverage") == expected


# ----------------------------------------------------------------------
# cursor pagination
# ----------------------------------------------------------------------
class TestUnexplainedPagination:
    def test_cursor_walk_equals_one_shot(self, world):
        one_shot = [v.to_dict() for v in world.service.report().queue]
        for page_size in (1, 3, 500):
            walked = [
                v.to_dict() for v in world.client.unexplained(page_size)
            ]
            assert walked == one_shot

    def test_pages_are_bounded_and_disjoint(self, world):
        items, cursor, total = world.client.unexplained_page(limit=2)
        assert len(items) <= 2
        assert total == len(world.service.report().queue)
        if cursor is not None:
            second, _, _ = world.client.unexplained_page(cursor, limit=2)
            first_lids = {v.lid for v in items}
            assert all(v.lid not in first_lids for v in second)

    def test_unexplained_lids_matches_facade(self, world):
        assert (
            world.client.unexplained_lids(page_size=7)
            == world.service.unexplained_lids()
        )

    def test_final_page_has_no_cursor(self, world):
        total = len(world.service.report().queue)
        items, cursor, _ = world.client.unexplained_page(limit=max(total, 1))
        assert len(items) == total
        assert cursor is None

    def test_unexplained_queue_facade_matches_report_queue(self, world):
        assert world.service.unexplained_queue() == world.service.report().queue


@pytest.mark.parametrize("backend", BACKENDS)
def test_cursor_survives_backdated_ingest(backend):
    """Key-based cursors: a back-dated unexplained access ingested
    mid-walk must neither re-serve already-served items nor skip
    still-unserved ones."""
    service = _open_service(backend)
    try:
        with (
            AuditServer(service, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            before = [v.lid for v in service.unexplained_queue()]
            assert len(before) >= 4, "need a walkable queue"
            first, cursor, _ = client.unexplained_page(limit=2)
            assert cursor is not None
            # an unexplainable access dated before the queue head
            backdated = client.ingest(
                "zz-nobody", "zz-nobody", dt.datetime(2000, 1, 1)
            )
            assert backdated.suspicious
            rest = []
            while cursor is not None:
                items, cursor, _ = client.unexplained_page(cursor, limit=2)
                rest.extend(items)
            served = [v.lid for v in first] + [v.lid for v in rest]
            assert served == before  # no dupes, no skips
            assert backdated.lid not in served  # not in this snapshot
    finally:
        service.close()


# ----------------------------------------------------------------------
# NDJSON streaming
# ----------------------------------------------------------------------
class TestExplainBatchStream:
    def test_matches_per_lid_explain(self, world):
        lids = _sample_lids(world)
        streamed = list(world.client.explain_batch(lids))
        assert [r.lid for r in streamed] == lids
        for result in streamed:
            assert (
                result.to_dict() == world.service.explain(result.lid).to_dict()
            )

    def test_agrees_with_batch_partition(self, world):
        lids = _sample_lids(world)
        streamed = {r.lid: r.explained for r in world.client.explain_batch(lids)}
        partition = world.service.explain_batch(lids)
        for lid in lids:
            assert streamed[lid] == (lid in partition.explained)


class _GatedService:
    """explain() blocks on ``gate`` for one designated lid — proof the
    server flushes earlier NDJSON lines before later lids are computed."""

    def __init__(self) -> None:
        self.gate = threading.Event()

    def explain(self, request):
        if request.lid == "slow":
            assert self.gate.wait(timeout=30), "stream never released"
        return ExplainResult(lid=request.lid, explanations=())


def test_ndjson_streams_incrementally():
    service = _GatedService()
    with AuditServer(service, port=0) as server:
        client = AuditClient(server.host, server.port, timeout=30)
        stream = client.explain_batch(["fast", "slow"])
        first = next(stream)  # must arrive while "slow" is still blocked
        assert first.lid == "fast"
        assert not service.gate.is_set()
        service.gate.set()
        rest = list(stream)
        assert [r.lid for r in rest] == ["slow"]
        client.close()


# ----------------------------------------------------------------------
# writers over the wire
# ----------------------------------------------------------------------
class TestIngestDifferential:
    def test_single_ingest_matches_twin(self, world):
        wire = world.client.ingest("uXWIRE", "pXWIRE")
        local = world.twin.ingest("uXWIRE", "pXWIRE")
        assert wire.to_dict() == local.to_dict()

    def test_explicit_date_round_trips(self, world):
        stamp = dt.datetime(2010, 1, 10, 9, 30, 1)
        wire = world.client.ingest("uXW2", "pXW2", stamp)
        local = world.twin.ingest("uXW2", "pXW2", stamp)
        assert wire.to_dict() == local.to_dict()
        assert wire.date == stamp

    def test_batch_ingest_matches_twin(self, world):
        batch = [
            ("uXB1", "pXB1", None),
            ("uXB2", "pXB2", dt.datetime(2010, 1, 11, 8, 0, 0)),
            ("uXB1", "pXB1", None),
        ]
        wire = world.client.ingest_many(batch)
        local = world.twin.ingest_many(batch)
        assert [r.to_dict() for r in wire] == [r.to_dict() for r in local]

    def test_state_converges_after_wire_ingest(self, world):
        """After identical ingests, served and twin services agree on
        the whole audit view — the wire added nothing and lost nothing."""
        assert (
            world.client.report().to_dict() == world.twin.report().to_dict()
        )
        assert world.client.coverage() == world.twin.coverage()
