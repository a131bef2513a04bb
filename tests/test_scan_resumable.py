"""Resumable, preemptable full-log scans (the web-preemption model).

The contract under test, end to end: the union of a scan's bounded
slices must be **byte-identical** to the one-shot ``report()`` /
``explain_all()`` artifacts — for every page size, with and without a
wall-clock quantum, on both storage backends, through the facade and over
the wire — and a scan suspended mid-walk must resume correctly on a
*fresh* service or server instance (a replica) from nothing but the
serialized cursor, even while back-dated ingest mutates the log.
"""

from __future__ import annotations

import datetime as dt
import json

import pytest

from repro.audit.handcrafted import (
    event_group_template,
    event_user_template,
    repeat_access_template,
)
from repro.api import (
    AuditConfig,
    InvalidCursorError,
    ScanPage,
    ScanRequest,
    ScanState,
    assemble_partition,
    assemble_report,
    open_service,
    to_wire,
)
from repro.client import AuditClient
from repro.core import ExplanationEngine, SchemaGraph
from repro.core.scan import QUANTUM_CHECK_ROWS, LogScanner
from repro.db import ColumnType, Database, TableSchema
from repro.ehr import SimulationConfig, simulate
from repro.server import (
    AuditServer,
    decode_cursor,
    decode_scan_cursor,
    dump_json,
    encode_cursor,
    encode_scan_cursor,
)

BACKENDS = ("memory", "sqlite")
#: Both backends, warmed inside ``open()`` (the default) or cold, so the
#: first slices build what they read.
SHAPES = [(backend, warm) for backend in BACKENDS for warm in (True, False)]
PAGE_SIZES = (1, 7, 10_000)

#: Fixed clock so services opened at different times stamp identically.
FROZEN_NOW = dt.datetime(2010, 1, 9, 12, 0, 0)


def _open_service(backend: str = "memory", warm: bool = True):
    """A service over the deterministic tiny hospital — two calls see
    byte-identical logs, which is what makes the fresh-replica resume
    tests honest."""
    db = simulate(SimulationConfig.tiny(seed=7)).db
    return open_service(
        db,
        config=AuditConfig(backend=backend, eager_warm=warm),
        clock=lambda: FROZEN_NOW,
    )


@pytest.fixture(
    scope="module",
    params=SHAPES,
    ids=[f"{b}-{'warm' if w else 'cold'}" for b, w in SHAPES],
)
def service(request):
    svc = _open_service(*request.param)
    yield svc
    svc.close()


# ----------------------------------------------------------------------
# facade differential: slice union == one-shot, byte for byte
# ----------------------------------------------------------------------
class TestFacadeDifferential:
    @pytest.mark.parametrize("page_rows", PAGE_SIZES)
    def test_report_byte_identical(self, service, page_rows):
        pages = list(service.scan_pages(page_rows=page_rows))
        assert all(page.rows <= page_rows for page in pages)
        assert dump_json(to_wire(assemble_report(pages))) == dump_json(
            to_wire(service.report())
        )

    @pytest.mark.parametrize("page_rows", PAGE_SIZES)
    def test_explain_all_partition_identical(self, service, page_rows):
        pages = list(service.scan_pages(page_rows=page_rows))
        assert assemble_partition(pages) == service.explain_all()

    def test_scan_report_and_scan_explain_all(self, service):
        assert (
            service.scan_report(page_rows=5).to_dict()
            == service.report().to_dict()
        )
        assert (
            service.scan_report(limit=2, page_rows=5).to_dict()
            == service.report(limit=2).to_dict()
        )
        assert service.scan_explain_all(page_rows=5) == service.explain_all()

    def test_tiny_quantum_still_completes_identically(self, service):
        """A pathologically small quantum shrinks slices (one chunk
        each) but must never change the assembled artifact."""
        pages = list(
            service.scan_pages(page_rows=10_000, quantum_seconds=1e-9)
        )
        # at most one chunk per slice
        assert all(page.rows <= QUANTUM_CHECK_ROWS for page in pages)
        assert (
            assemble_report(pages).to_dict() == service.report().to_dict()
        )

    def test_final_state_accumulates_whole_log(self, service):
        last = list(service.scan_pages(page_rows=7))[-1]
        assert last.done
        report = service.report()
        assert last.state.seen == report.total
        assert last.state.unexplained == report.unexplained_count

    def test_resume_on_fresh_service_instance(self, service):
        """Suspend after a few pages; a brand-new service over the same
        log must finish the walk from the JSON-serialized state alone."""
        walk = service.scan_pages(page_rows=6)
        head = [next(walk), next(walk), next(walk)]
        walk.close()
        assert not head[-1].done
        # the suspended state survives a JSON hop (what a cursor does)
        state = ScanState.from_dict(
            json.loads(json.dumps(head[-1].state.to_dict()))
        )
        fresh = _open_service(service.config.backend, service.config.eager_warm)
        try:
            tail = list(fresh.scan_pages(page_rows=6, state=state))
        finally:
            fresh.close()
        assert (
            assemble_report(head + tail).to_dict()
            == service.report().to_dict()
        )

    def test_config_budgets_are_the_default(self):
        db = simulate(SimulationConfig.tiny(seed=7)).db
        svc = open_service(
            db, config=AuditConfig(scan_page_rows=3), clock=lambda: FROZEN_NOW
        )
        try:
            page = svc.scan()
            assert page.rows == 3  # tiny sim has more than 3 accesses
            explicit = svc.scan(ScanRequest(page_rows=2))
            assert explicit.rows == 2
        finally:
            svc.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_survives_backdated_ingest_mid_walk(backend):
    """Key-based suspension: rows ingested *behind* the resume position
    are not part of this walk's snapshot — the assembled artifact equals
    the pre-ingest one-shot report, with no dupes and no skips."""
    service = _open_service(backend)
    try:
        before = service.report()
        walk = service.scan_pages(page_rows=4)
        head = [next(walk), next(walk)]
        walk.close()
        backdated = service.ingest(
            "zz-nobody", "zz-nobody", dt.datetime(2000, 1, 1)
        )
        assert backdated.suspicious
        tail = list(service.scan_pages(page_rows=4, state=head[-1].state))
        assembled = assemble_report(head + tail)
        assert assembled.to_dict() == before.to_dict()
        served = [v.lid for page in head + tail for v in page.unexplained]
        assert backdated.lid not in served
    finally:
        service.close()


# ----------------------------------------------------------------------
# LogScanner unit behavior
# ----------------------------------------------------------------------
def _tiny_engine() -> ExplanationEngine:
    db = Database("hospital")
    db.create_table(
        TableSchema.build(
            "Log",
            [
                ("Lid", ColumnType.INT),
                ("Date", ColumnType.INT),
                "User",
                "Patient",
            ],
            primary_key=["Lid"],
        )
    ).insert_many(
        [
            (100, 1, "Nick", "Alice"),
            (116, 2, "Dave", "Alice"),
            (130, 9, "Dave", "Alice"),
            (900, 4, "Eve", "Bob"),
        ]
    )
    db.create_table(
        TableSchema.build(
            "Appointments", ["Patient", "Doctor", ("Date", ColumnType.INT)]
        )
    ).insert_many([("Alice", "Dave", 1), ("Bob", "Sam", 2)])
    db.create_table(
        TableSchema.build(
            "Groups",
            [
                ("Group_Depth", ColumnType.INT),
                ("Group_id", ColumnType.INT),
                "User",
            ],
        )
    ).insert_many([(1, 10, "Dave"), (1, 10, "Nick"), (1, 11, "Sam")])
    graph = SchemaGraph(db)
    graph.allow_self_join("Groups", "Group_id")
    graph.allow_self_join("Log", "Patient")
    graph.allow_self_join("Log", "User")
    templates = [
        event_user_template(graph, "Appointments", "Doctor"),
        event_group_template(graph, "Appointments", "Doctor"),
        repeat_access_template(graph),
    ]
    return ExplanationEngine(db, templates)


class FakeClock:
    """Monotonic stub advancing a fixed amount per reading."""

    def __init__(self, step: float) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestLogScanner:
    def test_slices_walk_in_stable_key_order(self):
        scanner = LogScanner(_tiny_engine())
        keys = []
        after, done = None, False
        while not done:
            result = scanner.slice(after, page_rows=1)
            keys.extend(row.key for row in result.rows)
            after, done = result.after, result.done
        assert keys == sorted(keys)
        assert [lid for _, lid in keys] == [100, 116, 900, 130]

    def test_slice_union_matches_explain_all(self):
        engine = _tiny_engine()
        scanner = LogScanner(engine)
        explained, unexplained = set(), set()
        after, done = None, False
        while not done:
            result = scanner.slice(after, page_rows=3)
            for row in result.rows:
                (explained if row.explained else unexplained).add(row.lid)
            after, done = result.after, result.done
        whole = engine.explain_all()
        assert explained == set(whole.explained)
        assert unexplained == set(whole.unexplained)

    def test_page_rows_must_be_positive(self):
        scanner = LogScanner(_tiny_engine())
        with pytest.raises(ValueError, match="page_rows"):
            scanner.slice(None, page_rows=0)

    def test_exhausted_scan_is_done_and_position_stable(self):
        scanner = LogScanner(_tiny_engine())
        result = scanner.slice(None, page_rows=100)
        assert result.done
        again = scanner.slice(result.after, page_rows=100)
        assert again.done
        assert again.rows == ()
        assert again.after == result.after

    def test_expired_quantum_still_makes_progress(self):
        """The deadline is already past at the first check; the slice
        must still complete its first chunk — never spin at zero rows."""
        scanner = LogScanner(
            _tiny_engine(), check_rows=2, clock=FakeClock(step=100.0)
        )
        result = scanner.slice(None, page_rows=100, quantum_seconds=1e-6)
        assert len(result.rows) == 2  # exactly one chunk
        assert not result.done

    def test_quantum_stops_at_chunk_boundary(self):
        """With a budget worth one clock step, the second chunk is never
        started: the overrun is bounded to one chunk's evaluation."""
        clock = FakeClock(step=1.0)
        scanner = LogScanner(_tiny_engine(), check_rows=3, clock=clock)
        result = scanner.slice(None, page_rows=100, quantum_seconds=0.5)
        assert len(result.rows) == 3
        assert not result.done

    def test_generous_quantum_completes_the_slice(self):
        scanner = LogScanner(
            _tiny_engine(), check_rows=2, clock=FakeClock(step=1e-9)
        )
        result = scanner.slice(None, page_rows=100, quantum_seconds=1e6)
        assert result.done
        assert len(result.rows) == 4


# ----------------------------------------------------------------------
# scan cursors (v2, kind-tagged)
# ----------------------------------------------------------------------
class TestScanCursor:
    @pytest.mark.parametrize(
        "state",
        [
            ScanState(),
            ScanState(after=(4, 900), seen=3, unexplained=1),
            ScanState(
                after=(dt.datetime(2010, 1, 4, 8, 18), 17),
                seen=10,
                unexplained=2,
            ),
        ],
    )
    def test_round_trip(self, state):
        cursor = encode_scan_cursor(state.to_dict())
        assert ScanState.from_dict(decode_scan_cursor(cursor)) == state

    def test_queue_cursor_is_rejected_by_scan_decoder(self):
        with pytest.raises(InvalidCursorError, match="expected a 'scan'"):
            decode_scan_cursor(encode_cursor((1, 2)))

    def test_scan_cursor_is_rejected_by_queue_decoder(self):
        with pytest.raises(InvalidCursorError, match="expected a 'queue'"):
            decode_cursor(encode_scan_cursor(ScanState().to_dict()))

    @pytest.mark.parametrize("bad", ["", "garbage!!", "AAAA"])
    def test_undecodable(self, bad):
        with pytest.raises(InvalidCursorError):
            decode_scan_cursor(bad)

    def test_truncated(self):
        cursor = encode_scan_cursor(ScanState().to_dict())
        with pytest.raises(InvalidCursorError):
            decode_scan_cursor(cursor[:-4])


# ----------------------------------------------------------------------
# wire differential: /v1/scan must be facade-indistinguishable
# ----------------------------------------------------------------------
class ServedWorld:
    def __init__(self, backend: str) -> None:
        self.service = _open_service(backend)
        self.server = AuditServer(self.service, port=0).start()
        self.client = AuditClient(self.server.host, self.server.port)

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.service.close()


@pytest.fixture(scope="module", params=BACKENDS)
def world(request):
    w = ServedWorld(request.param)
    yield w
    w.close()


class TestWireDifferential:
    @pytest.mark.parametrize("page_rows", (1, 7))
    def test_walked_pages_match_facade(self, world, page_rows):
        wire = [p.to_dict() for p in world.client.scan_pages(page_rows)]
        local = [
            p.to_dict() for p in world.service.scan_pages(page_rows)
        ]
        assert wire == local

    def test_scan_report_matches_one_shot(self, world):
        assert (
            world.client.scan_report(page_rows=5).to_dict()
            == world.service.report().to_dict()
        )

    def test_scan_explain_all_matches_one_shot(self, world):
        assert (
            world.client.scan_explain_all(page_rows=5)
            == world.service.explain_all()
        )

    def test_quantum_walk_matches_one_shot(self, world):
        report = world.client.scan_report(
            page_rows=10_000, quantum_seconds=1e-9
        )
        assert report.to_dict() == world.service.report().to_dict()

    def test_get_and_post_agree(self, world):
        get = world.client._request("GET", "/v1/scan?page_rows=3")
        post = world.client._request("POST", "/v1/scan", {"page_rows": 3})
        assert get["kind"] == post["kind"] == "ScanSlice"
        assert get["data"] == post["data"]
        page = ScanPage.from_dict(get["data"]["page"])
        assert page.rows == 3

    def test_get_cursor_walk(self, world):
        """The curl-facing GET form walks the same pages."""
        pages, cursor = [], None
        while True:
            path = "/v1/scan?page_rows=4" + (
                f"&cursor={cursor}" if cursor else ""
            )
            data = world.client._request("GET", path)["data"]
            pages.append(ScanPage.from_dict(data["page"]))
            cursor = data["next_cursor"]
            if cursor is None:
                break
        assert (
            assemble_report(pages).to_dict()
            == world.service.report().to_dict()
        )

    def test_done_page_has_no_cursor(self, world):
        page, cursor = world.client.scan_page(page_rows=10_000)
        assert page.done
        assert cursor is None

    def test_huge_page_rows_is_clamped_not_rejected(self, world):
        data = world.client._request(
            "GET", "/v1/scan?page_rows=99999999"
        )["data"]
        assert ScanPage.from_dict(data["page"]).done

    def test_queue_cursor_at_scan_endpoint_is_typed_400(self, world):
        with pytest.raises(InvalidCursorError):
            world.client.scan_page(cursor=encode_cursor((1, 2)))

    def test_scan_cursor_at_queue_endpoint_is_typed_400(self, world):
        scan_cursor = encode_scan_cursor(ScanState().to_dict())
        with pytest.raises(InvalidCursorError):
            world.client.unexplained_page(cursor=scan_cursor)

    def test_tampered_cursor_is_typed_400(self, world):
        with pytest.raises(InvalidCursorError):
            world.client.scan_page(cursor="!!!not-a-cursor")

    def test_bad_budgets_are_typed_400(self, world):
        from repro.api import InvalidRequestError

        with pytest.raises(InvalidRequestError, match="page_rows"):
            world.client._request("GET", "/v1/scan?page_rows=0")
        with pytest.raises(InvalidRequestError, match="quantum_ms"):
            world.client._request("GET", "/v1/scan?quantum_ms=0")
        with pytest.raises(InvalidRequestError):
            world.client._request(
                "POST", "/v1/scan", {"page_rows": "three"}
            )
        with pytest.raises(InvalidRequestError):
            world.client._request(
                "POST", "/v1/scan", {"quantum_seconds": -1}
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_scan_resumes_on_fresh_server_replica(backend):
    """Kill the server mid-walk; a *new* server over a *new* service
    instance (same log) must continue from the wire cursor alone and
    produce the exact one-shot artifact."""
    first_service = _open_service(backend)
    expected = first_service.report().to_dict()
    pages = []
    with (
        AuditServer(first_service, port=0) as server,
        AuditClient(server.host, server.port) as client,
    ):
        page, cursor = client.scan_page(page_rows=6)
        pages.append(page)
        assert cursor is not None
    first_service.close()  # the original replica is gone

    replica = _open_service(backend)
    try:
        with (
            AuditServer(replica, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            for page in client.scan_pages(page_rows=6, cursor=cursor):
                pages.append(page)
    finally:
        replica.close()
    assert assemble_report(pages).to_dict() == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_wire_scan_survives_backdated_ingest(backend):
    """The acceptance scenario end to end: suspend over the wire,
    back-date an unexplainable ingest, resume — the assembled report is
    the pre-ingest snapshot, the new row invisible to this walk."""
    service = _open_service(backend)
    try:
        with (
            AuditServer(service, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            before = service.report().to_dict()
            page, cursor = client.scan_page(page_rows=4)
            pages = [page]
            assert cursor is not None
            backdated = client.ingest(
                "zz-nobody", "zz-nobody", dt.datetime(2000, 1, 1)
            )
            assert backdated.suspicious
            for page in client.scan_pages(page_rows=4, cursor=cursor):
                pages.append(page)
            assert assemble_report(pages).to_dict() == before
            served = [
                v.lid for page in pages for v in page.unexplained
            ]
            assert backdated.lid not in served
    finally:
        service.close()
