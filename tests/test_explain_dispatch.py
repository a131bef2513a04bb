"""Where a point explain runs.

``explain(request, wait=False)`` answers only when it can start and
finish without waiting — a memory-backend service, with no writer active
or waiting on the service's RWLock — and returns None otherwise.
The HTTP server calls it on its event-loop thread and sends a None to
its worker pool as an ordinary ``explain``, so the loop never waits on
the lock.
"""

import http.client
import threading
import time

import pytest

from repro.api import (
    AuditConfig,
    ExplainRequest,
    ExplainResult,
    open_service,
    to_wire,
)
from repro.api.service import AuditService
from repro.client import AuditClient
from repro.ehr import SimulationConfig, simulate
from repro.server import AuditServer, dump_json

TIMEOUT = 10
LIDS = (1, 2, 3, 17, 40, 99, 250)


@pytest.fixture(scope="module")
def tiny_db():
    return simulate(SimulationConfig.tiny(seed=7)).db


@pytest.fixture
def service(tiny_db):
    with AuditService.open(tiny_db, config=AuditConfig()) as svc:
        yield svc


class _Holder:
    """A thread holding ``lock`` in ``mode`` from when ``held`` is set
    until :meth:`release`."""

    def __init__(self, lock, mode):
        self.lock, self.mode = lock, mode
        self.held = threading.Event()
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        getattr(self.lock, f"acquire_{self.mode}")()
        self.held.set()
        self.done.wait(TIMEOUT)
        getattr(self.lock, f"release_{self.mode}")()

    def release(self):
        self.done.set()
        self.thread.join(TIMEOUT)
        assert not self.thread.is_alive()


def _active_writer(lock):
    writer = _Holder(lock, "write")
    assert writer.held.wait(TIMEOUT)
    return writer


def _waiting_writer(lock):
    """A read hold of another thread, and a writer queued behind it."""
    reader = _Holder(lock, "read")
    assert reader.held.wait(TIMEOUT)
    writer = _Holder(lock, "write")
    deadline = time.monotonic() + TIMEOUT
    while lock._writers_waiting != 1:
        assert time.monotonic() < deadline, "writer never queued"
        time.sleep(0.001)
    return reader, writer


# ----------------------------------------------------------------------
# (b) the facade's non-waiting form
# ----------------------------------------------------------------------
class TestNonWaitingExplain:
    @pytest.mark.parametrize("limit", [None, 1])
    def test_equals_the_waiting_explain(self, service, limit):
        for lid in LIDS:
            request = ExplainRequest(lid=lid, limit=limit)
            answered = service.explain(request, wait=False)
            assert answered is not None
            assert answered == service.explain(request)
        assert service.explain(5, wait=False) == service.explain(5)

    def test_declines_while_a_writer_is_active(self, service):
        writer = _active_writer(service._lock)
        try:
            assert service.explain(3, wait=False) is None
        finally:
            writer.release()
        assert service.explain(3, wait=False) == service.explain(3)

    def test_declines_while_a_writer_is_waiting(self, service):
        reader, writer = _waiting_writer(service._lock)
        try:
            assert service.explain(3, wait=False) is None
        finally:
            reader.release()
            writer.release()
        assert service.explain(3, wait=False) == service.explain(3)

    def test_declines_on_sqlite(self, tiny_db):
        config = AuditConfig(backend="sqlite")
        with AuditService.open(tiny_db, config=config) as svc:
            assert svc.explain(3, wait=False) is None
            assert svc.explain(3).lid == 3

    def test_answers_inline_over_the_callers_database(self, tiny_db, monkeypatch):
        """The service's one engine runs over the caller's database, and
        every explain runs on the calling thread."""
        with open_service(tiny_db) as svc:
            assert svc.db is tiny_db and svc.engine.db is tiny_db
            threads = []
            explain = svc.engine.explain

            def recording(lid):
                threads.append(threading.current_thread())
                return explain(lid)

            monkeypatch.setattr(svc.engine, "explain", recording)
            for lid in LIDS:
                assert svc.explain(lid, wait=False) == svc.explain(lid)
            assert threads == [threading.current_thread()] * (2 * len(LIDS))


# ----------------------------------------------------------------------
# (a) the server's two tiers
# ----------------------------------------------------------------------
class _Recording:
    """The real service, recording each explain's ``wait`` and thread."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def explain(self, request, *, wait=True):
        self.calls.append((wait, threading.current_thread().name))
        return self.inner.explain(request, wait=wait)


def _get(server, path):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_uncontended_explain_is_answered_on_the_loop(service):
    recording = _Recording(service)
    with AuditServer(recording, port=0) as server:
        status, body = _get(server, "/v1/explain?lid=17")
    assert status == 200
    assert body == dump_json(to_wire(service.explain(17)))
    assert recording.calls == [(False, "repro-server")]


class _SlowLoopService:
    """Answers every explain on the loop thread, taking a few ms each."""

    def __init__(self):
        self.order = []

    def explain(self, request, *, wait=True):
        time.sleep(0.002)
        self.order.append(request.lid)
        return ExplainResult(lid=request.lid, explanations=())


def test_a_batch_answered_on_the_loop_lets_other_requests_in():
    service = _SlowLoopService()
    batch = [f"b{i}" for i in range(200)]
    with (
        AuditServer(service, port=0) as server,
        AuditClient(server.host, server.port, timeout=TIMEOUT) as streamer,
        AuditClient(server.host, server.port, timeout=TIMEOUT) as other,
    ):
        stream = streamer.explain_batch(batch)
        assert next(stream).lid == "b0"
        assert other.explain("x").lid == "x"
        assert [r.lid for r in stream] == batch[1:]
    assert service.order.index("x") < len(batch)


def test_loop_keeps_serving_while_a_writer_holds_the_lock(service):
    recording = _Recording(service)
    with AuditServer(recording, port=0) as server:
        writer = _active_writer(service._lock)
        replies = {}
        explainer = threading.Thread(
            target=lambda: replies.update(explain=_get(server, "/v1/explain?lid=17")),
            daemon=True,
        )
        try:
            explainer.start()
            deadline = time.monotonic() + TIMEOUT
            while len(recording.calls) < 2:
                assert time.monotonic() < deadline, "explain never reached the pool"
                time.sleep(0.001)
            # the explain now waits on the pool; the loop does not
            assert _get(server, "/healthz")[0] == 200
            assert "explain" not in replies
        finally:
            writer.release()
        explainer.join(TIMEOUT)
        assert not explainer.is_alive()
    status, body = replies["explain"]
    assert status == 200
    assert body == dump_json(to_wire(service.explain(17)))
    (inline_wait, loop), (pool_wait, pool) = recording.calls
    assert (inline_wait, loop) == (False, "repro-server")
    assert pool_wait is True and pool.startswith("repro-serve")
