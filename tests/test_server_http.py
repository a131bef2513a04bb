"""Unit tests of the wire tier itself: cursors, metrics, routing, error
mapping, request parsing limits, and keep-alive — all against stub
services, so they run without building a hospital."""

import http.client
import json

import pytest

from repro.api import (
    ExplainRequest,
    ExplainResult,
    InvalidCursorError,
    InvalidRequestError,
    MethodNotAllowedError,
    NotFoundError,
    UnsupportedOperationError,
)
from repro.client import AuditClient
from repro.server import (
    CURSOR_VERSION,
    MAX_PAGE_LIMIT,
    AuditServer,
    Request,
    ServerMetrics,
    decode_cursor,
    encode_cursor,
    parse_scalar,
)


# ----------------------------------------------------------------------
# cursors
# ----------------------------------------------------------------------
class TestCursor:
    @pytest.mark.parametrize(
        "key",
        [("2010-01-04T08:18:00", 17), (4, 900), ("2010-01-04", "lid-x")],
    )
    def test_round_trip(self, key):
        assert decode_cursor(encode_cursor(key)) == key

    def test_opaque_but_versioned(self):
        import base64

        raw = base64.urlsafe_b64decode(encode_cursor((1, 2)))
        assert json.loads(raw)["v"] == CURSOR_VERSION

    @pytest.mark.parametrize(
        "bad",
        ["", "garbage!!", "AAAA", encode_cursor((3, 4))[:-4]],
    )
    def test_undecodable(self, bad):
        with pytest.raises(InvalidCursorError):
            decode_cursor(bad)

    def test_wrong_version(self):
        import base64

        cursor = base64.urlsafe_b64encode(
            json.dumps({"v": 999, "after": [1, 2]}).encode()
        ).decode()
        with pytest.raises(InvalidCursorError, match="version"):
            decode_cursor(cursor)

    @pytest.mark.parametrize("after", [None, 7, "x", [], [1], [1, 2, 3]])
    def test_bad_keys(self, after):
        import base64

        cursor = base64.urlsafe_b64encode(
            json.dumps({"v": CURSOR_VERSION, "after": after}).encode()
        ).decode()
        with pytest.raises(InvalidCursorError):
            decode_cursor(cursor)


# ----------------------------------------------------------------------
# scalars and metrics
# ----------------------------------------------------------------------
def test_parse_scalar():
    assert parse_scalar("17") == 17
    assert parse_scalar("-3") == -3
    assert parse_scalar("p00017") == "p00017"
    assert parse_scalar("3.5") == "3.5"
    # non-canonical integer forms must survive as strings — int() would
    # destroy leading zeros / signs and resolve the wrong id
    assert parse_scalar("0042") == "0042"
    assert parse_scalar("+1") == "+1"
    assert parse_scalar("1_0") == "1_0"


class TestServerMetrics:
    def test_counters(self):
        metrics = ServerMetrics()
        metrics.request_started()
        assert metrics.snapshot()["in_flight"] == 1
        metrics.request_finished("GET /x", 0.25, error=False)
        metrics.request_started()
        metrics.request_finished("GET /x", 0.75, error=True)
        snap = metrics.snapshot()
        assert snap["in_flight"] == 0
        assert snap["requests_total"] == 2
        assert snap["errors_total"] == 1
        assert snap["routes"]["GET /x"] == {"count": 2, "errors": 1}
        assert snap["latency_seconds"]["count"] == 2
        assert snap["latency_seconds"]["max"] == 0.75
        assert 0.25 <= snap["latency_seconds"]["p50"] <= 0.75
        assert snap["throughput"]["requests_per_second"] > 0

    def test_empty_snapshot(self):
        snap = ServerMetrics().snapshot()
        assert snap["latency_seconds"]["p99"] == 0.0
        assert snap["latency_seconds"]["mean"] == 0.0

    def test_reservoir_is_bounded(self):
        metrics = ServerMetrics(reservoir=10, seed=0)
        for i in range(100):
            metrics.request_started()
            metrics.request_finished("GET /x", float(i), error=False)
        snap = metrics.snapshot()
        # Constant memory: the sample never outgrows the reservoir, but
        # the observation count, mean, and max stay exact over all 100.
        assert snap["latency_seconds"]["sampled"] == 10
        assert len(metrics._samples) == 10
        assert snap["latency_seconds"]["count"] == 100
        assert snap["latency_seconds"]["max"] == 99.0
        assert snap["latency_seconds"]["mean"] == sum(range(100)) / 100
        assert snap["requests_total"] == 100


def _fill(metrics, latencies, route="GET /v1/explain"):
    for seconds in latencies:
        metrics.request_started()
        metrics.request_finished(route, seconds, error=False)


class TestReservoir:
    def test_exhaustive_percentiles_are_exact(self):
        metrics = ServerMetrics(reservoir=1000, seed=0)
        _fill(metrics, [i / 100 for i in range(1, 101)])
        latency = metrics.snapshot()["latency_seconds"]
        assert latency["count"] == 100
        assert latency["sampled"] == 100
        assert latency["p50"] == 0.50
        assert latency["p90"] == 0.90
        assert latency["p99"] == 0.99
        assert latency["max"] == 1.00
        assert latency["mean"] == pytest.approx(0.505)

    def test_overflow_keeps_constant_memory_and_exact_extremes(self):
        metrics = ServerMetrics(reservoir=16, seed=1)
        _fill(metrics, [float(i) for i in range(1000)])
        latency = metrics.snapshot()["latency_seconds"]
        assert latency["count"] == 1000
        assert latency["sampled"] == 16
        assert len(metrics._samples) == 16
        assert latency["max"] == 999.0  # exact, not sampled
        assert latency["mean"] == pytest.approx(499.5)  # exact, not sampled
        assert set(metrics._samples) <= {float(i) for i in range(1000)}

    def test_seeded_sampling_is_deterministic(self):
        runs = []
        for _ in range(2):
            metrics = ServerMetrics(reservoir=8, seed=42)
            _fill(metrics, [float(i) for i in range(200)])
            runs.append(list(metrics._samples))
        assert runs[0] == runs[1]


class TestPercentile:
    """Exact nearest-rank values — pins the ``round()`` banker's-rounding
    off-by-one (p50 of [1, 2, 3, 4] used to come out as 3)."""

    def test_even_sample_halfway_rank(self):
        sample = [1.0, 2.0, 3.0, 4.0]
        assert ServerMetrics._percentile(sample, 0.50) == 2.0
        assert ServerMetrics._percentile(sample, 0.90) == 4.0

    def test_singleton(self):
        assert ServerMetrics._percentile([10.0], 0.50) == 10.0
        assert ServerMetrics._percentile([10.0], 0.99) == 10.0

    def test_hundred_values_hit_the_named_ranks(self):
        sample = [float(i) for i in range(1, 101)]
        assert ServerMetrics._percentile(sample, 0.50) == 50.0
        assert ServerMetrics._percentile(sample, 0.90) == 90.0
        assert ServerMetrics._percentile(sample, 0.99) == 99.0
        assert ServerMetrics._percentile(sample, 1.00) == 100.0

    def test_empty_sample(self):
        assert ServerMetrics._percentile([], 0.50) == 0.0

    def test_extremes_are_clamped(self):
        assert ServerMetrics._percentile([1.0, 2.0], 0.0) == 1.0
        assert ServerMetrics._percentile([1.0, 2.0], 1.0) == 2.0


# ----------------------------------------------------------------------
# routing and error mapping (stub-backed live server)
# ----------------------------------------------------------------------
class StubService:
    """Just enough surface for the routes these tests hit."""

    def explain(self, request, *, wait=True):
        return ExplainResult(lid=request.lid, explanations=())

    def report(self, limit=None):
        raise UnsupportedOperationError(
            "report is disabled on this deployment", hint="use a bigger box"
        )

    def coverage(self):
        raise RuntimeError("kaboom")

    def patient_report(self, patient, limit=None):
        raise ValueError("bad patient value")

    def stats(self):
        return {"log_rows": 0}


@pytest.fixture(scope="module")
def stub_server():
    with AuditServer(StubService(), port=0) as server:
        yield server


@pytest.fixture
def client(stub_server):
    with AuditClient(stub_server.host, stub_server.port, timeout=10) as c:
        yield c


class TestErrorMapping:
    def _status_of(self, client, method, path, body=None):
        response = client._raw_request(method, path, body)
        payload = json.loads(response.read())
        return response.status, payload

    def test_unknown_route_is_typed_404(self, client):
        status, payload = self._status_of(client, "GET", "/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        with pytest.raises(NotFoundError):
            client._request("GET", "/nope")

    def test_wrong_method_is_typed_405(self, client):
        status, payload = self._status_of(client, "DELETE", "/v1/explain")
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert "GET" in payload["error"]["message"]
        with pytest.raises(MethodNotAllowedError):
            client._request("PUT", "/v1/report")

    def test_missing_lid_is_typed_400(self, client):
        status, payload = self._status_of(client, "GET", "/v1/explain")
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"

    def test_unsupported_operation_maps_to_501(self, client):
        status, payload = self._status_of(client, "GET", "/v1/report")
        assert status == 501
        assert payload["error"]["code"] == "unsupported_operation"
        assert payload["error"]["details"]["hint"] == "use a bigger box"
        with pytest.raises(UnsupportedOperationError) as excinfo:
            client.report()
        assert excinfo.value.hint == "use a bigger box"

    def test_service_value_error_maps_to_400(self, client):
        status, payload = self._status_of(
            client, "GET", "/v1/patients/p1/report"
        )
        assert status == 400
        assert "bad patient value" in payload["error"]["message"]

    def test_unexpected_error_maps_to_500(self, client):
        status, payload = self._status_of(client, "GET", "/v1/coverage")
        assert status == 500
        assert payload["error"]["code"] == "internal"
        assert "kaboom" in payload["error"]["message"]

    def test_bad_json_body_is_typed_400(self, client):
        response = client._raw_request("POST", "/v1/ingest")
        # no body at all
        payload = json.loads(response.read())
        assert response.status == 400
        assert "JSON" in payload["error"]["message"]

    def test_malformed_cursor_is_typed_400(self, client):
        with pytest.raises(InvalidCursorError):
            client.unexplained_page(cursor="!!!")

    def test_bad_limit_is_typed_400(self, client):
        with pytest.raises(InvalidRequestError, match="limit"):
            client._request("GET", "/v1/unexplained?limit=0")
        with pytest.raises(InvalidRequestError, match="integer"):
            client._request("GET", "/v1/explain?lid=1&limit=soon")


    @pytest.mark.parametrize(
        "body",
        [
            {"lid": 5, "limit": "x"},
            {"lid": 5, "limit": 2.5},
            {"lid": 5, "limit": True},
            {"lid": 5, "limit": 0},
            {"lid": [5]},
            {"lid": {"a": 1}},
            {"lid": True},
        ],
        ids=[
            "limit-str", "limit-float", "limit-bool", "limit-zero",
            "lid-list", "lid-dict", "lid-bool",
        ],
    )
    def test_malformed_explain_body_is_the_facades_typed_400(
        self, client, body
    ):
        with pytest.raises(ValueError) as facade:
            ExplainRequest.from_dict(body)
        status, payload = self._status_of(client, "POST", "/v1/explain", body)
        assert status == 400
        assert payload["error"] == {
            "code": "invalid_request",
            "message": str(facade.value),
        }
        batch = {"lids": [body["lid"]], "limit": body.get("limit")}
        status, payload = self._status_of(
            client, "POST", "/v1/explain/batch", batch
        )
        assert status == 400
        assert payload["error"]["message"] == str(facade.value)


class TestProtocol:
    def test_explain_get_and_post_agree(self, client):
        get = client._request("GET", "/v1/explain?lid=17")
        bare = client._request("POST", "/v1/explain", {"lid": 17})
        enveloped = client._request(
            "POST",
            "/v1/explain",
            {"v": 1, "kind": "ExplainRequest", "data": {"lid": 17}},
        )
        assert get["data"] == bare["data"] == enveloped["data"]
        assert get["data"]["lid"] == 17

    def test_lid_type_coercion(self, client):
        assert client.explain(17).lid == 17
        assert client.explain("p17").lid == "p17"
        # the typed client POSTs, so even an integer-looking string lid
        # keeps its JSON type end to end
        assert client.explain("17").lid == "17"
        # ...unlike the curl-facing GET form, which coerces canonically
        assert client._request("GET", "/v1/explain?lid=17")["data"]["lid"] == 17

    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}
        assert client._request("GET", "/v1/healthz")["data"]["status"] == "ok"

    def test_metrics_counts_requests_and_routes(self, client):
        before = client.metrics()["requests_total"]
        client.explain(1)
        client.explain(2)
        after = client.metrics()
        assert after["requests_total"] >= before + 2
        assert after["routes"]["GET /v1/explain"]["count"] >= 2
        assert after["in_flight"] >= 1  # the /metrics request itself

    def test_keep_alive_reuses_one_connection(self, client):
        client.healthz()
        first = client._conn
        client.explain(1)
        client.stats()
        assert client._conn is first

    @pytest.mark.parametrize("drain", [False, True])
    def test_close_with_live_connection_is_silent(self, drain, capfd, caplog):
        """Shutdown cancels the task parked on an idle keep-alive link;
        that must not surface as a CancelledError callback traceback."""
        import asyncio

        server = AuditServer(StubService(), port=0).start()
        with AuditClient(server.host, server.port, timeout=10) as client:
            client.healthz()  # the connection now idles in read_request()
            if drain:
                asyncio.run_coroutine_threadsafe(
                    server.stop_async(drain=True), server._loop
                ).result(timeout=10)
            server.close()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []
        assert capfd.readouterr().err == ""

    def test_unexplained_limit_is_clamped_not_rejected(self, stub_server):
        # a service whose queue works: reuse the real route shape
        class QueueService(StubService):
            def unexplained_queue(self):
                return ()

        with (
            AuditServer(QueueService(), port=0) as server,
            AuditClient(server.host, server.port) as c,
        ):
            payload = c._request(
                "GET", f"/v1/unexplained?limit={MAX_PAGE_LIMIT * 100}"
            )
            assert payload["data"]["items"] == []
            assert payload["data"]["next_cursor"] is None

    def test_oversized_body_is_typed_413(self, stub_server):
        connection = http.client.HTTPConnection(
            stub_server.host, stub_server.port, timeout=10
        )
        connection.putrequest("POST", "/v1/ingest")
        connection.putheader("Content-Length", str(10**9))
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 413
        assert payload["error"]["code"] == "payload_too_large"
        connection.close()

    def test_path_param_with_encoded_slash_still_routes(self, stub_server):
        class EchoService(StubService):
            def patient_report(self, patient, limit=None):
                from repro.api import PatientReport

                return PatientReport(patient=patient, entries=())

        with (
            AuditServer(EchoService(), port=0) as server,
            AuditClient(server.host, server.port) as c,
        ):
            # %2F must not split the path parameter into segments
            assert c.patient_report("a/b").patient == "a/b"
            assert c.patient_report("p 1%x").patient == "p 1%x"

    def test_http10_connection_closes(self, stub_server):
        connection = http.client.HTTPConnection(
            stub_server.host, stub_server.port, timeout=10
        )
        connection._http_vsn = 10
        connection._http_vsn_str = "HTTP/1.0"
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert response.will_close
        connection.close()

    def test_http10_stream_is_unframed_and_closes(self, stub_server):
        """An HTTP/1.0 peer cannot decode chunked framing: the NDJSON
        body must arrive raw, delimited by connection close."""
        import socket

        body = json.dumps({"lids": [1, 2]}).encode()
        with socket.create_connection(
            (stub_server.host, stub_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/explain/batch HTTP/1.0\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n" + body
            )
            raw = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break  # server closed: the HTTP/1.0 body delimiter
                raw += piece
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.0 200" in head.splitlines()[0]
        assert b"Transfer-Encoding" not in head
        assert b"Connection: close" in head
        lines = [json.loads(line) for line in payload.splitlines() if line]
        assert [ln["data"]["lid"] for ln in lines] == [1, 2]

    def test_connection_close_with_extra_tokens_closes(self, stub_server):
        """RFC 9112 §9.3: ``Connection`` is a comma-separated token
        list — ``close, TE`` must end the connection exactly like a
        bare ``close`` (an exact-string compare would keep it alive and
        hang a peer waiting to reuse the socket)."""
        import socket

        with socket.create_connection(
            (stub_server.host, stub_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                b"Connection: close, TE\r\n"
                b"\r\n"
            )
            raw = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break  # server honored close
                raw += piece
        head = raw.partition(b"\r\n\r\n")[0]
        assert b" 200 " in head.splitlines()[0]
        assert b"Connection: close" in head

    def test_body_without_content_length_is_typed_400_and_closes(
        self, stub_server
    ):
        """A body announced (Content-Type) but unframed (no
        Content-Length): treating it as bodyless would desync the
        connection — the body bytes would be parsed as the next request
        line.  The server must answer a typed 400, close, and never
        interpret the stray bytes as a second request."""
        import socket

        body = b'{"user": "u", "patient": "p"}'
        with socket.create_connection(
            (stub_server.host, stub_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/ingest HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"\r\n" + body
            )
            raw = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break  # server closed: the body was never re-parsed
                raw += piece
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert b" 400 " in head.splitlines()[0]
        assert b"Connection: close" in head
        error = json.loads(payload)["error"]
        assert error["code"] == "invalid_request"
        assert "Content-Length" in error["message"]
        # exactly one response came back — the stray body bytes did not
        # produce a second (necessarily malformed) response
        assert raw.count(b"HTTP/1.1") == 1

    def test_expect_100_continue_is_answered(self, stub_server):
        """curl sends Expect: 100-continue on large bodies; the server
        must emit the interim response or such clients stall ~1s per
        POST.  http.client transparently skips 1xx responses, so a
        working final response here proves the interim one was sent
        and well-formed."""
        import socket

        body = json.dumps({"lids": [5]}).encode()
        with socket.create_connection(
            (stub_server.host, stub_server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/explain/batch HTTP/1.1\r\n"
                b"Expect: 100-continue\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"\r\n"
            )
            sock.settimeout(10)
            interim = sock.recv(1024)
            assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            raw = b""
            while b"0\r\n\r\n" not in raw:
                raw += sock.recv(65536)
        assert b"HTTP/1.1 200" in raw.splitlines()[0]
        assert b'"lid":5' in raw.replace(b" ", b"")


# ----------------------------------------------------------------------
# Connection header token parsing
# ----------------------------------------------------------------------
class TestKeepAliveTokens:
    def _request(self, version, connection=None):
        headers = {} if connection is None else {"connection": connection}
        return Request(
            method="GET",
            target="/",
            path="/",
            query={},
            headers=headers,
            version=version,
        )

    def test_http11_defaults_to_persistent(self):
        assert self._request("HTTP/1.1").keep_alive

    def test_http10_defaults_to_close(self):
        assert not self._request("HTTP/1.0").keep_alive

    @pytest.mark.parametrize(
        "value",
        ["close", "Close", " close ", "close, TE", "TE, close", "keep-alive, close"],
    )
    def test_close_token_closes_regardless_of_list_position(self, value):
        assert not self._request("HTTP/1.1", value).keep_alive

    @pytest.mark.parametrize("value", ["TE", "upgrade", "te, upgrade", ""])
    def test_other_tokens_do_not_close_http11(self, value):
        assert self._request("HTTP/1.1", value).keep_alive

    @pytest.mark.parametrize(
        "value", ["keep-alive", "Keep-Alive", "keep-alive, TE", "TE , keep-alive"]
    )
    def test_keep_alive_token_persists_http10(self, value):
        assert self._request("HTTP/1.0", value).keep_alive

    def test_closeish_token_is_not_close(self):
        # token comparison, not substring matching
        assert self._request("HTTP/1.1", "closed").keep_alive
        assert self._request("HTTP/1.1", "disclose, TE").keep_alive


# ----------------------------------------------------------------------
# mid-stream NDJSON error semantics
# ----------------------------------------------------------------------
class FlakyService(StubService):
    """explain() succeeds, then blows up on the designated lid — after
    the first NDJSON line already hit the wire."""

    def explain(self, request, *, wait=True):
        if request.lid == "boom":
            raise UnsupportedOperationError(
                "flaky mid-stream", hint="retry later"
            )
        return ExplainResult(lid=request.lid, explanations=())


class TestMidStreamError:
    def test_wire_carries_data_line_then_error_line(self):
        """Once the 200 and a result line are on the wire the status
        cannot change; the server must append a final wire-error NDJSON
        line and terminate the chunked body cleanly."""
        import socket

        with AuditServer(FlakyService(), port=0) as server:
            body = json.dumps({"lids": ["ok", "boom"]}).encode()
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/explain/batch HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                    b"\r\n" + body
                )
                raw = b""
                while b"0\r\n\r\n" not in raw:
                    raw += sock.recv(65536)
        head, _, framed = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200" in head.splitlines()[0]
        # strip the chunked framing down to the NDJSON lines
        lines = [
            json.loads(line)
            for line in framed.splitlines()
            if line.startswith(b"{")
        ]
        assert lines[0]["data"]["lid"] == "ok"
        assert lines[1]["error"]["code"] == "unsupported_operation"

    def test_client_iterator_raises_rebuilt_typed_exception(self):
        with (
            AuditServer(FlakyService(), port=0) as server,
            AuditClient(server.host, server.port, timeout=10) as client,
        ):
            stream = client.explain_batch(["ok", "boom"])
            first = next(stream)
            assert first.lid == "ok"
            with pytest.raises(UnsupportedOperationError) as excinfo:
                next(stream)
            assert excinfo.value.hint == "retry later"
            # the client recovers: the next call works normally
            assert client.explain(5).lid == 5
