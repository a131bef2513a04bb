"""The typed blocking client of the v1 audit wire API.

:class:`AuditClient` mirrors the :class:`repro.api.AuditService` facade
method-for-method over HTTP: the same method names, the same typed
request/response dataclasses (rebuilt with the shared ``from_dict``
layer in :mod:`repro.api.messages`), the same typed exceptions (rebuilt
with :func:`repro.api.errors.error_from_wire`) — so application code
written against the in-process facade ports to remote serving by
swapping the constructor::

    from repro.client import AuditClient

    with AuditClient("127.0.0.1", 8080) as client:
        result = client.explain(17)                  # ExplainResult
        for page_entry in client.unexplained():      # cursor-walked
            ...
        for r in client.explain_batch([1, 2, 3]):    # NDJSON stream
            ...

Each call takes its method, path and expected envelope kind from the
endpoint :data:`repro.api.messages.ENDPOINTS` declares for it (looked
up by the name of the server handler that serves it).

Built on ``http.client`` only.  One persistent keep-alive connection is
reused across calls and transparently re-established when the server
(or an idle timeout) drops it; instances are not thread-safe — use one
client per thread.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from typing import Any
from urllib.parse import quote, urlencode

from ..api.errors import (
    WIRE_VERSION,
    AuditApiError,
    InternalServerError,
    WireFormatError,
    error_from_wire,
)
from ..api.messages import (
    ENDPOINTS,
    WIRE_KINDS,
    AuditReport,
    ExplainRequest,
    ExplainResult,
    IngestResult,
    PatientReport,
    ScanPage,
    UnexplainedView,
    assemble_partition,
    assemble_report,
    from_wire,
    jsonable,
)
from ..core.engine import BatchExplanation
from ..core.library import TemplateLibrary

#: The declared endpoints by the handler name that serves each.
_ENDPOINTS = {endpoint.handler: endpoint for endpoint in ENDPOINTS}

#: A ``{name}`` path-parameter segment of a declared path.
_PARAM = re.compile(r"\{\w+\}")


class AuditClient:
    """Typed blocking access to one audit server."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080, *, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "AuditClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _raw_request(
        self, method: str, path: str, body: Any | None = None
    ) -> http.client.HTTPResponse:
        """One request over the persistent connection, re-dialing once
        when the kept-alive socket turns out to be dead.

        A send-phase failure is always retried (the request never formed
        a complete frame, so the server cannot have acted on it).  A
        failure *after* the request was fully sent is only retried for
        idempotent methods — re-sending a POST whose response was lost
        could, e.g., ingest the same access twice.
        """
        payload = None
        headers = {"Accept": "application/json"}
        if body is not None:
            payload = json.dumps(body, default=str).encode()
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
            except (
                ConnectionError,
                http.client.NotConnected,
                http.client.CannotSendRequest,
            ):
                self.close()
                if attempt:
                    raise
                continue
            try:
                return conn.getresponse()
            except (
                ConnectionError,
                http.client.BadStatusLine,
                http.client.ResponseNotReady,
            ):
                self.close()
                if attempt or method != "GET":
                    raise
        raise AssertionError("unreachable")

    def _request(self, method: str, path: str, body: Any | None = None) -> dict:
        """One JSON round trip: returns the envelope dict, or raises the
        typed wire error the server sent."""
        return self._envelope(self._raw_request(method, path, body))

    def _envelope(self, response: http.client.HTTPResponse) -> dict:
        """Read a whole JSON response: the envelope dict, or the typed
        wire error it carries."""
        data = response.read()
        if response.will_close:
            self.close()
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise InternalServerError(
                f"server sent non-JSON ({response.status}): {data[:200]!r}"
            ) from exc
        if response.status >= 400:
            raise error_from_wire(payload, response.status)
        if not isinstance(payload, dict) or payload.get("v") != WIRE_VERSION:
            raise WireFormatError(
                f"unsupported response envelope: {str(payload)[:200]}"
            )
        return payload

    @staticmethod
    def _data(payload: dict, kind: str) -> Any:
        """The typed message of a :data:`WIRE_KINDS` envelope, or the data
        object of an ad-hoc one, after checking its kind."""
        if kind in WIRE_KINDS:
            return from_wire(payload, expected=kind)
        if payload.get("kind") != kind:
            raise WireFormatError(
                f"expected a {kind} envelope, got {payload.get('kind')!r}"
            )
        data = payload.get("data")
        if not isinstance(data, dict):
            raise WireFormatError(f"{kind} envelope carries no data object")
        return data

    def _call(
        self, handler: str, *params: Any, body: Any = None, **query: Any
    ) -> Any:
        """One round trip to the endpoint ``handler`` serves: ``params``
        fill the ``{name}`` segments of its first path in order, and the
        ``query`` values that are not None form the query string.
        Returns what :meth:`_data` makes of the reply."""
        endpoint = _ENDPOINTS[handler]
        path = endpoint.paths[0]
        if params:
            values = iter(params)
            path = _PARAM.sub(lambda _: quote(str(next(values)), safe=""), path)
        present = {k: v for k, v in query.items() if v is not None}
        if present:
            path = f"{path}?{urlencode(present)}"
        payload = self._request(endpoint.method, path, body)
        return self._data(payload, endpoint.kind)

    # ------------------------------------------------------------------
    # health and operations
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """The liveness payload (``{"status": "ok"}`` on a live server)."""
        return self._call("h_healthz")

    def metrics(self) -> dict:
        """Server request counters and latency percentiles."""
        return self._call("h_metrics")

    def stats(self) -> dict:
        """The service's operational counters (facade ``stats()``)."""
        return self._call("h_stats")

    # ------------------------------------------------------------------
    # readers (facade mirror)
    # ------------------------------------------------------------------
    def explain(self, request: ExplainRequest | Any) -> ExplainResult:
        """Why did this access happen?  Accepts an
        :class:`~repro.api.ExplainRequest` or a bare log id, exactly like
        the facade.

        Uses the POST form so the lid's JSON type travels exactly (the
        GET form exists for curl, but its query string cannot
        distinguish the string ``"17"`` from the integer 17).
        """
        if not isinstance(request, ExplainRequest):
            request = ExplainRequest(lid=request)
        return self._call("h_explain_post", body=request.to_dict())

    def explain_batch(
        self, lids: Iterable[Any], limit: int | None = None
    ) -> Iterator[ExplainResult]:
        """Stream one :class:`ExplainResult` per lid (server NDJSON).

        Results arrive incrementally — the first is yielded while later
        lids are still being evaluated.  The iterator must be exhausted
        (or closed) before the client issues its next call.
        """
        endpoint = _ENDPOINTS["s_explain_batch"]
        body: dict[str, Any] = {"lids": [jsonable(lid) for lid in lids]}
        if limit is not None:
            body["limit"] = limit
        response = self._raw_request(endpoint.method, endpoint.paths[0], body)
        if response.status >= 400:
            self._envelope(response)  # raises the typed error it carries
        try:
            for line in response:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line.decode("utf-8"))
                if "error" in payload:
                    raise error_from_wire(payload)
                yield from_wire(payload, expected=endpoint.kind)
        finally:
            # an abandoned stream leaves unread frames on the socket;
            # drop the connection so the next call starts clean
            if not response.isclosed() or response.will_close:
                self.close()

    def patient_report(
        self, patient: Any, limit: int | None = None
    ) -> PatientReport:
        """Every access to one patient's record, with explanations."""
        return self._call("h_patient_report", patient, limit=limit)

    def render_patient_report(
        self, patient: Any, limit: int | None = None
    ) -> str:
        """Plain-text portal screen, identical to the facade's."""
        from ..api.service import format_patient_report

        return format_patient_report(self.patient_report(patient, limit=limit))

    def report(self, limit: int | None = None) -> AuditReport:
        """The compliance-office artifact."""
        return self._call("h_report", limit=limit)

    def summary(self) -> str:
        """The one-line coverage summary (derived from :meth:`report`)."""
        return self.report().summary()

    def coverage(self) -> float:
        """Fraction of the log explained by at least one template."""
        return float(self._call("h_coverage")["coverage"])

    def unexplained_page(
        self, cursor: str | None = None, limit: int | None = None
    ) -> tuple[list[UnexplainedView], str | None, int]:
        """One page of the unexplained queue: ``(items, next_cursor,
        total)``.  Cursors are opaque — pass them back verbatim."""
        data = self._call("h_unexplained", cursor=cursor, limit=limit)
        items = [UnexplainedView.from_dict(item) for item in data["items"]]
        return items, data.get("next_cursor"), data["total"]

    def unexplained(
        self, page_size: int | None = None
    ) -> Iterator[UnexplainedView]:
        """Walk the whole unexplained queue, page by page, in the
        server's stable ``(date, lid)`` order."""
        cursor: str | None = None
        while True:
            items, cursor, _total = self.unexplained_page(cursor, page_size)
            yield from items
            if cursor is None:
                return

    def unexplained_lids(self, page_size: int | None = None) -> frozenset:
        """The candidate-misuse lid set (facade mirror, cursor-walked)."""
        return frozenset(view.lid for view in self.unexplained(page_size))

    # ------------------------------------------------------------------
    # resumable scans (facade mirror)
    # ------------------------------------------------------------------
    def scan_page(
        self,
        cursor: str | None = None,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
    ) -> tuple[ScanPage, str | None]:
        """One bounded slice of the resumable full-log scan: ``(page,
        next_cursor)``.  Cursors are opaque and carry the whole
        suspended scan state — pass one back verbatim to continue, on
        this server or on any replica over the same log (``None`` means
        the scan is done)."""
        body: dict[str, Any] = {}
        if cursor is not None:
            body["cursor"] = cursor
        if page_rows is not None:
            body["page_rows"] = page_rows
        if quantum_seconds is not None:
            body["quantum_seconds"] = quantum_seconds
        data = self._call("h_scan_post", body=body)
        return ScanPage.from_dict(data["page"]), data.get("next_cursor")

    def scan_pages(
        self,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
        cursor: str | None = None,
    ) -> Iterator[ScanPage]:
        """Walk the full-log scan slice by slice (facade
        ``scan_pages`` mirror).  Pass a suspended ``cursor`` to resume a
        walk mid-flight."""
        while True:
            page, cursor = self.scan_page(cursor, page_rows, quantum_seconds)
            yield page
            if cursor is None:
                return

    def scan_report(
        self,
        limit: int | None = None,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
    ) -> AuditReport:
        """:meth:`report`, walked as bounded scan slices — identical
        artifact, each slice its own short request."""
        return assemble_report(
            self.scan_pages(page_rows, quantum_seconds), limit=limit
        )

    def scan_explain_all(
        self,
        page_rows: int | None = None,
        quantum_seconds: float | None = None,
    ) -> BatchExplanation:
        """The facade's ``explain_all`` partition, walked as bounded
        scan slices."""
        return assemble_partition(self.scan_pages(page_rows, quantum_seconds))

    # ------------------------------------------------------------------
    # writers (facade mirror)
    # ------------------------------------------------------------------
    def ingest(
        self, user: Any, patient: Any, date: dt.datetime | None = None
    ) -> IngestResult:
        """Append one access to the audited log and explain it."""
        body = {"user": user, "patient": patient, "date": jsonable(date)}
        return self._call("h_ingest", body=body)

    def ingest_many(
        self, accesses: Sequence[tuple[Any, Any, dt.datetime | None]]
    ) -> list[IngestResult]:
        """Ingest a batch of ``(user, patient, date)`` accesses."""
        body = {
            "accesses": [
                {"user": user, "patient": patient, "date": jsonable(date)}
                for user, patient, date in accesses
            ]
        }
        data = self._call("h_ingest_batch", body=body)
        return [IngestResult.from_dict(r) for r in data["results"]]

    def add_templates(self, templates: TemplateLibrary) -> int:
        """Register a library's approved templates on the server;
        returns how many were offered (facade semantics)."""
        document = json.loads(templates.dumps_json())
        return int(self._call("h_templates_add", body=document)["added"])

    def templates(self) -> list[dict]:
        """The registered templates in list form
        (``{"name", "sql", "description"}`` each)."""
        return list(self._call("h_templates_list")["templates"])

    def template_library(self) -> TemplateLibrary:
        """The server's registered templates as an all-approved
        :class:`TemplateLibrary` (facade mirror, wire round-tripped)."""
        data = self._call("h_templates_dump")
        return TemplateLibrary.loads_json(json.dumps(data))

    def save_templates(self, path: str) -> None:
        """Persist the server's registered templates as a versioned JSON
        library file (facade mirror)."""
        self.template_library().dump(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AuditClient http://{self.host}:{self.port}>"


__all__ = ["AuditApiError", "AuditClient"]
