"""The versioned audit wire API: routes, dispatch, and server lifecycle.

:class:`AuditAPI` binds an opened :class:`~repro.api.AuditService` to the routes
declared in
:data:`repro.api.messages.ENDPOINTS` (the README renders the same list):
each endpoint's paths route to the handler it names, and ``METHOD path``
is its metrics label.

Every response is a versioned envelope (``{"v": 1, "kind": ..., "data":
...}``); every failure is a typed wire error from
:mod:`repro.api.errors` with its mapped HTTP status — including
:class:`~repro.api.errors.UnsupportedOperationError` → 501 for
operations a backend cannot host (mining on SQLite).

Service calls are blocking (they take the service's RWLock), so they
run in two tiers.  A point explain — ``GET``/``POST /v1/explain`` and
each lid of ``/v1/explain/batch`` — is first tried on the event-loop
thread as ``service.explain(request, wait=False)``, which answers only
if the read can start and finish without waiting (the memory backend,
no writer active or waiting).  A warm probe is pure
Python, so a pool thread would add two thread handoffs and no
parallelism.  When the service declines (returns None: a writer
pending, SQLite I/O) — and for every other call — the
loop hands the call to a small thread pool, where it may wait on the
lock while the loop keeps accepting connections.  The loop itself never
waits on the lock.  :class:`AuditServer` owns the loop: ``serve()``
blocks a CLI process until SIGINT/SIGTERM, ``start()``/``close()`` run
the whole server on a background thread for tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import inspect
import json
import logging
import re
import threading
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Callable
from typing import Any
from urllib.parse import unquote

from ..api.errors import (
    WIRE_VERSION,
    AuditApiError,
    InternalServerError,
    InvalidCursorError,
    InvalidRequestError,
    MethodNotAllowedError,
    NotFoundError,
)
from ..api.messages import (
    ENDPOINTS,
    Endpoint,
    ExplainRequest,
    ScanRequest,
    ScanState,
    jsonable,
    temporal,
    to_wire,
)
from ..core.library import TemplateLibrary
from ..db.errors import CapacityError, IntegrityError
from .cursor import (
    decode_cursor,
    decode_scan_cursor,
    encode_cursor,
    encode_scan_cursor,
)
from .http import ChunkedWriter, Request, dump_json, read_request, response_bytes
from .metrics import ServerMetrics

log = logging.getLogger("repro.server")

#: Default and maximum page sizes of ``/v1/unexplained``.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 500

#: Maximum per-slice row budget of ``/v1/scan`` (the default comes from
#: the service's ``AuditConfig.scan_page_rows``).
MAX_SCAN_PAGE_ROWS = 10_000

#: Route label metrics use for requests matching no route.
UNMATCHED = "<unmatched>"

#: Seconds a graceful drain waits for in-flight requests to finish.
DRAIN_GRACE_SECONDS = 10.0


def parse_scalar(raw: str) -> Any:
    """Recover a typed id from its query/path string form: a *canonical*
    integer representation comes back as ``int`` (log ids), everything
    else stays a string — including forms like ``"0042"`` whose leading
    zeros an int round trip would destroy.  A database whose ids are
    numeric *strings* is the one shape URL typing cannot distinguish;
    such clients should use ``POST /v1/explain``, which carries JSON
    types exactly."""
    try:
        value = int(raw)
    except ValueError:
        return raw
    return value if str(value) == raw else raw


def envelope(kind: str, data: Any) -> dict:
    """A versioned wire envelope around an ad-hoc (non-dataclass) payload
    — same shape :func:`repro.api.messages.to_wire` produces."""
    return {"v": WIRE_VERSION, "kind": kind, "data": data}


def _parse_access(obj: Any) -> tuple[Any, Any, Any]:
    """One ``(user, patient, date)`` access from its wire form (an object
    with ``user``/``patient`` and an optional ISO ``date``)."""
    if not isinstance(obj, dict):
        raise InvalidRequestError(
            f"each access must be an object, got {type(obj).__name__}"
        )
    user = obj.get("user")
    patient = obj.get("patient")
    if user is None or patient is None:
        raise InvalidRequestError("an access requires 'user' and 'patient'")
    date = obj.get("date")
    # checked for the whole batch before the service is called, so no
    # row of a batch holding a malformed access lands
    for name, value in (("user", user), ("patient", patient), ("date", date)):
        if isinstance(value, (bool, list, dict)):
            raise InvalidRequestError(
                f"access {name!r} must be a scalar, got {type(value).__name__}"
            )
    if isinstance(date, str):
        parsed = temporal(date)
        if isinstance(parsed, str):
            raise InvalidRequestError(
                f"access date must be ISO-formatted, got {date!r}"
            )
        date = parsed
    return user, patient, date


class AuditAPI:
    """The route table and handlers over one opened audit service."""

    def __init__(
        self,
        service: Any,
        *,
        max_workers: int = 8,
    ) -> None:
        self.service = service
        self.metrics = ServerMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        #: Whether the service's ``explain`` takes ``wait`` — one that
        #: does not is always called on the pool.
        self._explain_inline = "wait" in inspect.signature(
            service.explain
        ).parameters
        #: ``(endpoint, route label, path regex, bound handler)`` per path;
        #: handlers are looked up on the instance, so a method patched on
        #: the class before construction is the one routed to.
        self._routes: list[tuple[Endpoint, str, re.Pattern, Callable]] = [
            (
                endpoint,
                f"{endpoint.method} {path}",
                re.compile(
                    "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", path) + "$"
                ),
                getattr(self, endpoint.handler),
            )
            for endpoint in ENDPOINTS
            for path in endpoint.paths
        ]

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def resolve(self, request: Request) -> tuple[Endpoint, str, Callable]:
        """``(endpoint, route label, handler)`` — or the typed 404/405."""
        allowed: list[str] = []
        for endpoint, label, regex, handler in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            if endpoint.method != request.method:
                allowed.append(endpoint.method)
                continue
            request.path_params = {
                k: unquote(v) for k, v in match.groupdict().items()
            }
            return endpoint, label, handler
        if allowed:
            raise MethodNotAllowedError(
                f"{request.method} is not allowed on {request.path} "
                f"(allowed: {', '.join(sorted(set(allowed)))})"
            )
        raise NotFoundError(f"no route for {request.path}")

    async def _call(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run one blocking service call on the worker pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args, **kwargs)
        )

    async def _explain(self, request: ExplainRequest) -> Any:
        """One point explain: answered here on the loop thread when the
        service can do it without waiting (``wait=False`` gives a
        result), otherwise on the worker pool like every other call."""
        if self._explain_inline:
            result = self.service.explain(request, wait=False)
            if result is not None:
                return result
        return await self._call(self.service.explain, request)

    # ------------------------------------------------------------------
    # plain handlers (return the envelope dict; dispatch serializes)
    # ------------------------------------------------------------------
    async def h_healthz(self, request: Request) -> dict:
        return envelope("Health", {"status": "ok"})

    async def h_metrics(self, request: Request) -> dict:
        return envelope("Metrics", self.metrics.snapshot())

    async def h_explain_get(self, request: Request) -> dict:
        raw = request.query.get("lid")
        if raw is None:
            raise InvalidRequestError("explain requires a 'lid' query parameter")
        limit = request.query_int("limit", None, minimum=1)
        explain_request = ExplainRequest(lid=parse_scalar(raw), limit=limit)
        return to_wire(await self._explain(explain_request))

    async def h_explain_post(self, request: Request) -> dict:
        payload = request.json()
        if not isinstance(payload, dict):
            raise InvalidRequestError("explain body must be a JSON object")
        data = payload.get("data") if "kind" in payload else payload
        if not isinstance(data, dict):
            raise InvalidRequestError("explain body carries no request object")
        explain_request = ExplainRequest.from_dict(data)
        return to_wire(await self._explain(explain_request))

    async def h_patient_report(self, request: Request) -> dict:
        patient = parse_scalar(request.path_params["patient"])
        limit = request.query_int("limit", None, minimum=0)
        result = await self._call(self.service.patient_report, patient, limit=limit)
        return to_wire(result)

    async def h_report(self, request: Request) -> dict:
        limit = request.query_int("limit", None, minimum=0)
        result = await self._call(self.service.report, limit=limit)
        return to_wire(result)

    async def h_coverage(self, request: Request) -> dict:
        coverage = await self._call(self.service.coverage)
        return envelope("Coverage", {"coverage": coverage})

    async def h_stats(self, request: Request) -> dict:
        stats = await self._call(self.service.stats)
        return envelope("Stats", jsonable(stats))

    async def h_ingest(self, request: Request) -> dict:
        user, patient, date = _parse_access(request.json())
        result = await self._call(self.service.ingest, user, patient, date)
        return to_wire(result)

    async def h_ingest_batch(self, request: Request) -> dict:
        payload = request.json()
        accesses = payload.get("accesses") if isinstance(payload, dict) else None
        if not isinstance(accesses, list):
            raise InvalidRequestError(
                'ingest batch body must be {"accesses": [...]}'
            )
        parsed = [_parse_access(a) for a in accesses]
        results = await self._call(self.service.ingest_many, parsed)
        return envelope(
            "IngestBatch",
            {"count": len(results), "results": [r.to_dict() for r in results]},
        )

    async def h_templates_list(self, request: Request) -> dict:
        templates = await self._call(self.service.templates)
        return envelope(
            "Templates",
            {
                "count": len(templates),
                "templates": [
                    {
                        "name": t.name,
                        "sql": t.to_sql(),
                        "description": t.description,
                    }
                    for t in templates
                ],
            },
        )

    async def h_templates_dump(self, request: Request) -> dict:
        library = await self._call(self.service.template_library)
        return envelope("TemplateLibrary", json.loads(library.dumps_json()))

    async def h_templates_add(self, request: Request) -> dict:
        payload = request.json()
        if not isinstance(payload, dict):
            raise InvalidRequestError(
                "templates body must be a versioned library document "
                "(TemplateLibrary.dumps_json form)"
            )
        library = TemplateLibrary.loads_json(json.dumps(payload))
        added = await self._call(self.service.add_templates, library)
        return envelope("TemplatesAdded", {"added": added})

    async def h_unexplained(self, request: Request) -> dict:
        """One page of the review queue.  The cursor is the ``(date,
        lid)`` key of the last item served (in JSON form, matching the
        queue's sort order), so the walk resumes strictly after it —
        stable even when back-dated ingests or newly registered
        templates reshape the queue between pages.

        Each page re-materializes the queue from the engine's
        delta-maintained unexplained set (one log scan + sort); pages
        stay correct under concurrent writes at the cost of
        O(log rows) work per page.  A generation-tagged queue cache is
        the known next step if walks over very large queues become a
        hot path."""
        limit = request.query_int("limit", DEFAULT_PAGE_LIMIT, minimum=1)
        limit = min(limit, MAX_PAGE_LIMIT)
        cursor = request.query.get("cursor")
        after = decode_cursor(cursor) if cursor else None
        queue = await self._call(self.service.unexplained_queue)
        offset = 0
        if after is not None:
            try:
                offset = bisect_right(
                    queue,
                    after,
                    key=lambda v: (jsonable(v.date), jsonable(v.lid)),
                )
            except TypeError:
                raise InvalidCursorError(
                    "cursor key is not comparable with this queue"
                ) from None
        page = queue[offset : offset + limit]
        next_cursor = None
        if page and offset + limit < len(queue):
            last = page[-1]
            next_cursor = encode_cursor(
                (jsonable(last.date), jsonable(last.lid))
            )
        return envelope(
            "UnexplainedPage",
            {
                "items": [view.to_dict() for view in page],
                "next_cursor": next_cursor,
                "total": len(queue),
            },
        )

    # --------------------------------------------------------- scans
    @staticmethod
    def _scan_state(cursor: str) -> ScanState:
        """Rebuild a suspended scan state from its cursor; shape errors
        are cursor errors (the client cannot have minted it)."""
        try:
            return ScanState.from_dict(decode_scan_cursor(cursor))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidCursorError(f"malformed scan state: {exc}") from exc

    async def _scan(self, scan: ScanRequest) -> dict:
        if scan.page_rows is not None and scan.page_rows > MAX_SCAN_PAGE_ROWS:
            scan = dataclasses.replace(scan, page_rows=MAX_SCAN_PAGE_ROWS)
        page = await self._call(self.service.scan, scan)
        next_cursor = (
            None if page.done else encode_scan_cursor(page.state.to_dict())
        )
        return envelope(
            "ScanSlice", {"page": page.to_dict(), "next_cursor": next_cursor}
        )

    async def h_scan_get(self, request: Request) -> dict:
        """One bounded slice of the resumable full-log scan.  A fresh
        request (no cursor) starts at the head of the stable ``(date,
        lid)`` order; the returned cursor carries the whole suspended
        scan state, so the next page may land on a freshly restarted
        server and continue exactly where this one stopped."""
        page_rows = request.query_int("page_rows", None, minimum=1)
        quantum_ms = request.query_int("quantum_ms", None, minimum=1)
        cursor = request.query.get("cursor")
        return await self._scan(
            ScanRequest(
                state=self._scan_state(cursor) if cursor else None,
                page_rows=page_rows,
                quantum_seconds=None if quantum_ms is None else quantum_ms / 1000.0,
            )
        )

    async def h_scan_post(self, request: Request) -> dict:
        """The typed-body twin of ``GET /v1/scan``: accepts a JSON
        object (optionally a ``ScanRequest`` envelope) with ``cursor``,
        ``page_rows``, and ``quantum_seconds`` fields."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise InvalidRequestError("scan body must be a JSON object")
        data = payload.get("data") if "kind" in payload else payload
        if not isinstance(data, dict):
            raise InvalidRequestError("scan body carries no request object")
        cursor = data.get("cursor")
        if cursor is not None and not isinstance(cursor, str):
            raise InvalidCursorError("cursor must be a string")
        # a bad budget is ScanRequest's ValueError, answered as a 400
        return await self._scan(
            ScanRequest(
                state=None if cursor is None else self._scan_state(cursor),
                page_rows=data.get("page_rows"),
                quantum_seconds=data.get("quantum_seconds"),
            )
        )

    # ------------------------------------------------------------------
    # streaming handlers (write the body themselves)
    # ------------------------------------------------------------------
    async def s_explain_batch(
        self, request: Request, chunks: ChunkedWriter
    ) -> None:
        """One NDJSON ``ExplainResult`` envelope per lid, in request
        order, each line flushed before the next lid is evaluated — a
        large batch streams instead of materializing."""
        payload = request.json()
        lids = payload.get("lids") if isinstance(payload, dict) else None
        if not isinstance(lids, list):
            raise InvalidRequestError('explain batch body must be {"lids": [...]}')
        limit = payload.get("limit")
        requests = [ExplainRequest(lid=lid, limit=limit) for lid in lids]
        for explain_request in requests:
            result = await self._explain(explain_request)
            await chunks.send(dump_json(to_wire(result)))
            # a lid answered on the loop thread never yielded: let other
            # connections in between lids, as the pool hop used to
            await asyncio.sleep(0)
        await chunks.finish()


class AuditServer:
    """The asyncio HTTP server around one :class:`AuditAPI`.

    Two lifecycles:

    * ``await serve_async()`` inside a running loop (what :func:`serve`
      does for the CLI);
    * ``start()``/``close()`` — spin the loop on a daemon thread and
      return once the port is bound, for tests and benchmarks that need
      a live server next to blocking client code.
    """

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_workers: int = 8,
    ) -> None:
        self.api = AuditAPI(service, max_workers=max_workers)
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        #: Draining: stop accepting, finish in-flight requests, close
        #: keep-alive connections (responses carry ``Connection: close``).
        self._draining = False
        self._conn_tasks: set[asyncio.Task] = set()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while not self._draining:
                try:
                    request = await read_request(reader, writer)
                except AuditApiError as exc:
                    # framing is broken; answer once and drop the link
                    writer.write(
                        response_bytes(
                            exc.http_status,
                            dump_json(exc.to_wire()),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                keep_alive = await self._dispatch(
                    request, writer, request.keep_alive
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Only this server's own shutdown cancels a connection task
            # (stop_async's drain, the background runner's final sweep)
            # and nothing awaits its result, so the task ends normally:
            # a task left *cancelled* makes start_server's done-callback
            # (which calls task.exception()) log a traceback on 3.11.
            pass
        finally:
            writer.close()
            # (the same cancellation can land here instead, on a link the
            # client closed a moment before the server did)
            with contextlib.suppress(
                ConnectionError, OSError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> bool:
        """Serve one request; returns whether the connection may be
        kept alive (an unframed HTTP/1.0 stream must close — the body
        has no other delimiter than EOF)."""
        keep_alive = keep_alive and not self._draining
        metrics = self.api.metrics
        metrics.request_started()
        started = time.perf_counter()
        route = UNMATCHED
        error = False
        chunks: ChunkedWriter | None = None
        chunked = request.version != "HTTP/1.0"
        try:
            endpoint, route, handler = self.api.resolve(request)
            if endpoint.streaming:
                chunks = ChunkedWriter(
                    writer, keep_alive=keep_alive, chunked=chunked
                )
                keep_alive = keep_alive and chunked
                await handler(request, chunks)
            else:
                payload = await handler(request)
                writer.write(
                    response_bytes(
                        200, dump_json(payload), keep_alive=keep_alive
                    )
                )
                await writer.drain()
        except Exception as exc:  # noqa: BLE001 - the wire boundary
            error = True
            wire_error = self._as_wire_error(exc)
            if chunks is not None and chunks.started:
                # mid-stream failure: emit a final error line, then end
                # the chunked body so the client sees a complete frame
                await chunks.send(dump_json(wire_error.to_wire()))
                await chunks.finish()
            else:
                writer.write(
                    response_bytes(
                        wire_error.http_status,
                        dump_json(wire_error.to_wire()),
                        keep_alive=keep_alive,
                    )
                )
                await writer.drain()
        finally:
            metrics.request_finished(
                route, time.perf_counter() - started, error
            )
        return keep_alive

    @staticmethod
    def _as_wire_error(exc: Exception) -> AuditApiError:
        """Every failure leaves as a typed wire error: API errors pass
        through (501 for unsupported operations included), bad values
        from request construction and rows the log's schema rejects map
        to 400 (a full in-memory table stays a 500), anything else to
        500."""
        if isinstance(exc, AuditApiError):
            return exc
        if isinstance(exc, ValueError) or (
            isinstance(exc, IntegrityError) and not isinstance(exc, CapacityError)
        ):
            return InvalidRequestError(str(exc))
        log.exception("unhandled error serving request")
        return InternalServerError(f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start_async(self) -> None:
        """Bind the listening socket inside the running loop."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop_async(self, drain: bool = False) -> None:
        """Stop the listener.  With ``drain=True`` this is the graceful
        SIGTERM path: close the listening socket first (new dials are
        refused), let every in-flight request — streaming responses
        included — run to completion (bounded by
        :data:`DRAIN_GRACE_SECONDS`), then close idle keep-alive
        connections.  Responses sent while draining carry ``Connection:
        close``.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            self._draining = True
            loop = asyncio.get_running_loop()
            deadline = loop.time() + DRAIN_GRACE_SECONDS
            while self.api.metrics.in_flight > 0 and loop.time() < deadline:
                await asyncio.sleep(0.02)
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *list(self._conn_tasks), return_exceptions=True
                )
        self.api.close()

    # --- background-thread mode (tests, benchmarks) -------------------
    def start(self) -> "AuditServer":
        """Run the server on a daemon thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")

        def runner() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start_async())
            except BaseException as exc:  # noqa: BLE001 - start() raises from it
                self._startup_error = exc
                self._started.set()
                loop.close()
                return
            self._started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.stop_async())
                # open keep-alive connections idle in read_request();
                # cancel them so the loop closes without leaked tasks
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def close(self) -> None:
        """Stop the background-thread server and release the executor."""
        loop, thread = self._loop, self._thread
        self._loop = self._thread = None
        if loop is not None and thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
        else:
            self.api.close()

    def __enter__(self) -> "AuditServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()


def serve(
    service: Any,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    print_fn: Callable[[str], None] = print,
) -> int:
    """Serve blocking until SIGINT/SIGTERM — the ``repro-audit serve``
    engine.  Prints one ``listening on http://host:port`` line once the
    socket is bound (scripts parse it to learn an ephemeral port) and
    returns 0 on a clean signal-driven shutdown."""

    async def main() -> None:
        import signal

        server = AuditServer(service, host, port)
        await server.start_async()
        print_fn(f"listening on {server.base_url}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # non-Unix platforms fall back to KeyboardInterrupt
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        try:
            await stop.wait()
        finally:
            # Graceful drain: refuse new dials, finish in-flight work
            # (streaming responses included), close keep-alive links.
            await server.stop_async(drain=True)
        print_fn("shutdown complete")

    with contextlib.suppress(KeyboardInterrupt):  # non-Unix fallback
        asyncio.run(main())
    return 0


__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "MAX_PAGE_LIMIT",
    "MAX_SCAN_PAGE_ROWS",
    "AuditAPI",
    "AuditServer",
    "envelope",
    "parse_scalar",
    "serve",
]
