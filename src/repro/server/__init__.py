"""``repro.server`` — the stdlib HTTP/NDJSON wire tier.

A dependency-free asyncio HTTP server exposing an opened
:class:`~repro.api.AuditService` as the versioned ``/v1/`` JSON wire
API; the
routes are declared in :data:`repro.api.messages.ENDPOINTS`.  The
blocking counterpart lives in :mod:`repro.client`.

Embedding (tests, benchmarks, notebooks)::

    from repro.api import open_service
    from repro.server import AuditServer

    service = open_service("hospital/")
    with AuditServer(service, port=0) as server:   # ephemeral port
        ...  # hit server.base_url with repro.client.AuditClient

Production-style (the ``repro-audit serve`` subcommand)::

    from repro.server import serve
    serve(service, host="0.0.0.0", port=8080)      # blocks until SIGINT
"""

from .app import (
    DEFAULT_PAGE_LIMIT,
    MAX_PAGE_LIMIT,
    MAX_SCAN_PAGE_ROWS,
    AuditAPI,
    AuditServer,
    envelope,
    parse_scalar,
    serve,
)
from .cursor import (
    CURSOR_VERSION,
    decode_cursor,
    decode_scan_cursor,
    encode_cursor,
    encode_scan_cursor,
)
from .http import ChunkedWriter, Request, dump_json, read_request, response_bytes
from .metrics import ServerMetrics

__all__ = [
    "CURSOR_VERSION",
    "DEFAULT_PAGE_LIMIT",
    "MAX_PAGE_LIMIT",
    "MAX_SCAN_PAGE_ROWS",
    "AuditAPI",
    "AuditServer",
    "ChunkedWriter",
    "Request",
    "ServerMetrics",
    "decode_cursor",
    "decode_scan_cursor",
    "dump_json",
    "encode_cursor",
    "encode_scan_cursor",
    "envelope",
    "parse_scalar",
    "read_request",
    "response_bytes",
    "serve",
]
