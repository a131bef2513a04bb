"""The typed wire-error hierarchy of the public API.

Before the wire API, failures crossed layer boundaries as ad-hoc
``ValueError``/``KeyError``/``NotImplementedError`` instances — fine
in-process, useless on the wire, where a client needs a stable machine
code and an HTTP status.  Every error the serving tier can emit is an
:class:`AuditApiError` subclass carrying exactly that contract:

* ``code`` — a stable machine-readable identifier (``"invalid_request"``,
  ``"not_found"``, ...) clients can switch on;
* ``http_status`` — the HTTP status the server responds with;
* ``message`` — the human-readable description;
* ``details`` — optional structured context (e.g. a remediation hint).

``to_wire()`` renders the versioned error envelope the server sends::

    {"v": 1, "error": {"code": "not_found", "message": "..."}}

and :func:`error_from_wire` reconstructs the *same typed exception* on
the client side, so ``except NotFoundError:`` works identically against
an in-process service and a remote one — server and client share this
one serialization layer.
"""

from __future__ import annotations

from typing import Any

#: Version tag of every wire envelope (responses and errors alike).
WIRE_VERSION = 1


class AuditApiError(Exception):
    """Base of every wire-mappable API error."""

    #: Stable machine-readable identifier; subclasses override.
    code = "internal"
    #: HTTP status the server layer maps this error to.
    http_status = 500

    def __init__(self, message: str, *, details: dict | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.details = dict(details) if details else {}

    def to_dict(self) -> dict:
        """The ``error`` object of the wire envelope."""
        out: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            out["details"] = self.details
        return out

    def to_wire(self) -> dict:
        """The full versioned error envelope the server sends."""
        return {"v": WIRE_VERSION, "error": self.to_dict()}

    def __str__(self) -> str:
        hint = self.details.get("hint")
        if hint:
            return f"{self.message} ({hint})"
        return self.message


class InvalidRequestError(AuditApiError):
    """The request is malformed: bad parameter, bad body, bad value."""

    code = "invalid_request"
    http_status = 400


class WireFormatError(InvalidRequestError):
    """A wire envelope is unreadable: wrong version, kind, or shape."""

    code = "wire_format"


class InvalidCursorError(InvalidRequestError):
    """An opaque pagination cursor failed to decode or verify."""

    code = "invalid_cursor"


class NotFoundError(AuditApiError):
    """The requested route or resource does not exist."""

    code = "not_found"
    http_status = 404


class MethodNotAllowedError(AuditApiError):
    """The route exists but not under this HTTP method."""

    code = "method_not_allowed"
    http_status = 405


class PayloadTooLargeError(AuditApiError):
    """The request body exceeds the server's configured limit."""

    code = "payload_too_large"
    http_status = 413


class UnsupportedOperationError(AuditApiError, NotImplementedError):
    """The operation exists in the API but this deployment cannot run it
    (e.g. mining on the SQLite backend).  Subclasses
    ``NotImplementedError`` so pre-wire in-process callers keep working;
    the ``hint`` names the supported recipe.
    """

    code = "unsupported_operation"
    http_status = 501

    def __init__(
        self, message: str, *, hint: str | None = None, details: dict | None = None
    ) -> None:
        merged = dict(details) if details else {}
        if hint is not None:
            merged["hint"] = hint
        super().__init__(message, details=merged)

    @property
    def hint(self) -> str | None:
        """The remediation recipe, when one exists."""
        return self.details.get("hint")


class InternalServerError(AuditApiError):
    """An unexpected failure inside the service or server."""

    code = "internal"
    http_status = 500


#: ``code -> class`` registry :func:`error_from_wire` dispatches on.
ERROR_TYPES: dict[str, type[AuditApiError]] = {
    cls.code: cls
    for cls in (
        InvalidRequestError,
        WireFormatError,
        InvalidCursorError,
        NotFoundError,
        MethodNotAllowedError,
        PayloadTooLargeError,
        UnsupportedOperationError,
        InternalServerError,
    )
}


def error_from_wire(payload: Any, http_status: int | None = None) -> AuditApiError:
    """Reconstruct the typed exception from a wire error envelope.

    Unknown codes degrade to a generic :class:`AuditApiError` whose
    ``code``/``http_status`` mirror what the server sent — a newer server
    never crashes an older client's error handling.
    """
    if not isinstance(payload, dict) or not isinstance(payload.get("error"), dict):
        return InternalServerError(
            f"unreadable error envelope: {payload!r}"
        )
    error = payload["error"]
    code = error.get("code", "internal")
    message = error.get("message", "unknown error")
    details = error.get("details") or {}
    cls = ERROR_TYPES.get(code)
    if cls is None:
        out = AuditApiError(message, details=details)
        out.code = code
        if http_status is not None:
            out.http_status = http_status
        return out
    return cls(message, details=details)


__all__ = [
    "ERROR_TYPES",
    "WIRE_VERSION",
    "AuditApiError",
    "InternalServerError",
    "InvalidCursorError",
    "InvalidRequestError",
    "MethodNotAllowedError",
    "NotFoundError",
    "PayloadTooLargeError",
    "UnsupportedOperationError",
    "WireFormatError",
    "error_from_wire",
]
