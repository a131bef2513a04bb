"""Typed requests and responses of the public audit API, and the one
declaration of the ``/v1/`` surface that carries them.

Every message is a frozen dataclass registered by :func:`message`, which
derives its :meth:`~Message.to_dict` — plain JSON-serializable
structures (datetimes become ISO strings), the contract a web tier
serves and what ``repro-audit --json`` prints — and the exact inverse
:meth:`~Message.from_dict`, so ``from_dict(to_dict(x)) == x`` for every
message type and a client can rebuild the typed object from wire JSON.
A class states its wire shape once: the key order (computed and
renamed keys included) in the decorator, and per field the
:func:`wire` converters its value needs.

The wire layer wraps each message in a versioned envelope::

    {"v": 1, "kind": "ExplainResult", "data": {...to_dict()...}}

via :func:`to_wire`/:func:`from_wire`; version or kind mismatches raise
the typed :class:`~repro.api.errors.WireFormatError` instead of
producing a half-parsed object.  :data:`ENDPOINTS` lists the routes that
serve these envelopes; the server's routing, its metrics labels, and
every :class:`~repro.client.AuditClient` call are derived from it.
"""

from __future__ import annotations

import datetime as dt
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, NamedTuple, TypeVar

from ..audit.streaming import StreamedAccess
from ..core.instance import ExplanationInstance
from ..core.library import TemplateLibrary
from ..core.mining import MiningResult
from .errors import WIRE_VERSION, WireFormatError

#: Mining algorithms :class:`MineRequest` accepts.
MINING_ALGORITHMS = ("one-way", "two-way", "bridge")


def jsonable(value: Any) -> Any:
    """Recursively convert a value into JSON-serializable primitives."""
    if isinstance(value, (dt.datetime, dt.date)):
        return value.isoformat()
    if isinstance(value, (set, frozenset)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return value


def temporal(value: Any) -> Any:
    """Inverse of the temporal half of :func:`jsonable`: ISO-formatted
    strings come back as ``datetime``/``date`` objects (a bare
    ``YYYY-MM-DD`` is a date, anything with a time part a datetime);
    everything else passes through untouched.  A string that merely
    *looks* like a timestamp converts too — the wire format reserves ISO
    shapes for temporal values.
    """
    if isinstance(value, str):
        try:
            if len(value) == 10 and "T" not in value:
                return dt.date.fromisoformat(value)
            return dt.datetime.fromisoformat(value)
        except ValueError:
            return value
    return value


# ----------------------------------------------------------------------
# the message declaration
# ----------------------------------------------------------------------
#: ``kind -> class`` registry of every wire-transportable message type
#: (filled by :func:`message`).
WIRE_KINDS: dict[str, type] = {}

M = TypeVar("M", bound="Message")


class Message:
    """What :func:`message` gives a class: its JSON form and the inverse."""

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} is not a @message")

    @classmethod
    def from_dict(cls: type[M], data: dict) -> M:
        raise NotImplementedError(f"{cls.__name__} is not a @message")


def wire(
    encode: Callable[[Any], Any] | None = None,
    decode: Callable[[Any], Any] | None = None,
    *,
    one: type[Message] | None = None,
    many: type[Message] | None = None,
    **kwargs: Any,
) -> Any:
    """A message field with converters: ``encode`` maps the value to its
    JSON form and ``decode`` maps it back (a field without them travels
    as is).  ``one``/``many`` name the message class the field holds —
    one (or None), or a tuple of them.  Other arguments go to
    :func:`dataclasses.field`."""
    return field(metadata={"wire": (encode, decode, one, many)}, **kwargs)


def message(*keys: str) -> Callable[[type[M]], type[M]]:
    """Register a message dataclass in :data:`WIRE_KINDS` and derive its
    ``to_dict``/``from_dict``.

    ``keys`` is the wire key order; it defaults to the field order.  An
    entry ``"key=attr"`` sends attribute ``attr`` under ``key``.  A key
    naming no field is computed — read from the property on encode,
    skipped on decode.  A field left out of ``keys`` stays in process
    and takes its default on decode.  Decoding a missing key falls back
    to the field's default; a field without one is required.  The code
    is generated once per class, so encoding costs what a hand-written
    dict literal does.
    """

    def derive(cls: type[M]) -> type[M]:
        declared = {f.name: f for f in fields(cls)}  # type: ignore[arg-type]
        env: dict[str, Any] = {}
        encoded: list[str] = []
        decoded: list[str] = []
        for entry in keys or tuple(declared):
            key, _, attr = entry.partition("=")
            attr = attr or key
            value = f"self.{attr}"
            spec = declared.pop(attr, None)
            if spec is None:
                encoded.append(f"{key!r}: {value}")
                continue
            encode, decode, one, many = spec.metadata.get("wire", (None,) * 4)
            item = f"data[{key!r}]"
            if many is not None:
                env[f"k_{attr}"] = many
                value = f"[m.to_dict() for m in {value}]"
                item = f"tuple(k_{attr}.from_dict(m) for m in {item})"
            elif one is not None:
                env[f"k_{attr}"] = one
                value = f"(None if {value} is None else {value}.to_dict())"
                item = f"(None if {item} is None else k_{attr}.from_dict({item}))"
            if encode is not None:
                env[f"e_{attr}"] = encode
                value = f"e_{attr}({value})"
            if decode is not None:
                env[f"d_{attr}"] = decode
                item = f"d_{attr}({item})"
            if spec.default is not MISSING:
                env[f"v_{attr}"] = spec.default
                item = f"{item} if {key!r} in data else v_{attr}"
            elif spec.default_factory is not MISSING:
                env[f"v_{attr}"] = spec.default_factory
                item = f"{item} if {key!r} in data else v_{attr}()"
            encoded.append(f"{key!r}: {value}")
            decoded.append(f"{attr}={item}")
        required = [
            name
            for name, spec in declared.items()
            if spec.default is MISSING and spec.default_factory is MISSING
        ]
        if required:
            raise TypeError(f"{cls.__name__}: {required} are not on the wire")
        # the source holds only field names and keys declared above
        exec(
            f"def to_dict(self):\n return {{{', '.join(encoded)}}}\n"
            f"def from_dict(cls, data):\n return cls({', '.join(decoded)})\n",
            env,
        )
        cls.to_dict = env["to_dict"]  # type: ignore[method-assign]
        cls.from_dict = classmethod(env["from_dict"])  # type: ignore
        WIRE_KINDS[cls.__name__] = cls
        return cls

    return derive


def _is_count(value: Any) -> bool:
    """An integer >= 1 that is not a bool (JSON ``true`` is no count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
@message()
@dataclass(frozen=True)
class ExplainRequest(Message):
    """Explain one access: ``lid``, optionally capping the instances."""

    lid: Any = wire(jsonable, default=None)
    limit: int | None = None

    def __post_init__(self) -> None:
        # the wire hands these over unchecked; a bad value must fail here
        # (ValueError -> 400), not inside the engine (-> 500)
        if self.lid is None:
            raise ValueError("ExplainRequest requires a log id")
        if isinstance(self.lid, (bool, list, dict)):
            raise ValueError(
                f"lid must be a scalar log id, got {type(self.lid).__name__}"
            )
        if self.limit is not None and not _is_count(self.limit):
            raise ValueError("limit must be an integer >= 1 when given")


def _bindings_to_wire(bindings: dict) -> dict:
    # binding values are single column values, so only a date or
    # datetime needs converting (the per-reply hot path skips the
    # recursive jsonable)
    return {
        key: value.isoformat() if isinstance(value, dt.date) else value
        for key, value in bindings.items()
    }


def _bindings_from_wire(bindings: dict) -> dict:
    return {key: temporal(value) for key, value in bindings.items()}


@message()
@dataclass(frozen=True)
class ExplanationView(Message):
    """One rendered explanation instance."""

    text: str
    path_length: int
    template: str | None
    bindings: dict[str, Any] = wire(
        _bindings_to_wire, _bindings_from_wire, default_factory=dict
    )

    @classmethod
    def from_instance(cls, instance: ExplanationInstance) -> "ExplanationView":
        return cls(
            text=instance.render(),
            path_length=instance.path_length,
            template=instance.template.name,
            bindings=dict(instance.bindings),
        )


@message("lid", "explained", "explanations")
@dataclass(frozen=True)
class ExplainResult(Message):
    """The ranked explanations of one access (empty => suspicious)."""

    lid: Any = wire(jsonable, temporal)
    explanations: tuple[ExplanationView, ...] = wire(many=ExplanationView)

    @property
    def explained(self) -> bool:
        return bool(self.explanations)

    @property
    def suspicious(self) -> bool:
        """Unexplained accesses are candidate misuse (paper Section 1)."""
        return not self.explanations


# ----------------------------------------------------------------------
# patient report (the portal screen)
# ----------------------------------------------------------------------
@message("lid", "date", "user", "suspicious", "explanations")
@dataclass(frozen=True)
class AccessView(Message):
    """One access row of a patient's report."""

    lid: Any = wire(jsonable, temporal)
    date: Any = wire(jsonable, temporal)
    user: Any = wire(jsonable)
    explanations: tuple[str, ...] = wire(list, tuple)

    @property
    def suspicious(self) -> bool:
        return not self.explanations

    def headline(self) -> str:
        if self.explanations:
            return self.explanations[0]
        return "No explanation found — you may report this access."


@message()
@dataclass(frozen=True)
class PatientReport(Message):
    """Every access to one patient's record, each with explanations."""

    patient: Any = wire(jsonable)
    entries: tuple[AccessView, ...] = wire(many=AccessView)


# ----------------------------------------------------------------------
# ingest (streaming)
# ----------------------------------------------------------------------
@message(
    "lid", "date", "user", "patient", "explained", "alerted", "explanations"
)
@dataclass(frozen=True)
class IngestResult(Message):
    """The outcome of streaming one access into the audited log."""

    lid: Any = wire(jsonable, temporal)
    date: Any = wire(jsonable, temporal)
    user: Any = wire(jsonable)
    patient: Any = wire(jsonable)
    explanations: tuple[ExplanationView, ...] = wire(many=ExplanationView)
    alerted: bool = wire(decode=bool)

    @classmethod
    def from_streamed(
        cls, access: StreamedAccess, alerted: bool
    ) -> "IngestResult":
        return cls(
            lid=access.lid,
            date=access.date,
            user=access.user,
            patient=access.patient,
            explanations=tuple(
                ExplanationView.from_instance(i) for i in access.instances
            ),
            alerted=alerted,
        )

    @property
    def explained(self) -> bool:
        return bool(self.explanations)

    @property
    def suspicious(self) -> bool:
        return not self.explanations

    def headline(self) -> str:
        """The top-ranked explanation, or a no-explanation marker."""
        if self.explanations:
            return self.explanations[0].text
        return "no explanation found"


# ----------------------------------------------------------------------
# compliance report
# ----------------------------------------------------------------------
@message()
@dataclass(frozen=True)
class UnexplainedView(Message):
    """One unexplained access awaiting compliance review."""

    lid: Any = wire(jsonable, temporal)
    date: Any = wire(jsonable, temporal)
    user: Any = wire(jsonable)
    patient: Any = wire(jsonable)


def _risk_to_wire(user_risk: tuple) -> list:
    return [{"user": jsonable(u), "unexplained": n} for u, n in user_risk]


def _risk_from_wire(entries: list) -> tuple:
    return tuple((entry["user"], entry["unexplained"]) for entry in entries)


@message(
    "total",
    "explained=explained_count",
    "unexplained=unexplained_count",
    "coverage",
    "queue",
    "user_risk",
)
@dataclass(frozen=True)
class AuditReport(Message):
    """The compliance-office artifact: coverage plus the review queue."""

    total: int
    unexplained_count: int
    coverage: float
    queue: tuple[UnexplainedView, ...] = wire(many=UnexplainedView)
    user_risk: tuple[tuple[Any, int], ...] = wire(_risk_to_wire, _risk_from_wire)

    @property
    def explained_count(self) -> int:
        return self.total - self.unexplained_count

    def summary(self) -> str:
        """One-line coverage summary for the compliance dashboard."""
        return (
            f"{self.total} accesses; {self.explained_count} explained "
            f"({self.coverage:.1%}); {self.unexplained_count} in the "
            f"review queue"
        )


# ----------------------------------------------------------------------
# mining
# ----------------------------------------------------------------------
@message()
@dataclass(frozen=True)
class MineRequest(Message):
    """Mine explanation templates from the service's database."""

    algorithm: str = "one-way"
    support_fraction: float = 0.01
    max_length: int = 4
    max_tables: int = 3
    bridge_length: int = 2
    #: When True, mined templates are registered with the engine so they
    #: immediately participate in explain/report.
    register: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in MINING_ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {MINING_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if not 0 < self.support_fraction <= 1:
            raise ValueError("support_fraction must be in (0, 1]")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if self.max_tables < 1:
            raise ValueError("max_tables must be >= 1")
        if self.bridge_length < 1:
            raise ValueError("bridge_length must be >= 1")


@message("sql", "support", "length")
@dataclass(frozen=True)
class MinedTemplateView(Message):
    """One mined template: presentation fields plus the template object
    itself (off the wire), so API consumers never reach into the raw
    mining result."""

    sql: str
    support: int
    length: int
    template: Any = field(repr=False, compare=False, default=None)


@message("algorithm", "threshold", "templates", "support_stats")
@dataclass(frozen=True)
class MineResult(Message):
    """A mining run's output, with the raw result attached.  ``raw`` (and
    the per-view template objects) cannot travel: a result rebuilt from
    wire JSON compares equal, but :meth:`library` and
    :meth:`explanation_templates` are unavailable on it."""

    algorithm: str
    threshold: float
    templates: tuple[MinedTemplateView, ...] = wire(many=MinedTemplateView)
    support_stats: dict = wire(jsonable, dict)
    raw: MiningResult | None = field(repr=False, compare=False, default=None)

    def library(self) -> TemplateLibrary:
        """The mined templates as a reviewable library (all *suggested*),
        ready for :meth:`TemplateLibrary.dump`/``save``."""
        return TemplateLibrary.from_mining_result(self.raw)

    def explanation_templates(self) -> tuple:
        """The mined :class:`ExplanationTemplate` objects, mining order."""
        return tuple(v.template for v in self.templates)

    def templates_by_length(self) -> dict[int, tuple[MinedTemplateView, ...]]:
        """Mined templates grouped by join-path length."""
        out: dict[int, list[MinedTemplateView]] = {}
        for view in self.templates:
            out.setdefault(view.length, []).append(view)
        return {length: tuple(views) for length, views in out.items()}

    def signatures(self) -> set:
        """Condition-set signatures of every mined template (the
        algorithm-agreement identity)."""
        return {v.template.signature() for v in self.templates}


# ----------------------------------------------------------------------
# resumable scans
# ----------------------------------------------------------------------
def _after_from_wire(after: Any) -> tuple | None:
    if after is None:
        return None
    if not isinstance(after, (list, tuple)) or len(after) != 2:
        raise ValueError(f"after must be a [date, lid] pair, got {after!r}")
    return tuple(temporal(v) for v in after)


@message()
@dataclass(frozen=True)
class ScanState(Message):
    """Suspended state of a resumable full-log scan.

    Deliberately compact — the ``(date, lid)`` position of the last
    classified row plus the partial coverage accumulators — so it rides
    an opaque wire cursor and any fresh service/server instance over the
    same log can resume the walk from it.
    """

    #: Resume position in the stable ``(date, lid)`` order; None means
    #: the scan has not started.
    after: tuple | None = wire(jsonable, _after_from_wire, default=None)
    #: Log rows classified so far.
    seen: int = wire(decode=int, default=0)
    #: How many of them no template explained.
    unexplained: int = wire(decode=int, default=0)

    def __post_init__(self) -> None:
        if self.after is not None and (
            not isinstance(self.after, tuple) or len(self.after) != 2
        ):
            raise ValueError(
                f"after must be a (date, lid) pair, got {self.after!r}"
            )
        if self.seen < 0 or self.unexplained < 0:
            raise ValueError("seen and unexplained must be >= 0")
        if self.unexplained > self.seen:
            raise ValueError(
                f"unexplained ({self.unexplained}) cannot exceed "
                f"seen ({self.seen})"
            )


@message()
@dataclass(frozen=True)
class ScanRequest(Message):
    """Ask for the next bounded slice of a resumable full-log scan.

    ``None`` budgets fall back to the service's ``AuditConfig``
    (``scan_page_rows`` / ``scan_quantum_seconds``); a ``None`` state
    starts a fresh scan.
    """

    state: ScanState | None = wire(one=ScanState, default=None)
    page_rows: int | None = None
    quantum_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.page_rows is not None and not _is_count(self.page_rows):
            raise ValueError("page_rows must be an integer >= 1 when given")
        if self.quantum_seconds is not None and (
            not isinstance(self.quantum_seconds, (int, float))
            or isinstance(self.quantum_seconds, bool)
            or not self.quantum_seconds > 0
        ):
            raise ValueError("quantum_seconds must be a number > 0 when given")


def _temporals(values: list) -> tuple:
    return tuple(temporal(value) for value in values)


@message()
@dataclass(frozen=True)
class ScanPage(Message):
    """One classified slice of a resumable scan plus the resume state.

    ``explained`` lists the lids this slice explained and
    ``unexplained`` the full review-queue views for the rest, both in
    scan order — so accumulating pages until ``done`` rebuilds the exact
    one-shot ``explain_all`` partition *and* ``report`` artifact (see
    :func:`assemble_partition` / :func:`assemble_report`).
    """

    rows: int
    explained: tuple = wire(jsonable, _temporals)
    unexplained: tuple[UnexplainedView, ...] = wire(many=UnexplainedView)
    state: ScanState = wire(one=ScanState)
    done: bool = wire(decode=bool)


def assemble_partition(pages: Any) -> "BatchExplanation":
    """Union a completed scan's pages back into the one-shot
    ``explain_all`` partition (:class:`~repro.core.engine.
    BatchExplanation`); slices are disjoint, so this is exact."""
    from ..core.engine import BatchExplanation

    explained: set = set()
    unexplained: set = set()
    last = None
    for page in pages:
        explained.update(page.explained)
        unexplained.update(v.lid for v in page.unexplained)
        last = page
    if last is not None and not last.done:
        raise ValueError("scan is incomplete: the final page has done=False")
    return BatchExplanation(frozenset(explained), frozenset(unexplained))


def assemble_report(pages: Any, limit: int | None = None) -> AuditReport:
    """Fold a completed scan's pages into the exact :class:`AuditReport`
    the monolithic ``report()`` call returns: same queue order, same
    coverage arithmetic, same ``(-count, str(user))`` risk ranking."""
    queue: list[UnexplainedView] = []
    last = None
    for page in pages:
        queue.extend(page.unexplained)
        last = page
    if last is not None and not last.done:
        raise ValueError("scan is incomplete: the final page has done=False")
    state = last.state if last is not None else ScanState()
    counts: dict[Any, int] = {}
    for view in queue:
        counts[view.user] = counts.get(view.user, 0) + 1
    total = state.seen
    coverage = 0.0 if total == 0 else (total - state.unexplained) / total
    if limit is not None:
        queue = queue[:limit]
    return AuditReport(
        total=total,
        unexplained_count=state.unexplained,
        coverage=coverage,
        queue=tuple(queue),
        user_risk=tuple(
            sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
        ),
    )


# ----------------------------------------------------------------------
# versioned wire envelopes
# ----------------------------------------------------------------------
def to_wire(message: Any) -> dict:
    """Wrap a typed message in the versioned wire envelope::

        {"v": 1, "kind": "ExplainResult", "data": {...to_dict()...}}
    """
    kind = type(message).__name__
    if kind not in WIRE_KINDS:
        raise WireFormatError(f"{kind} is not a wire-transportable message")
    return {"v": WIRE_VERSION, "kind": kind, "data": message.to_dict()}


def from_wire(payload: Any, expected: str | None = None) -> Any:
    """Rebuild the typed message from a wire envelope.

    Raises :class:`~repro.api.errors.WireFormatError` on a non-dict
    payload, an unsupported version, an unknown kind, or — when
    ``expected`` is given — a kind other than the one the caller is
    prepared to handle.
    """
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"wire envelope must be an object, got {type(payload).__name__}"
        )
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version!r} "
            f"(this build speaks v{WIRE_VERSION})"
        )
    kind = payload.get("kind")
    cls = WIRE_KINDS.get(kind)
    if cls is None:
        raise WireFormatError(f"unknown wire kind {kind!r}")
    if expected is not None and kind != expected:
        raise WireFormatError(f"expected a {expected} envelope, got {kind}")
    data = payload.get("data")
    if not isinstance(data, dict):
        raise WireFormatError(f"{kind} envelope carries no data object")
    try:
        return cls.from_dict(data)  # type: ignore[attr-defined]
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed {kind} data: {exc}") from exc


# ----------------------------------------------------------------------
# the /v1/ surface
# ----------------------------------------------------------------------
class Endpoint(NamedTuple):
    """One route of the ``/v1/`` API.

    ``paths`` are aliases of one route (a ``{name}`` segment is a path
    parameter; clients call the first); ``handler`` names the
    :class:`~repro.server.AuditAPI` method that serves it and is the
    name clients look the endpoint up by; ``kind`` is the envelope kind
    of a successful reply (a :data:`WIRE_KINDS` message, or an ad-hoc
    payload).  A ``streaming`` reply is NDJSON, one envelope per line.
    """

    method: str
    paths: tuple[str, ...]
    handler: str
    kind: str
    streaming: bool = False


ENDPOINTS: tuple[Endpoint, ...] = (
    Endpoint("GET", ("/healthz", "/v1/healthz"), "h_healthz", "Health"),
    Endpoint("GET", ("/metrics", "/v1/metrics"), "h_metrics", "Metrics"),
    Endpoint("GET", ("/v1/explain",), "h_explain_get", "ExplainResult"),
    Endpoint("POST", ("/v1/explain",), "h_explain_post", "ExplainResult"),
    Endpoint(
        "POST",
        ("/v1/explain/batch",),
        "s_explain_batch",
        "ExplainResult",
        streaming=True,
    ),
    Endpoint(
        "GET",
        ("/v1/patients/{patient}/report",),
        "h_patient_report",
        "PatientReport",
    ),
    Endpoint("GET", ("/v1/report",), "h_report", "AuditReport"),
    Endpoint("GET", ("/v1/coverage",), "h_coverage", "Coverage"),
    Endpoint("GET", ("/v1/stats",), "h_stats", "Stats"),
    Endpoint("POST", ("/v1/ingest",), "h_ingest", "IngestResult"),
    Endpoint("POST", ("/v1/ingest/batch",), "h_ingest_batch", "IngestBatch"),
    Endpoint("GET", ("/v1/templates",), "h_templates_list", "Templates"),
    Endpoint("POST", ("/v1/templates",), "h_templates_add", "TemplatesAdded"),
    Endpoint("GET", ("/v1/templates/dump",), "h_templates_dump", "TemplateLibrary"),
    Endpoint("GET", ("/v1/unexplained",), "h_unexplained", "UnexplainedPage"),
    Endpoint("GET", ("/v1/scan",), "h_scan_get", "ScanSlice"),
    Endpoint("POST", ("/v1/scan",), "h_scan_post", "ScanSlice"),
)


__all__ = [
    "ENDPOINTS",
    "AccessView",
    "AuditReport",
    "Endpoint",
    "ExplainRequest",
    "ExplainResult",
    "ExplanationView",
    "IngestResult",
    "MINING_ALGORITHMS",
    "Message",
    "MineRequest",
    "MineResult",
    "MinedTemplateView",
    "PatientReport",
    "ScanPage",
    "ScanRequest",
    "ScanState",
    "UnexplainedView",
    "WIRE_KINDS",
    "WIRE_VERSION",
    "assemble_partition",
    "assemble_report",
    "from_wire",
    "jsonable",
    "message",
    "temporal",
    "to_wire",
    "wire",
]
