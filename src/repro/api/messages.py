"""Typed requests and responses of the public audit API.

Every dataclass here is frozen and offers :meth:`to_dict`, producing
plain JSON-serializable structures (datetimes become ISO strings, sets
become sorted lists) — the contract a web tier can serve directly, and
what ``repro-audit --json`` prints — plus the exact inverse
:meth:`from_dict`, so ``from_dict(to_dict(x)) == x`` for every message
type and a client can rebuild the typed object from wire JSON.

The wire layer wraps each message in a versioned envelope::

    {"v": 1, "kind": "ExplainResult", "data": {...to_dict()...}}

via :func:`to_wire`/:func:`from_wire`; version or kind mismatches raise
the typed :class:`~repro.api.errors.WireFormatError` instead of
producing a half-parsed object.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Any

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
# explain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExplainRequest:
    """Explain one access: ``lid``, optionally capping the instances."""

    lid: Any
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
        if self.limit is not None and (
            not isinstance(self.limit, int)
            or isinstance(self.limit, bool)
            or self.limit < 1
        ):
            raise ValueError("limit must be an integer >= 1 when given")

    def to_dict(self) -> dict:
        return {"lid": jsonable(self.lid), "limit": self.limit}

    @classmethod
    def from_dict(cls, data: dict) -> "ExplainRequest":
        return cls(lid=data.get("lid"), limit=data.get("limit"))


@dataclass(frozen=True)
class ExplanationView:
    """One rendered explanation instance."""

    text: str
    path_length: int
    template: str | None
    bindings: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_instance(cls, instance: ExplanationInstance) -> "ExplanationView":
        return cls(
            text=instance.render(),
            path_length=instance.path_length,
            template=instance.template.name,
            bindings=dict(instance.bindings),
        )

    def to_dict(self) -> dict:
        # binding values are single column values, so only a date or
        # datetime needs converting (the per-reply hot path skips the
        # recursive jsonable)
        return {
            "text": self.text,
            "path_length": self.path_length,
            "template": self.template,
            "bindings": {
                key: value.isoformat() if isinstance(value, dt.date) else value
                for key, value in self.bindings.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplanationView":
        return cls(
            text=data["text"],
            path_length=data["path_length"],
            template=data.get("template"),
            bindings={
                k: temporal(v) for k, v in (data.get("bindings") or {}).items()
            },
        )


@dataclass(frozen=True)
class ExplainResult:
    """The ranked explanations of one access (empty => suspicious)."""

    lid: Any
    explanations: tuple[ExplanationView, ...]

    @property
    def explained(self) -> bool:
        return bool(self.explanations)

    @property
    def suspicious(self) -> bool:
        """Unexplained accesses are candidate misuse (paper Section 1)."""
        return not self.explanations

    def to_dict(self) -> dict:
        return {
            "lid": jsonable(self.lid),
            "explained": self.explained,
            "explanations": [e.to_dict() for e in self.explanations],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplainResult":
        return cls(
            lid=temporal(data.get("lid")),
            explanations=tuple(
                ExplanationView.from_dict(e)
                for e in data.get("explanations") or ()
            ),
        )


# ----------------------------------------------------------------------
# patient report (the portal screen)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessView:
    """One access row of a patient's report."""

    lid: Any
    date: Any
    user: Any
    explanations: tuple[str, ...]

    @property
    def suspicious(self) -> bool:
        return not self.explanations

    def headline(self) -> str:
        if self.explanations:
            return self.explanations[0]
        return "No explanation found — you may report this access."

    def to_dict(self) -> dict:
        return {
            "lid": jsonable(self.lid),
            "date": jsonable(self.date),
            "user": jsonable(self.user),
            "suspicious": self.suspicious,
            "explanations": list(self.explanations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AccessView":
        return cls(
            lid=temporal(data.get("lid")),
            date=temporal(data.get("date")),
            user=data.get("user"),
            explanations=tuple(data.get("explanations") or ()),
        )


@dataclass(frozen=True)
class PatientReport:
    """Every access to one patient's record, each with explanations."""

    patient: Any
    entries: tuple[AccessView, ...]

    def to_dict(self) -> dict:
        return {
            "patient": jsonable(self.patient),
            "entries": [e.to_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PatientReport":
        return cls(
            patient=data.get("patient"),
            entries=tuple(
                AccessView.from_dict(e) for e in data.get("entries") or ()
            ),
        )


# ----------------------------------------------------------------------
# ingest (streaming)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestResult:
    """The outcome of streaming one access into the audited log."""

    lid: Any
    date: Any
    user: Any
    patient: Any
    explanations: tuple[ExplanationView, ...]
    alerted: bool

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

    def to_dict(self) -> dict:
        return {
            "lid": jsonable(self.lid),
            "date": jsonable(self.date),
            "user": jsonable(self.user),
            "patient": jsonable(self.patient),
            "explained": self.explained,
            "alerted": self.alerted,
            "explanations": [e.to_dict() for e in self.explanations],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IngestResult":
        return cls(
            lid=temporal(data.get("lid")),
            date=temporal(data.get("date")),
            user=data.get("user"),
            patient=data.get("patient"),
            explanations=tuple(
                ExplanationView.from_dict(e)
                for e in data.get("explanations") or ()
            ),
            alerted=bool(data.get("alerted", False)),
        )


# ----------------------------------------------------------------------
# compliance report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnexplainedView:
    """One unexplained access awaiting compliance review."""

    lid: Any
    date: Any
    user: Any
    patient: Any

    def to_dict(self) -> dict:
        return {
            "lid": jsonable(self.lid),
            "date": jsonable(self.date),
            "user": jsonable(self.user),
            "patient": jsonable(self.patient),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnexplainedView":
        return cls(
            lid=temporal(data.get("lid")),
            date=temporal(data.get("date")),
            user=data.get("user"),
            patient=data.get("patient"),
        )


@dataclass(frozen=True)
class AuditReport:
    """The compliance-office artifact: coverage plus the review queue."""

    total: int
    unexplained_count: int
    coverage: float
    queue: tuple[UnexplainedView, ...]
    user_risk: tuple[tuple[Any, int], ...]

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

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "explained": self.explained_count,
            "unexplained": self.unexplained_count,
            "coverage": self.coverage,
            "queue": [e.to_dict() for e in self.queue],
            "user_risk": [
                {"user": jsonable(u), "unexplained": n} for u, n in self.user_risk
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditReport":
        return cls(
            total=data["total"],
            unexplained_count=data["unexplained"],
            coverage=data["coverage"],
            queue=tuple(
                UnexplainedView.from_dict(e) for e in data.get("queue") or ()
            ),
            user_risk=tuple(
                (entry["user"], entry["unexplained"])
                for entry in data.get("user_risk") or ()
            ),
        )


# ----------------------------------------------------------------------
# mining
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MineRequest:
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

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "support_fraction": self.support_fraction,
            "max_length": self.max_length,
            "max_tables": self.max_tables,
            "bridge_length": self.bridge_length,
            "register": self.register,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MineRequest":
        known = {
            "algorithm",
            "support_fraction",
            "max_length",
            "max_tables",
            "bridge_length",
            "register",
        }
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class MinedTemplateView:
    """One mined template: presentation fields plus the template object
    itself (excluded from ``to_dict``), so API consumers never reach into
    the raw mining result."""

    sql: str
    support: int
    length: int
    template: Any = field(repr=False, compare=False, default=None)

    def to_dict(self) -> dict:
        return {"sql": self.sql, "support": self.support, "length": self.length}

    @classmethod
    def from_dict(cls, data: dict) -> "MinedTemplateView":
        return cls(
            sql=data["sql"], support=data["support"], length=data["length"]
        )


@dataclass(frozen=True)
class MineResult:
    """A mining run's output, with the raw result attached."""

    algorithm: str
    threshold: float
    templates: tuple[MinedTemplateView, ...]
    support_stats: dict
    raw: MiningResult = field(repr=False, compare=False)

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

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "threshold": self.threshold,
            "templates": [t.to_dict() for t in self.templates],
            "support_stats": jsonable(self.support_stats),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MineResult":
        """Rebuild the presentation half from wire JSON.  ``raw`` (and the
        per-view template objects) cannot travel; the reconstructed result
        compares equal but :meth:`library`/:meth:`explanation_templates`
        are unavailable on it."""
        return cls(
            algorithm=data["algorithm"],
            threshold=data["threshold"],
            templates=tuple(
                MinedTemplateView.from_dict(t) for t in data.get("templates") or ()
            ),
            support_stats=dict(data.get("support_stats") or {}),
            raw=None,
        )


# ----------------------------------------------------------------------
# resumable scans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScanState:
    """Suspended state of a resumable full-log scan.

    Deliberately compact — the ``(date, lid)`` position of the last
    classified row plus the partial coverage accumulators — so it rides
    an opaque wire cursor and any fresh service/server instance over the
    same log can resume the walk from it.
    """

    #: Resume position in the stable ``(date, lid)`` order; None means
    #: the scan has not started.
    after: tuple | None = None
    #: Log rows classified so far.
    seen: int = 0
    #: How many of them no template explained.
    unexplained: int = 0

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

    def to_dict(self) -> dict:
        return {
            "after": None if self.after is None else jsonable(self.after),
            "seen": self.seen,
            "unexplained": self.unexplained,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanState":
        after = data.get("after")
        if after is not None:
            if not isinstance(after, (list, tuple)) or len(after) != 2:
                raise ValueError(
                    f"after must be a [date, lid] pair, got {after!r}"
                )
            after = tuple(temporal(v) for v in after)
        return cls(
            after=after,
            seen=int(data.get("seen", 0)),
            unexplained=int(data.get("unexplained", 0)),
        )


@dataclass(frozen=True)
class ScanRequest:
    """Ask for the next bounded slice of a resumable full-log scan.

    ``None`` budgets fall back to the service's ``AuditConfig``
    (``scan_page_rows`` / ``scan_quantum_seconds``); a ``None`` state
    starts a fresh scan.
    """

    state: ScanState | None = None
    page_rows: int | None = None
    quantum_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.page_rows is not None and self.page_rows < 1:
            raise ValueError(
                f"page_rows must be >= 1, got {self.page_rows}"
            )
        if self.quantum_seconds is not None and not self.quantum_seconds > 0:
            raise ValueError(
                f"quantum_seconds must be > 0, got {self.quantum_seconds}"
            )

    def to_dict(self) -> dict:
        return {
            "state": None if self.state is None else self.state.to_dict(),
            "page_rows": self.page_rows,
            "quantum_seconds": self.quantum_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanRequest":
        state = data.get("state")
        return cls(
            state=None if state is None else ScanState.from_dict(state),
            page_rows=data.get("page_rows"),
            quantum_seconds=data.get("quantum_seconds"),
        )


@dataclass(frozen=True)
class ScanPage:
    """One classified slice of a resumable scan plus the resume state.

    ``explained`` lists the lids this slice explained and
    ``unexplained`` the full review-queue views for the rest, both in
    scan order — so accumulating pages until ``done`` rebuilds the exact
    one-shot ``explain_all`` partition *and* ``report`` artifact (see
    :func:`assemble_partition` / :func:`assemble_report`).
    """

    rows: int
    explained: tuple
    unexplained: tuple[UnexplainedView, ...]
    state: ScanState
    done: bool

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "explained": [jsonable(lid) for lid in self.explained],
            "unexplained": [v.to_dict() for v in self.unexplained],
            "state": self.state.to_dict(),
            "done": self.done,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanPage":
        return cls(
            rows=data["rows"],
            explained=tuple(
                temporal(lid) for lid in data.get("explained") or ()
            ),
            unexplained=tuple(
                UnexplainedView.from_dict(v)
                for v in data.get("unexplained") or ()
            ),
            state=ScanState.from_dict(data["state"]),
            done=bool(data["done"]),
        )


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
#: ``kind -> class`` registry of every wire-transportable message type.
WIRE_KINDS: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        AccessView,
        AuditReport,
        ExplainRequest,
        ExplainResult,
        ExplanationView,
        IngestResult,
        MineRequest,
        MineResult,
        MinedTemplateView,
        PatientReport,
        ScanPage,
        ScanRequest,
        ScanState,
        UnexplainedView,
    )
}


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
        return cls.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed {kind} data: {exc}") from exc


__all__ = [
    "AccessView",
    "AuditReport",
    "ExplainRequest",
    "ExplainResult",
    "ExplanationView",
    "IngestResult",
    "MINING_ALGORITHMS",
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
    "temporal",
    "to_wire",
]
