"""The wire serialization layer: ``from_dict(to_dict(x)) == x`` for
every message type, versioned envelopes, and the typed error hierarchy.
"""

import datetime as dt
import json

import pytest

from repro.api import (
    WIRE_KINDS,
    WIRE_VERSION,
    AccessView,
    AuditApiError,
    AuditReport,
    ExplainRequest,
    ExplainResult,
    ExplanationView,
    IngestResult,
    InternalServerError,
    InvalidCursorError,
    InvalidRequestError,
    MineRequest,
    MineResult,
    MinedTemplateView,
    NotFoundError,
    PatientReport,
    ScanPage,
    ScanRequest,
    ScanState,
    UnexplainedView,
    UnsupportedOperationError,
    WireFormatError,
    error_from_wire,
    from_wire,
    temporal,
    to_wire,
)

STAMP = dt.datetime(2010, 1, 4, 8, 18, 3)


def _view(**overrides):
    base = dict(
        text="Alice saw Dr. Dave",
        path_length=2,
        template="appt",
        bindings={"L.Lid": 17, "A.Date": STAMP},
    )
    base.update(overrides)
    return ExplanationView(**base)


#: One representative instance per wire-transportable message type —
#: parametrizes the round-trip laws below.  Every WIRE_KINDS entry must
#: appear (enforced by test_every_wire_kind_has_a_sample).
SAMPLES = {
    "ExplainRequest": ExplainRequest(lid=17, limit=3),
    "ExplanationView": _view(),
    "ExplainResult": ExplainResult(lid=17, explanations=(_view(),)),
    "AccessView": AccessView(
        lid=17, date=STAMP, user="u0042", explanations=("ok",)
    ),
    "PatientReport": PatientReport(
        patient="p00017",
        entries=(
            AccessView(lid=17, date=STAMP, user="u0042", explanations=()),
            AccessView(lid=18, date=4, user="u0001", explanations=("x", "y")),
        ),
    ),
    "IngestResult": IngestResult(
        lid=99,
        date=STAMP,
        user="u0042",
        patient="p00017",
        explanations=(_view(bindings={}),),
        alerted=False,
    ),
    "UnexplainedView": UnexplainedView(
        lid=900, date=STAMP, user="Eve", patient="Bob"
    ),
    "AuditReport": AuditReport(
        total=5,
        unexplained_count=1,
        coverage=0.8,
        queue=(UnexplainedView(lid=900, date=4, user="Eve", patient="Bob"),),
        user_risk=(("Eve", 1),),
    ),
    "ScanState": ScanState(after=(STAMP, 17), seen=10, unexplained=3),
    "ScanRequest": ScanRequest(
        state=ScanState(after=(4, 900), seen=2, unexplained=1),
        page_rows=5,
        quantum_seconds=0.25,
    ),
    "ScanPage": ScanPage(
        rows=2,
        explained=(17,),
        unexplained=(
            UnexplainedView(lid=900, date=STAMP, user="Eve", patient="Bob"),
        ),
        state=ScanState(after=(STAMP, 900), seen=2, unexplained=1),
        done=False,
    ),
    "MineRequest": MineRequest(algorithm="two-way", support_fraction=0.2),
    "MinedTemplateView": MinedTemplateView(sql="SELECT 1", support=4, length=2),
    "MineResult": MineResult(
        algorithm="one-way",
        threshold=2.0,
        templates=(MinedTemplateView(sql="SELECT 1", support=4, length=2),),
        support_stats={
            "queries_run": 7,
            "skipped": 1,
            "cache_hits": 2,
            "query_time": 0.25,
            "join_steps": 11,
        },
        raw=None,
    ),
}


def test_every_wire_kind_has_a_sample():
    assert sorted(SAMPLES) == sorted(WIRE_KINDS)


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_from_dict_inverts_to_dict(kind):
    message = SAMPLES[kind]
    rebuilt = type(message).from_dict(message.to_dict())
    assert rebuilt == message


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_to_dict_is_json_serializable(kind):
    json.dumps(SAMPLES[kind].to_dict())  # must not raise


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_wire_envelope_round_trip(kind):
    message = SAMPLES[kind]
    envelope = to_wire(message)
    assert envelope["v"] == WIRE_VERSION
    assert envelope["kind"] == kind
    # the envelope itself must survive a JSON hop
    rebuilt = from_wire(json.loads(json.dumps(envelope)))
    assert rebuilt == message
    assert type(rebuilt) is type(message)


def test_round_trip_preserves_temporal_types():
    view = UnexplainedView(lid=1, date=STAMP, user="u", patient="p")
    rebuilt = UnexplainedView.from_dict(json.loads(json.dumps(view.to_dict())))
    assert rebuilt.date == STAMP
    assert isinstance(rebuilt.date, dt.datetime)


def test_round_trip_preserves_int_dates():
    """Toy databases use integer dates; they must not become strings."""
    view = UnexplainedView(lid=1, date=7, user="u", patient="p")
    assert UnexplainedView.from_dict(view.to_dict()).date == 7


class TestTemporal:
    def test_datetime_string(self):
        assert temporal("2010-01-04T08:18:03") == STAMP

    def test_date_string(self):
        assert temporal("2010-01-04") == dt.date(2010, 1, 4)

    def test_plain_strings_pass_through(self):
        assert temporal("p00017") == "p00017"
        assert temporal("not-a-date") == "not-a-date"

    def test_non_strings_pass_through(self):
        assert temporal(17) == 17
        assert temporal(None) is None
        assert temporal(STAMP) is STAMP


class TestFromWireValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(WireFormatError, match="must be an object"):
            from_wire([1, 2, 3])

    def test_rejects_wrong_version(self):
        envelope = to_wire(SAMPLES["ExplainResult"])
        envelope["v"] = 999
        with pytest.raises(WireFormatError, match="unsupported wire version"):
            from_wire(envelope)

    def test_rejects_unknown_kind(self):
        with pytest.raises(WireFormatError, match="unknown wire kind"):
            from_wire({"v": WIRE_VERSION, "kind": "Nope", "data": {}})

    def test_rejects_unexpected_kind(self):
        envelope = to_wire(SAMPLES["ExplainResult"])
        with pytest.raises(WireFormatError, match="expected a PatientReport"):
            from_wire(envelope, expected="PatientReport")

    def test_rejects_missing_data(self):
        with pytest.raises(WireFormatError, match="no data object"):
            from_wire({"v": WIRE_VERSION, "kind": "ExplainResult"})

    def test_malformed_data_is_wire_error_not_key_error(self):
        with pytest.raises(WireFormatError, match="malformed AuditReport"):
            from_wire(
                {"v": WIRE_VERSION, "kind": "AuditReport", "data": {"x": 1}}
            )

    def test_to_wire_rejects_foreign_objects(self):
        with pytest.raises(WireFormatError):
            to_wire(object())


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "cls,status",
        [
            (InvalidRequestError, 400),
            (WireFormatError, 400),
            (InvalidCursorError, 400),
            (NotFoundError, 404),
            (UnsupportedOperationError, 501),
            (InternalServerError, 500),
        ],
    )
    def test_codes_and_statuses(self, cls, status):
        error = cls("boom")
        assert error.http_status == status
        assert error.to_dict()["code"] == cls.code
        assert error.to_wire()["v"] == WIRE_VERSION

    def test_wire_round_trip(self):
        original = NotFoundError("no route", details={"path": "/nope"})
        rebuilt = error_from_wire(json.loads(json.dumps(original.to_wire())))
        assert type(rebuilt) is NotFoundError
        assert rebuilt.message == "no route"
        assert rebuilt.details == {"path": "/nope"}

    def test_unsupported_operation_round_trip_keeps_hint(self):
        original = UnsupportedOperationError("no mining", hint="use add_templates")
        rebuilt = error_from_wire(original.to_wire())
        assert isinstance(rebuilt, UnsupportedOperationError)
        assert isinstance(rebuilt, NotImplementedError)
        assert rebuilt.hint == "use add_templates"
        assert "use add_templates" in str(rebuilt)

    def test_unknown_code_degrades_gracefully(self):
        error = error_from_wire(
            {"v": 1, "error": {"code": "from_the_future", "message": "m"}},
            http_status=418,
        )
        assert type(error) is AuditApiError
        assert error.code == "from_the_future"
        assert error.http_status == 418

    def test_unreadable_envelope_degrades_gracefully(self):
        error = error_from_wire("garbage")
        assert isinstance(error, InternalServerError)
