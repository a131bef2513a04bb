"""The ``/v1/`` surface: pinned from the outside, and derived from one
declaration (``ENDPOINTS`` and ``@message`` in ``repro.api.messages``).

Golden literals fix the bytes the server sends and the key order the
CLI prints: ``dump_json(to_wire(x))`` for one sample of every message
kind, the ``json.dumps(x.to_dict(), indent=2)`` text of the same samples
(``dump_json`` sorts keys, ``repro-audit --json`` does not), and the
exact response bytes of every ad-hoc envelope (the payloads no message
class describes) from a tiny world under a frozen clock.  ``Stats`` and
``Metrics`` carry timings and are left out.

The declaration tests check what no code path enforces by itself: that
the typed client reaches every declared endpoint, that every message
dataclass is registered, and that the README tables agree with
``ENDPOINTS`` and ``ERROR_TYPES``.  Malformed input must be a typed 400.
"""

import dataclasses
import datetime as dt
import inspect
import json
import os
import re

import pytest
from test_api_messages_roundtrip import SAMPLES

from repro.api import (
    ENDPOINTS,
    WIRE_KINDS,
    AuditConfig,
    InvalidRequestError,
    ScanRequest,
    event_user_template,
    open_service,
    repeat_access_template,
    to_wire,
)
from repro.api import messages
from repro.api.errors import ERROR_TYPES
from repro.client import AuditClient
from repro.ehr import SimulationConfig, build_careweb_graph, simulate
from repro.server import AuditServer, dump_json

FROZEN_NOW = dt.datetime(2010, 1, 9, 12, 0, 0)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_service(**config):
    """The tiny world with two templates (repeat access, appointment with
    the doctor), so template payloads stay short, under a frozen clock."""
    db = simulate(SimulationConfig.tiny(seed=7)).db
    graph = build_careweb_graph(db)
    templates = [
        repeat_access_template(graph),
        event_user_template(graph, "Appointments", "Doctor"),
    ]
    return open_service(
        db,
        templates=templates,
        config=AuditConfig(**config),
        clock=lambda: FROZEN_NOW,
    )


def _readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# golden bytes
# ----------------------------------------------------------------------
SAMPLE_BYTES = {
    "AccessView": (
        b'{"data":{"date":"2010-01-04T08:18:03","explanations":["ok"],"lid":'
        b'17,"suspicious":false,"user":"u0042"},"kind":"AccessView","v":1}\n'
    ),
    "AuditReport": (
        b'{"data":{"coverage":0.8,"explained":4,"queue":[{"date":4,"lid":900'
        b',"patient":"Bob","user":"Eve"}],"total":5,"unexplained":1,"user_ri'
        b'sk":[{"unexplained":1,"user":"Eve"}]},"kind":"AuditReport","v":1}\n'
    ),
    "ExplainRequest": (
        b'{"data":{"lid":17,"limit":3},"kind":"ExplainRequest","v":1}\n'
    ),
    "ExplainResult": (
        b'{"data":{"explained":true,"explanations":[{"bindings":{"A.Date":"2'
        b'010-01-04T08:18:03","L.Lid":17},"path_length":2,"template":"appt",'
        b'"text":"Alice saw Dr. Dave"}],"lid":17},"kind":"ExplainResult","v"'
        b':1}\n'
    ),
    "ExplanationView": (
        b'{"data":{"bindings":{"A.Date":"2010-01-04T08:18:03","L.Lid":17},"p'
        b'ath_length":2,"template":"appt","text":"Alice saw Dr. Dave"},"kind'
        b'":"ExplanationView","v":1}\n'
    ),
    "IngestResult": (
        b'{"data":{"alerted":false,"date":"2010-01-04T08:18:03","explained":'
        b'true,"explanations":[{"bindings":{},"path_length":2,"template":"ap'
        b'pt","text":"Alice saw Dr. Dave"}],"lid":99,"patient":"p00017","use'
        b'r":"u0042"},"kind":"IngestResult","v":1}\n'
    ),
    "MineRequest": (
        b'{"data":{"algorithm":"two-way","bridge_length":2,"max_length":4,"m'
        b'ax_tables":3,"register":false,"support_fraction":0.2},"kind":"Mine'
        b'Request","v":1}\n'
    ),
    "MineResult": (
        b'{"data":{"algorithm":"one-way","support_stats":{"cache_hits":2,"jo'
        b'in_steps":11,"queries_run":7,"query_time":0.25,"skipped":1},"templ'
        b'ates":[{"length":2,"sql":"SELECT 1","support":4}],"threshold":2.0}'
        b',"kind":"MineResult","v":1}\n'
    ),
    "MinedTemplateView": (
        b'{"data":{"length":2,"sql":"SELECT 1","support":4},"kind":"MinedTem'
        b'plateView","v":1}\n'
    ),
    "PatientReport": (
        b'{"data":{"entries":[{"date":"2010-01-04T08:18:03","explanations":['
        b'],"lid":17,"suspicious":true,"user":"u0042"},{"date":4,"explanatio'
        b'ns":["x","y"],"lid":18,"suspicious":false,"user":"u0001"}],"patien'
        b't":"p00017"},"kind":"PatientReport","v":1}\n'
    ),
    "ScanPage": (
        b'{"data":{"done":false,"explained":[17],"rows":2,"state":{"after":['
        b'"2010-01-04T08:18:03",900],"seen":2,"unexplained":1},"unexplained"'
        b':[{"date":"2010-01-04T08:18:03","lid":900,"patient":"Bob","user":"'
        b'Eve"}]},"kind":"ScanPage","v":1}\n'
    ),
    "ScanRequest": (
        b'{"data":{"page_rows":5,"quantum_seconds":0.25,"state":{"after":[4,'
        b'900],"seen":2,"unexplained":1}},"kind":"ScanRequest","v":1}\n'
    ),
    "ScanState": (
        b'{"data":{"after":["2010-01-04T08:18:03",17],"seen":10,"unexplained'
        b'":3},"kind":"ScanState","v":1}\n'
    ),
    "UnexplainedView": (
        b'{"data":{"date":"2010-01-04T08:18:03","lid":900,"patient":"Bob","u'
        b'ser":"Eve"},"kind":"UnexplainedView","v":1}\n'
    ),
}

SAMPLE_TEXT = {
    "AccessView": """\
{
  "lid": 17,
  "date": "2010-01-04T08:18:03",
  "user": "u0042",
  "suspicious": false,
  "explanations": [
    "ok"
  ]
}
""",
    "AuditReport": """\
{
  "total": 5,
  "explained": 4,
  "unexplained": 1,
  "coverage": 0.8,
  "queue": [
    {
      "lid": 900,
      "date": 4,
      "user": "Eve",
      "patient": "Bob"
    }
  ],
  "user_risk": [
    {
      "user": "Eve",
      "unexplained": 1
    }
  ]
}
""",
    "ExplainRequest": """\
{
  "lid": 17,
  "limit": 3
}
""",
    "ExplainResult": """\
{
  "lid": 17,
  "explained": true,
  "explanations": [
    {
      "text": "Alice saw Dr. Dave",
      "path_length": 2,
      "template": "appt",
      "bindings": {
        "L.Lid": 17,
        "A.Date": "2010-01-04T08:18:03"
      }
    }
  ]
}
""",
    "ExplanationView": """\
{
  "text": "Alice saw Dr. Dave",
  "path_length": 2,
  "template": "appt",
  "bindings": {
    "L.Lid": 17,
    "A.Date": "2010-01-04T08:18:03"
  }
}
""",
    "IngestResult": """\
{
  "lid": 99,
  "date": "2010-01-04T08:18:03",
  "user": "u0042",
  "patient": "p00017",
  "explained": true,
  "alerted": false,
  "explanations": [
    {
      "text": "Alice saw Dr. Dave",
      "path_length": 2,
      "template": "appt",
      "bindings": {}
    }
  ]
}
""",
    "MineRequest": """\
{
  "algorithm": "two-way",
  "support_fraction": 0.2,
  "max_length": 4,
  "max_tables": 3,
  "bridge_length": 2,
  "register": false
}
""",
    "MineResult": """\
{
  "algorithm": "one-way",
  "threshold": 2.0,
  "templates": [
    {
      "sql": "SELECT 1",
      "support": 4,
      "length": 2
    }
  ],
  "support_stats": {
    "queries_run": 7,
    "skipped": 1,
    "cache_hits": 2,
    "query_time": 0.25,
    "join_steps": 11
  }
}
""",
    "MinedTemplateView": """\
{
  "sql": "SELECT 1",
  "support": 4,
  "length": 2
}
""",
    "PatientReport": """\
{
  "patient": "p00017",
  "entries": [
    {
      "lid": 17,
      "date": "2010-01-04T08:18:03",
      "user": "u0042",
      "suspicious": true,
      "explanations": []
    },
    {
      "lid": 18,
      "date": 4,
      "user": "u0001",
      "suspicious": false,
      "explanations": [
        "x",
        "y"
      ]
    }
  ]
}
""",
    "ScanPage": """\
{
  "rows": 2,
  "explained": [
    17
  ],
  "unexplained": [
    {
      "lid": 900,
      "date": "2010-01-04T08:18:03",
      "user": "Eve",
      "patient": "Bob"
    }
  ],
  "state": {
    "after": [
      "2010-01-04T08:18:03",
      900
    ],
    "seen": 2,
    "unexplained": 1
  },
  "done": false
}
""",
    "ScanRequest": """\
{
  "state": {
    "after": [
      4,
      900
    ],
    "seen": 2,
    "unexplained": 1
  },
  "page_rows": 5,
  "quantum_seconds": 0.25
}
""",
    "ScanState": """\
{
  "after": [
    "2010-01-04T08:18:03",
    17
  ],
  "seen": 10,
  "unexplained": 3
}
""",
    "UnexplainedView": """\
{
  "lid": 900,
  "date": "2010-01-04T08:18:03",
  "user": "Eve",
  "patient": "Bob"
}
""",
}

ENVELOPE_BYTES = {
    "Health": (
        b'{"data":{"status":"ok"},"kind":"Health","v":1}\n'
    ),
    "Coverage": (
        b'{"data":{"coverage":0.8920086393088553},"kind":"Coverage","v":1}\n'
    ),
    "UnexplainedPage": (
        b'{"data":{"items":[{"date":"2010-01-04T07:12:00","lid":1,"patient":'
        b'"p00035","user":"u0004"},{"date":"2010-01-04T07:13:00","lid":2,"pa'
        b'tient":"p00009","user":"u0003"}],"next_cursor":"eyJhZnRlciI6WyIyMD'
        b'EwLTAxLTA0VDA3OjEzOjAwIiwyXSwia2luZCI6InF1ZXVlIiwidiI6Mn0=","total'
        b'":100},"kind":"UnexplainedPage","v":1}\n'
    ),
    "ScanSlice": (
        b'{"data":{"next_cursor":"eyJraW5kIjoic2NhbiIsInN0YXRlIjp7ImFmdGVyIj'
        b'pbIjIwMTAtMDEtMDRUMDc6MTM6MDAiLDJdLCJzZWVuIjoyLCJ1bmV4cGxhaW5lZCI6'
        b'Mn0sInYiOjJ9","page":{"done":false,"explained":[],"rows":2,"state"'
        b':{"after":["2010-01-04T07:13:00",2],"seen":2,"unexplained":2},"une'
        b'xplained":[{"date":"2010-01-04T07:12:00","lid":1,"patient":"p00035'
        b'","user":"u0004"},{"date":"2010-01-04T07:13:00","lid":2,"patient":'
        b'"p00009","user":"u0003"}]}},"kind":"ScanSlice","v":1}\n'
    ),
    "Templates": (
        b'{"data":{"count":2,"templates":[{"description":"[L.User] accessed '
        b"[L.Patient]'s record because [L.User] previously accessed it on [L"
        b'og_1.Date].","name":"repeat-access","sql":"SELECT DISTINCT L.Lid\\n'
        b'FROM Log L, Log Log_1\\nWHERE L.Patient = Log_1.Patient\\n  AND Log_'
        b'1.User = L.User\\n  AND L.Date > Log_1.Date"},{"description":"[L.Us'
        b"er] accessed [L.Patient]'s record because [Appointments_1.Patient]"
        b' had an appointment with [Appointments_1.Doctor] on [Appointments_'
        b'1.Date].","name":"appointments-doctor","sql":"SELECT DISTINCT L.Li'
        b'd\\nFROM Log L, Appointments Appointments_1\\nWHERE L.Patient = Appo'
        b'intments_1.Patient\\n  AND Appointments_1.Doctor = L.User"}]},"kind'
        b'":"Templates","v":1}\n'
    ),
    "TemplateLibrary": (
        b'{"data":{"entries":[{"description":"[L.User] accessed [L.Patient]\''
        b's record because [L.User] previously accessed it on [Log_1.Date]."'
        b',"end_attr":"User","log_id_attr":"Lid","log_table":"Log","name":"r'
        b'epeat-access","sql":"SELECT DISTINCT L.Lid\\nFROM Log L, Log Log_1\\'
        b'nWHERE L.Patient = Log_1.Patient\\n  AND Log_1.User = L.User\\n  AND'
        b' L.Date > Log_1.Date","start_attr":"Patient","status":"approved","'
        b'support":null},{"description":"[L.User] accessed [L.Patient]\'s rec'
        b'ord because [Appointments_1.Patient] had an appointment with [Appo'
        b'intments_1.Doctor] on [Appointments_1.Date].","end_attr":"User","l'
        b'og_id_attr":"Lid","log_table":"Log","name":"appointments-doctor","'
        b'sql":"SELECT DISTINCT L.Lid\\nFROM Log L, Appointments Appointments'
        b'_1\\nWHERE L.Patient = Appointments_1.Patient\\n  AND Appointments_1'
        b'.Doctor = L.User","start_attr":"Patient","status":"approved","supp'
        b'ort":null}],"format":"repro.template-library","version":1},"kind":'
        b'"TemplateLibrary","v":1}\n'
    ),
    "TemplatesAdded": (
        b'{"data":{"added":2},"kind":"TemplatesAdded","v":1}\n'
    ),
    "IngestBatch": (
        b'{"data":{"count":2,"results":[{"alerted":false,"date":"2010-01-05T'
        b'09:00:00","explained":true,"explanations":[{"bindings":{"L.Lid":92'
        b'7,"L.Patient":"p00035","L.User":"u0004","Log_1.Date":"2010-01-04T0'
        b'7:12:00"},"path_length":2,"template":"repeat-access","text":"u0004'
        b" accessed p00035's record because u0004 previously accessed it on "
        b'2010-01-04 07:12:00."},{"bindings":{"L.Lid":927,"L.Patient":"p0003'
        b'5","L.User":"u0004","Log_1.Date":"2010-01-04T15:38:00"},"path_leng'
        b'th":2,"template":"repeat-access","text":"u0004 accessed p00035\'s r'
        b'ecord because u0004 previously accessed it on 2010-01-04 15:38:00.'
        b'"},{"bindings":{"L.Lid":927,"L.Patient":"p00035","L.User":"u0004",'
        b'"Log_1.Date":"2010-01-04T16:30:00"},"path_length":2,"template":"re'
        b'peat-access","text":"u0004 accessed p00035\'s record because u0004 '
        b'previously accessed it on 2010-01-04 16:30:00."}],"lid":927,"patie'
        b'nt":"p00035","user":"u0004"},{"alerted":true,"date":"2010-01-09T12'
        b':00:00","explained":false,"explanations":[],"lid":928,"patient":"z'
        b'z-nobody","user":"zz-nobody"}]},"kind":"IngestBatch","v":1}\n'
    ),
}


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_sample_wire_bytes(kind):
    assert dump_json(to_wire(SAMPLES[kind])) == SAMPLE_BYTES[kind]


@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_sample_key_order(kind):
    text = json.dumps(SAMPLES[kind].to_dict(), indent=2) + "\n"
    assert text == SAMPLE_TEXT[kind]


#: ``(kind, method, target, body)`` in request order: reads first, then
#: the writes (``"library"`` posts the document the dump returned).
ENVELOPE_CALLS = [
    ("Health", "GET", "/healthz", None),
    ("Coverage", "GET", "/v1/coverage", None),
    ("UnexplainedPage", "GET", "/v1/unexplained?limit=2", None),
    ("ScanSlice", "POST", "/v1/scan", {"page_rows": 2}),
    ("Templates", "GET", "/v1/templates", None),
    ("TemplateLibrary", "GET", "/v1/templates/dump", None),
    ("TemplatesAdded", "POST", "/v1/templates", "library"),
    (
        "IngestBatch",
        "POST",
        "/v1/ingest/batch",
        {
            "accesses": [
                {
                    "user": "u0004",
                    "patient": "p00035",
                    "date": "2010-01-05T09:00:00",
                },
                {"user": "zz-nobody", "patient": "zz-nobody"},
            ]
        },
    ),
]


def test_adhoc_envelope_bytes():
    service = _tiny_service()
    served = {}
    try:
        with (
            AuditServer(service, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            for kind, method, target, body in ENVELOPE_CALLS:
                if body == "library":
                    body = json.loads(served["TemplateLibrary"])["data"]
                response = client._raw_request(method, target, body)
                served[kind] = response.read()
                assert response.status == 200, served[kind]
    finally:
        service.close()
    assert sorted(served) == sorted(ENVELOPE_BYTES)
    for kind, payload in served.items():
        assert payload == ENVELOPE_BYTES[kind], kind


# ----------------------------------------------------------------------
# the declaration
# ----------------------------------------------------------------------
def _endpoint_of(method, path):
    """The declared endpoint serving ``method path``, or None."""
    for endpoint in ENDPOINTS:
        for pattern in endpoint.paths:
            regex = re.sub(r"\{\w+\}", "[^/]+", pattern)
            if endpoint.method == method and re.fullmatch(regex, path):
                return endpoint
    return None


def test_client_reaches_every_declared_endpoint(tmp_path):
    """Every public client method, driven against a live server, requests
    only declared endpoints, and together they request all of them: each
    route once (an alias path counts as its route), except a GET that
    only restates its POST twin's request in a query string for curl
    (same paths, same reply kind) — the client sends the typed POST."""
    service = _tiny_service()
    requested = []
    try:
        with (
            AuditServer(service, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            raw = client._raw_request

            def recording(method, path, body=None):
                requested.append((method, path.partition("?")[0]))
                return raw(method, path, body)

            client._raw_request = recording
            calls = {
                "healthz": client.healthz,
                "metrics": client.metrics,
                "stats": client.stats,
                "explain": lambda: client.explain(1),
                "explain_batch": lambda: list(client.explain_batch([1, 2])),
                "patient_report": lambda: client.patient_report("p00035"),
                "render_patient_report": lambda: client.render_patient_report(
                    "p00035", limit=2
                ),
                "report": lambda: client.report(limit=2),
                "summary": client.summary,
                "coverage": client.coverage,
                "unexplained_page": lambda: client.unexplained_page(limit=2),
                "unexplained": lambda: list(client.unexplained(500)),
                "unexplained_lids": lambda: client.unexplained_lids(500),
                "scan_page": lambda: client.scan_page(page_rows=2),
                "scan_pages": lambda: list(client.scan_pages(10_000)),
                "scan_report": lambda: client.scan_report(page_rows=10_000),
                "scan_explain_all": lambda: client.scan_explain_all(10_000),
                "templates": client.templates,
                "template_library": client.template_library,
                "save_templates": lambda: client.save_templates(
                    str(tmp_path / "library.json")
                ),
                "add_templates": lambda: client.add_templates(
                    client.template_library()
                ),
                "ingest": lambda: client.ingest("u0004", "p00035"),
                "ingest_many": lambda: client.ingest_many(
                    [("u0004", "p00035", None)]
                ),
                "close": client.close,
            }
            public = {
                name
                for name, member in inspect.getmembers(AuditClient)
                if not name.startswith("_") and callable(member)
            }
            assert set(calls) == public
            for call in calls.values():
                call()
    finally:
        service.close()

    reached = {(m, path): _endpoint_of(m, path) for m, path in requested}
    assert None not in reached.values(), reached
    query_twins = {
        endpoint
        for endpoint in ENDPOINTS
        if endpoint.method == "GET"
        and any(
            other.method == "POST"
            and other.paths == endpoint.paths
            and other.kind == endpoint.kind
            for other in ENDPOINTS
        )
    }
    assert {(e.method, e.paths[0]) for e in query_twins} == {
        ("GET", "/v1/explain"),
        ("GET", "/v1/scan"),
    }
    assert set(reached.values()) == set(ENDPOINTS) - query_twins


def test_every_message_dataclass_is_a_wire_kind():
    declared = {
        cls
        for _, cls in inspect.getmembers(messages, inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__ == messages.__name__
    }
    assert declared == set(WIRE_KINDS.values())


def test_a_required_field_must_be_on_the_wire():
    with pytest.raises(TypeError, match="not on the wire"):

        @messages.message("a")
        @dataclasses.dataclass(frozen=True)
        class Partial(messages.Message):
            a: int
            b: int

    assert "Partial" not in WIRE_KINDS


def test_readme_error_table_matches_error_types():
    rows = re.findall(
        r"^\s*\|\s*`([a-z_]+)`\s*\|\s*(\d{3})\s*\|\s*`(\w+)`\s*\|",
        _readme(),
        re.M,
    )
    assert sorted(rows) == sorted(
        (code, str(cls.http_status), cls.__name__)
        for code, cls in ERROR_TYPES.items()
    )


def render_routes():
    """The README route table, rendered from :data:`ENDPOINTS`."""
    lines = [
        "| Method | Path | Reply kind | Notes |",
        "|--------|------|------------|-------|",
    ]
    for endpoint in ENDPOINTS:
        paths = ", ".join(f"`{path}`" for path in endpoint.paths)
        notes = "NDJSON stream" if endpoint.streaming else ""
        lines.append(
            f"| {endpoint.method} | {paths} | `{endpoint.kind}` | {notes} |"
        )
    return lines


def test_readme_route_table_renders_endpoints():
    expected = render_routes()
    lines = _readme().splitlines()
    start = lines.index(expected[0])
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append(line)
    assert table == expected


# ----------------------------------------------------------------------
# malformed input is a typed 400
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_malformed_ingest_is_typed_400_and_lands_nothing(backend):
    good = {"user": "u0004", "patient": "p00035"}
    malformed = [
        {"user": [1], "patient": "p00035"},
        {"user": True, "patient": "p00035"},
        {"user": "u0004", "patient": {"id": 1}},
        {"user": "u0004", "patient": "p00035", "date": [1]},
        {"user": "u0004", "patient": "p00035", "date": True},
    ]
    service = _tiny_service(backend=backend)
    try:
        rows = service.stats()["log_rows"]
        with (
            AuditServer(service, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            for body in malformed:
                with pytest.raises(InvalidRequestError, match="must be a scalar"):
                    client._request("POST", "/v1/ingest", body)
                with pytest.raises(InvalidRequestError, match="must be a scalar"):
                    client._request(
                        "POST", "/v1/ingest/batch", {"accesses": [good, body]}
                    )
            assert service.stats()["log_rows"] == rows
            # well-formed JSON the log's schema rejects (a numeric user)
            # is the service's IntegrityError, also a 400
            with pytest.raises(InvalidRequestError, match="Log.User"):
                client.ingest(5, "p00035")
            # ...and lands none of its batch, not even the rows before it
            bad_date = {**good, "date": 5}
            with pytest.raises(InvalidRequestError, match="Log.Date"):
                client._request(
                    "POST", "/v1/ingest/batch", {"accesses": [good, bad_date]}
                )
            assert service.stats()["log_rows"] == rows
            client.ingest("u0004", "p00035")  # the service still serves
    finally:
        service.close()


def test_bool_scan_budget_is_typed_400():
    for budget in ({"page_rows": True}, {"quantum_seconds": True}):
        with pytest.raises(ValueError, match="when given"):
            ScanRequest(**budget)
    service = _tiny_service()
    try:
        with (
            AuditServer(service, port=0) as server,
            AuditClient(server.host, server.port) as client,
        ):
            with pytest.raises(
                InvalidRequestError, match="page_rows must be an integer"
            ):
                client._request("POST", "/v1/scan", {"page_rows": True})
    finally:
        service.close()
