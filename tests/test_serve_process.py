"""``repro-audit serve`` as a real process, driven over the wire.

The server runs as a ``python -m repro serve --port 0`` subprocess over a
tiny-world CSV directory, and every ``/v1/`` read endpoint must answer
what an in-process service opened on the same directory answers — typed
and byte-identical, cursor walks and NDJSON streams included — on both
backends.  SIGTERM must drain gracefully: the listener closes (new dials
are refused), the in-flight NDJSON stream runs to completion, and the
process exits 0 after printing ``shutdown complete``.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import AuditConfig, AuditService, save_database, to_wire
from repro.client import AuditClient
from repro.ehr import SimulationConfig, simulate
from repro.server import dump_json, envelope

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def dbdir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "hospital")
    save_database(simulate(SimulationConfig.tiny(seed=7)).db, path)
    return path


def spawn_server(dbdir, *args):
    """Start ``repro-audit serve`` on an ephemeral port; returns the
    process and the host and port of its ``listening on`` line."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    command = [sys.executable, "-m", "repro", "serve", "--db", dbdir, "--port", "0"]
    process = subprocess.Popen(
        [*command, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("listening on http://"):
        process.kill()
        process.communicate()
        pytest.fail(f"server failed to start: {line!r}")
    host, port = line.rsplit("/", 1)[1].rsplit(":", 1)
    return process, host, int(port)


def stop_server(process):
    """SIGTERM, then the exit code and the rest of the server's output."""
    process.send_signal(signal.SIGTERM)
    try:
        out, _ = process.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    return process.returncode, out


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def served(request, dbdir):
    backend = request.param
    process, host, port = spawn_server(dbdir, "--backend", backend)
    client = AuditClient(host, port, timeout=30)
    twin = AuditService.open(dbdir, config=AuditConfig(backend=backend))
    try:
        yield SimpleNamespace(client=client, twin=twin)
    finally:
        client.close()
        twin.close()
        code, out = stop_server(process)
        assert code == 0, out
        assert "shutdown complete" in out


def _sample_lids(twin, count=20):
    queue = [v.lid for v in twin.report().queue]
    explained = sorted(set(twin.explain_all().explained), key=str)
    return queue[:8] + explained[: count - len(queue[:8])] + [10**9]


def _raw(served, path):
    response = served.client._raw_request("GET", path)
    body = response.read()
    assert response.status == 200
    return body


# ----------------------------------------------------------------------
# read endpoints: typed and byte identity with the in-process service
# ----------------------------------------------------------------------
class TestServedReadDifferential:
    def test_healthz(self, served):
        assert served.client.healthz() == {"status": "ok"}

    def test_explain(self, served):
        for lid in _sample_lids(served.twin):
            wire = served.client.explain(lid)
            local = served.twin.explain(lid)
            assert wire.to_dict() == local.to_dict()

    def test_report(self, served):
        assert served.client.report().to_dict() == served.twin.report().to_dict()

    def test_summary(self, served):
        assert served.client.summary() == served.twin.summary()

    def test_coverage(self, served):
        assert served.client.coverage() == served.twin.coverage()

    def test_patient_report(self, served):
        patient = served.twin.report().queue[0].patient
        assert (
            served.client.patient_report(patient).to_dict()
            == served.twin.patient_report(patient).to_dict()
        )

    def test_stats_static_fields(self, served):
        wire = served.client.stats()
        local = served.twin.stats()
        for key in ("log_rows", "templates", "config"):
            assert wire[key] == local[key]
        assert set(wire) == set(local)

    def test_templates_list(self, served):
        listed = served.client.templates()
        local = served.twin.templates()
        assert [t["sql"] for t in listed] == [t.to_sql() for t in local]

    def test_explain_bytes(self, served):
        lid = _sample_lids(served.twin)[0]
        expected = dump_json(to_wire(served.twin.explain(lid)))
        assert _raw(served, f"/v1/explain?lid={lid}") == expected

    def test_report_bytes(self, served):
        expected = dump_json(to_wire(served.twin.report()))
        assert _raw(served, "/v1/report") == expected

    def test_coverage_bytes(self, served):
        expected = dump_json(
            envelope("Coverage", {"coverage": served.twin.coverage()})
        )
        assert _raw(served, "/v1/coverage") == expected


class TestServedCursorAndStreaming:
    def test_cursor_walk_equals_one_shot(self, served):
        one_shot = [v.to_dict() for v in served.twin.report().queue]
        for page_size in (1, 3, 500):
            walked = [v.to_dict() for v in served.client.unexplained(page_size)]
            assert walked == one_shot

    def test_unexplained_lids_matches_twin(self, served):
        assert (
            served.client.unexplained_lids(page_size=5)
            == served.twin.unexplained_lids()
        )

    def test_explain_batch_stream_matches_twin(self, served):
        lids = _sample_lids(served.twin)
        streamed = list(served.client.explain_batch(lids))
        assert [r.lid for r in streamed] == lids
        for result in streamed:
            assert result.to_dict() == served.twin.explain(result.lid).to_dict()


# ----------------------------------------------------------------------
# SIGTERM drain: in-flight stream completes, new dials are refused
# ----------------------------------------------------------------------
def test_sigterm_drains_in_flight_ndjson(dbdir):
    process, host, port = spawn_server(dbdir)
    try:
        client = AuditClient(host, port, timeout=60)
        lids = sorted(client.unexplained_lids())
        lids = (lids * (3000 // max(len(lids), 1) + 1))[:3000]
        stream = client.explain_batch(lids)
        first = next(stream)  # the request is now in flight
        assert first.lid == lids[0]

        process.send_signal(signal.SIGTERM)

        # the listener must close: new dials refused while we still hold
        # an in-flight stream
        deadline = time.monotonic() + 10.0
        refused = False
        while time.monotonic() < deadline:
            try:
                probe = socket.create_connection((host, port), timeout=1.0)
                probe.close()
                time.sleep(0.05)
            except OSError:
                refused = True
                break
        assert refused, "listener still accepting after SIGTERM"

        # ... and the in-flight NDJSON stream must run to completion
        rest = list(stream)
        assert [first.lid] + [r.lid for r in rest] == lids
        client.close()

        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "shutdown complete" in out
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
