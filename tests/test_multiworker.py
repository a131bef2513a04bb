"""Multi-worker fleet differential: N workers must be indistinguishable
from the in-process facade.

A 2-worker :class:`~repro.server.FleetSupervisor` (SO_REUSEPORT sibling
sockets on Linux) serves replicas built by the same deterministic
factory as an in-process twin, so every ``/v1/`` read endpoint can be
pinned byte-identical to the facade — including cursor-paginated
``unexplained`` walks (stateless key cursors survive landing on a
different worker per connection) and NDJSON ``explain/batch`` streams.
Mutating endpoints must answer a typed 501 (independent replicas would
silently diverge), ``/v1/metrics`` must aggregate the whole fleet, and
SIGTERM must drain gracefully: the in-flight NDJSON stream runs to
completion while new dials are refused.

The reservoir-sampling metrics and their fleet merge
(:func:`~repro.server.metrics.merge_snapshots`) are pinned here too.
"""

import datetime as dt
import socket
import time
from types import SimpleNamespace

import pytest

from repro.api import AuditConfig, open_service, to_wire
from repro.api.errors import InvalidRequestError, UnsupportedOperationError
from repro.client import AuditClient
from repro.ehr import SimulationConfig, simulate
from repro.server import (
    FleetSupervisor,
    ServerMetrics,
    dump_json,
    envelope,
    merge_snapshots,
)

FROZEN_NOW = dt.datetime(2010, 1, 9, 12, 0, 0)


def _make_service():
    """Deterministic replica factory: every worker (and the in-process
    twin) opens an identical service over the same simulated hospital."""
    db = simulate(SimulationConfig.tiny(seed=7)).db
    return open_service(
        db, config=AuditConfig(shards=1), clock=lambda: FROZEN_NOW
    )


@pytest.fixture(scope="module")
def fleet():
    supervisor = FleetSupervisor(_make_service, workers=2).start()
    client = AuditClient(supervisor.host, supervisor.port, timeout=30)
    twin = _make_service()
    world = SimpleNamespace(supervisor=supervisor, client=client, twin=twin)
    try:
        yield world
    finally:
        client.close()
        supervisor.stop()
        twin.close()


def _sample_lids(twin, count=20):
    queue = [v.lid for v in twin.report().queue]
    explained = sorted(set(twin.explain_all().explained), key=str)
    return queue[:8] + explained[: count - len(queue[:8])] + [10**9]


# ----------------------------------------------------------------------
# read endpoints: typed and byte identity across the fleet
# ----------------------------------------------------------------------
class TestFleetReadDifferential:
    def test_healthz(self, fleet):
        assert fleet.client.healthz() == {"status": "ok"}

    def test_explain(self, fleet):
        for lid in _sample_lids(fleet.twin):
            wire = fleet.client.explain(lid)
            local = fleet.twin.explain(lid)
            assert wire.to_dict() == local.to_dict()

    def test_report(self, fleet):
        assert (
            fleet.client.report().to_dict() == fleet.twin.report().to_dict()
        )

    def test_summary(self, fleet):
        assert fleet.client.summary() == fleet.twin.summary()

    def test_coverage(self, fleet):
        assert fleet.client.coverage() == fleet.twin.coverage()

    def test_patient_report(self, fleet):
        patient = fleet.twin.report().queue[0].patient
        assert (
            fleet.client.patient_report(patient).to_dict()
            == fleet.twin.patient_report(patient).to_dict()
        )

    def test_stats_static_fields(self, fleet):
        wire = fleet.client.stats()
        local = fleet.twin.stats()
        for key in ("log_rows", "templates", "config"):
            assert wire[key] == local[key]
        assert set(wire) == set(local)

    def test_templates_list(self, fleet):
        listed = fleet.client.templates()
        local = fleet.twin.templates()
        assert [t["sql"] for t in listed] == [t.to_sql() for t in local]

    def _raw(self, fleet, path):
        response = fleet.client._raw_request("GET", path)
        body = response.read()
        assert response.status == 200
        return body

    def test_explain_bytes(self, fleet):
        lid = _sample_lids(fleet.twin)[0]
        expected = dump_json(to_wire(fleet.twin.explain(lid)))
        assert self._raw(fleet, f"/v1/explain?lid={lid}") == expected

    def test_report_bytes(self, fleet):
        expected = dump_json(to_wire(fleet.twin.report()))
        assert self._raw(fleet, "/v1/report") == expected

    def test_coverage_bytes(self, fleet):
        expected = dump_json(
            envelope("Coverage", {"coverage": fleet.twin.coverage()})
        )
        assert self._raw(fleet, "/v1/coverage") == expected


class TestFleetCursorAndStreaming:
    def test_cursor_walk_equals_one_shot(self, fleet):
        """Page requests land on whichever worker accepts each
        connection; the stateless cursor must not care."""
        one_shot = [v.to_dict() for v in fleet.twin.report().queue]
        for page_size in (1, 3, 500):
            walked = [
                v.to_dict() for v in fleet.client.unexplained(page_size)
            ]
            assert walked == one_shot

    def test_unexplained_lids_matches_twin(self, fleet):
        assert (
            fleet.client.unexplained_lids(page_size=5)
            == fleet.twin.unexplained_lids()
        )

    def test_explain_batch_stream_matches_twin(self, fleet):
        lids = _sample_lids(fleet.twin)
        streamed = list(fleet.client.explain_batch(lids))
        assert [r.lid for r in streamed] == lids
        for result in streamed:
            assert (
                result.to_dict() == fleet.twin.explain(result.lid).to_dict()
            )


# ----------------------------------------------------------------------
# fleet semantics: read-only writes, aggregated metrics
# ----------------------------------------------------------------------
class TestFleetSemantics:
    def test_ingest_is_rejected_typed(self, fleet):
        with pytest.raises(UnsupportedOperationError) as err:
            fleet.client.ingest("uNEW", "pNEW")
        assert "multi-worker" in str(err.value)

    def test_batch_ingest_is_rejected_typed(self, fleet):
        with pytest.raises(UnsupportedOperationError):
            fleet.client.ingest_many([("uNEW", "pNEW", None)])

    def test_template_add_is_rejected_typed(self, fleet):
        with pytest.raises(UnsupportedOperationError):
            fleet.client.add_templates(fleet.client.template_library())

    def test_metrics_aggregate_the_fleet(self, fleet):
        fleet.client.coverage()  # at least one request on the books
        merged = fleet.client.metrics()
        assert merged["scope"] == "fleet"
        assert merged["workers"] == 2
        assert merged["requests_total"] >= 1
        assert merged["latency_seconds"]["count"] >= 1
        assert "GET /v1/coverage" in merged["routes"]


# ----------------------------------------------------------------------
# SIGTERM drain: in-flight stream completes, new dials are refused
# ----------------------------------------------------------------------
def test_sigterm_drains_in_flight_ndjson():
    import os
    import signal

    supervisor = FleetSupervisor(_make_service, workers=1).start()
    try:
        twin = _make_service()
        lids = [v.lid for v in twin.report().queue]
        lids = (lids * (3000 // max(len(lids), 1) + 1))[:3000]
        twin.close()
        client = AuditClient(supervisor.host, supervisor.port, timeout=60)
        stream = client.explain_batch(lids)
        first = next(stream)  # the request is now in flight
        assert first.lid == lids[0]

        worker = supervisor.processes[0]
        os.kill(worker.pid, signal.SIGTERM)

        # the listener must close: new dials refused while we still hold
        # an in-flight stream
        deadline = time.monotonic() + 10.0
        refused = False
        while time.monotonic() < deadline:
            try:
                probe = socket.create_connection(
                    (supervisor.host, supervisor.port), timeout=1.0
                )
                probe.close()
                time.sleep(0.05)
            except (ConnectionRefusedError, socket.timeout, OSError):
                refused = True
                break
        assert refused, "listener still accepting after SIGTERM"

        # ... and the in-flight NDJSON stream must run to completion
        rest = list(stream)
        assert [first.lid] + [r.lid for r in rest] == lids
        client.close()

        worker.join(timeout=30)
        assert worker.exitcode == 0
    finally:
        supervisor.stop(force=True)


# ----------------------------------------------------------------------
# supervisor and config validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_live_service_instance_is_rejected(self):
        service = _make_service()
        try:
            with pytest.raises(InvalidRequestError) as err:
                FleetSupervisor(service, workers=2)
            assert "factory" in str(err.value)
        finally:
            service.close()

    def test_workers_must_be_positive(self):
        with pytest.raises(InvalidRequestError):
            FleetSupervisor(_make_service, workers=0)

    def test_config_workers_validation(self):
        with pytest.raises(ValueError):
            AuditConfig(workers=0)
        with pytest.raises(ValueError):
            AuditConfig(workers=-2)
        assert AuditConfig().effective_workers == 1
        assert AuditConfig(workers=None).effective_workers == 1
        assert AuditConfig(workers=3).effective_workers == 3


# ----------------------------------------------------------------------
# reservoir sampling and snapshot merging
# ----------------------------------------------------------------------
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
        latency = metrics.snapshot(include_samples=True)["latency_seconds"]
        assert latency["count"] == 1000
        assert latency["sampled"] == 16
        assert len(latency["samples"]) == 16
        assert latency["max"] == 999.0  # exact, not sampled
        assert latency["mean"] == pytest.approx(499.5)  # exact, not sampled
        assert set(latency["samples"]) <= {float(i) for i in range(1000)}

    def test_seeded_sampling_is_deterministic(self):
        runs = []
        for _ in range(2):
            metrics = ServerMetrics(reservoir=8, seed=42)
            _fill(metrics, [float(i) for i in range(200)])
            runs.append(
                metrics.snapshot(include_samples=True)["latency_seconds"][
                    "samples"
                ]
            )
        assert runs[0] == runs[1]


class TestMergeSnapshots:
    def _snapshot(self, latencies, seed=0, reservoir=1000):
        metrics = ServerMetrics(reservoir=reservoir, seed=seed)
        _fill(metrics, latencies)
        return metrics.snapshot(include_samples=True)

    def test_exhaustive_merge_is_exact_concatenation(self):
        a = self._snapshot([0.1, 0.2, 0.3])
        b = self._snapshot([0.4, 0.5])
        merged = merge_snapshots([a, b])
        latency = merged["latency_seconds"]
        assert merged["workers"] == 2
        assert merged["requests_total"] == 5
        assert latency["count"] == 5
        assert latency["sampled"] == 5
        assert latency["mean"] == pytest.approx(0.3)
        assert latency["p50"] == 0.3
        assert latency["max"] == 0.5
        route = merged["routes"]["GET /v1/explain"]
        assert route == {"count": 5, "errors": 0}

    def test_weighted_merge_is_bounded_and_keeps_exact_scalars(self):
        a = self._snapshot([float(i) for i in range(500)], reservoir=32)
        b = self._snapshot([float(i) for i in range(1000, 1100)], reservoir=32)
        merged = merge_snapshots([a, b], reservoir=64, seed=7)
        latency = merged["latency_seconds"]
        assert latency["count"] == 600
        assert latency["sampled"] == 64  # re-sampled, bounded
        assert latency["max"] == 1099.0  # exact across the fleet
        expected_mean = (249.5 * 500 + 1049.5 * 100) / 600
        assert latency["mean"] == pytest.approx(expected_mean)

    def test_merge_is_deterministic(self):
        a = self._snapshot([float(i) for i in range(300)], reservoir=16)
        b = self._snapshot([float(i) for i in range(300, 600)], reservoir=16)
        first = merge_snapshots([a, b], reservoir=24, seed=3)
        second = merge_snapshots([a, b], reservoir=24, seed=3)
        assert (
            first["latency_seconds"]["p90"] == second["latency_seconds"]["p90"]
        )

    def test_counters_and_errors_sum(self):
        a = ServerMetrics(seed=0)
        a.request_started()
        a.request_finished("GET /v1/report", 0.1, error=True)
        b = ServerMetrics(seed=0)
        _fill(b, [0.2, 0.3], route="GET /v1/report")
        merged = merge_snapshots(
            [a.snapshot(include_samples=True), b.snapshot(include_samples=True)]
        )
        assert merged["requests_total"] == 3
        assert merged["errors_total"] == 1
        assert merged["routes"]["GET /v1/report"] == {"count": 3, "errors": 1}
        assert merged["in_flight"] == 0

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError):
            merge_snapshots([])
