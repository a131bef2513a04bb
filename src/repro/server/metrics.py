"""Operational counters of the audit HTTP server.

One :class:`ServerMetrics` instance per server, updated around every
dispatched request and served verbatim by ``GET /metrics``.  The
snapshot is flat counters plus a ``throughput`` mapping of
higher-is-better rates, so an external scraper can lift the numbers
as they are.

Latency percentiles come from a fixed-size **reservoir sample**
(Vitter's Algorithm R): every observation is kept until the reservoir
fills, after which each new observation replaces a random slot with
probability ``capacity / observed`` — so the reservoir stays a uniform
sample over the *whole process lifetime* in constant memory, not a
recency window.  ``mean`` and ``max`` are tracked exactly alongside and
are not subject to sampling error.
"""

from __future__ import annotations

import math
import random
import threading
import time


class ServerMetrics:
    """Thread-safe request counters and a latency reservoir sample.

    ``seed`` fixes the reservoir's replacement RNG (deterministic
    sampling for tests); the default seeds from entropy.
    """

    def __init__(self, reservoir: int = 4096, seed: int | None = None) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()
        self.requests_total = 0
        self.errors_total = 0
        self.in_flight = 0
        self._routes: dict[str, dict[str, int]] = {}
        self._reservoir = reservoir
        self._samples: list[float] = []
        self._observed = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def request_started(self) -> None:
        with self._lock:
            self.in_flight += 1

    def request_finished(self, route: str, seconds: float, error: bool) -> None:
        """Record one completed request under its route label
        (``"GET /v1/explain"``); unmatched requests land on ``"<404>"``."""
        with self._lock:
            self.in_flight -= 1
            self.requests_total += 1
            if error:
                self.errors_total += 1
            counts = self._routes.setdefault(route, {"count": 0, "errors": 0})
            counts["count"] += 1
            if error:
                counts["errors"] += 1
            # Algorithm R: uniform over all observations, constant memory.
            self._observed += 1
            self._latency_sum += seconds
            if seconds > self._latency_max:
                self._latency_max = seconds
            if len(self._samples) < self._reservoir:
                self._samples.append(seconds)
            else:
                slot = self._rng.randrange(self._observed)
                if slot < self._reservoir:
                    self._samples[slot] = seconds

    # ------------------------------------------------------------------
    @staticmethod
    def _percentile(ordered: list[float], fraction: float) -> float:
        """Nearest-rank percentile over a pre-sorted sample: the
        smallest value with at least ``ceil(fraction * n)`` observations
        at or below it.  A ``round(fraction * (n - 1))`` rank would
        banker's-round off-by-one on half-way ranks (p50 of
        [1, 2, 3, 4] must be 2, the nearest-rank answer, not 3)."""
        if not ordered:
            return 0.0
        rank = math.ceil(fraction * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, rank))]

    def snapshot(self) -> dict:
        """The ``GET /metrics`` payload: counters, per-route breakdown,
        latency percentiles over the reservoir, and ``throughput``
        rates."""
        with self._lock:
            uptime = time.monotonic() - self._started_monotonic
            ordered = sorted(self._samples)
            observed = self._observed
            requests_total = self.requests_total
            latency = {
                "count": observed,
                "sampled": len(ordered),
                "mean": self._latency_sum / observed if observed else 0.0,
                "p50": self._percentile(ordered, 0.50),
                "p90": self._percentile(ordered, 0.90),
                "p99": self._percentile(ordered, 0.99),
                "max": self._latency_max if observed else 0.0,
            }
            snapshot = {
                "started_at": self._started_at,
                "uptime_seconds": uptime,
                "requests_total": requests_total,
                "errors_total": self.errors_total,
                "in_flight": self.in_flight,
                "routes": {
                    route: dict(counts)
                    for route, counts in sorted(self._routes.items())
                },
                "latency_seconds": latency,
                "throughput": {
                    "requests_per_second": (
                        requests_total / uptime if uptime > 0 else 0.0
                    ),
                },
            }
        return snapshot


__all__ = ["ServerMetrics"]
