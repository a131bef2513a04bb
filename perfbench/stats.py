"""Order statistics the benchmark reports: percentiles, the highest
percentile a sample supports, quiet-part and median-of-slices summaries
of a timed phase, and run-to-run spread."""

from __future__ import annotations

import statistics
from collections.abc import Sequence

#: Percentiles a latency sample may be summarised by, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: The percentile ``op_tail_ms`` reports.
TAIL_Q = 90.0

#: Equal stretches a timed phase is cut into, the share of them that
#: counts as quiet, and the fewest samples a stretch may hold.
SLICES = 12
QUIET_SHARE = 1 / 3
MIN_SLICE_SAMPLES = 25


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n: int) -> float:
    """The highest ladder percentile with at least ``MIN_SAMPLES_BEYOND``
    of ``n`` samples beyond it; 100 (the maximum) when even the median has
    fewer — a sample that small has no tail to estimate."""
    best = None
    for q in PERCENTILE_LADDER:
        # round() guards the float product: 100 * (1 - 0.9) is 9.999...
        if round(n * (100.0 - q) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            best = q
    return best if best is not None and best > 50.0 else 100.0


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(q, value)``: the highest percentile the sample supports."""
    q = supported_percentile(len(values))
    return q, percentile(values, q)


def _quiet(costs: Sequence[float]) -> list[int]:
    """Indexes, in time order, of the quietest ``QUIET_SHARE`` of a
    phase's slices (at least one), given each slice's cost."""
    keep = max(1, round(len(costs) * QUIET_SHARE))
    return sorted(sorted(range(len(costs)), key=costs.__getitem__)[:keep])


def quiet_percentile(
    values: Sequence[float], q: float, slices: int = SLICES
) -> float:
    """The ``q``-th percentile of the quiet part of a phase.  The samples,
    in the order they were taken, are cut into ``slices`` equal stretches
    (fewer, if that leaves a stretch under ``MIN_SLICE_SAMPLES``); the
    third of the stretches with the lowest ``q``-th percentile are pooled
    and the pool's percentile is returned.  A neighbour on the shared
    host only ever slows the program, for seconds at a time, and slows
    the tail more than the median; what the program itself costs is what
    the quiet stretches show."""
    if not values:
        raise ValueError("percentile of an empty sample")
    bounds = _slices(len(values), min(slices, len(values) // MIN_SLICE_SAMPLES))
    costs = [percentile(values[lo:hi], q) for lo, hi in bounds]
    pool = [v for i in _quiet(costs) for v in values[bounds[i][0] : bounds[i][1]]]
    return percentile(pool, q)


def quiet_rate(
    seconds: Sequence[float],
    work: Sequence[float] | None = None,
    slices: int = SLICES,
) -> float:
    """Work per second over the quiet part of a phase: per-operation (or
    per-stretch) ``seconds`` in time order are cut into ``slices`` equal
    stretches and the third with the highest rate are pooled.  ``work``
    gives the work behind each entry (default 1 each).  With four entries
    or fewer — cold passes — that is the fastest one."""
    if not seconds:
        raise ValueError("rate of an empty phase")
    bounds = _slices(len(seconds), slices)
    done = [sum(work[lo:hi]) if work is not None else hi - lo for lo, hi in bounds]
    spent = [sum(seconds[lo:hi]) for lo, hi in bounds]
    quiet = _quiet([t / w for t, w in zip(spent, done)])
    return sum(done[i] for i in quiet) / sum(spent[i] for i in quiet)


def _slices(n: int, k: int) -> list[tuple[int, int]]:
    """``k`` contiguous index ranges covering ``range(n)``, sizes differing
    by at most one; fewer than ``k`` when ``n < k``."""
    k = max(1, min(k, n))
    bounds = [round(i * n / k) for i in range(k + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(k)]


def median_slice_rate(
    durations: Sequence[float], slices: int = 6, weights: Sequence[float] | None = None
) -> float:
    """Work per second as the median over equal-count slices of a closed
    loop's per-operation durations, so one scheduler stall moves one
    slice and not the metric.  ``weights`` gives the work each operation
    did (default 1 each)."""
    if not durations:
        raise ValueError("rate of an empty phase")
    rates = []
    for lo, hi in _slices(len(durations), slices):
        work = sum(weights[lo:hi]) if weights is not None else hi - lo
        rates.append(work / sum(durations[lo:hi]))
    return statistics.median(rates)


def wall_slices(
    completions: Sequence[float], started: float, slices: int = 6
) -> tuple[list[int], list[float]]:
    """``(operations, seconds of wall clock)`` per equal-count slice of the
    completion timestamps (any order) of concurrent closed loops released
    at ``started``."""
    if not completions:
        raise ValueError("slices of an empty phase")
    ordered = sorted(completions)
    counts, spans = [], []
    previous = started
    for lo, hi in _slices(len(ordered), slices):
        end = ordered[hi - 1]
        counts.append(hi - lo)
        spans.append(end - previous)
        previous = end
    return counts, spans


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the distance between
    the first and third quartile for four or more runs, the full range
    for two or three, 0 for one."""
    if len(values) < 2:
        return 0.0
    mid = statistics.median(values)
    if mid == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)
