"""Order-statistic helpers: percentiles, the percentile a sample
supports, quiet-part and median-of-slices summaries, spread."""

import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    ("n", "expected"),
    [
        (3, 100.0),  # three mine calls: the slowest, not a percentile
        (39, 100.0),  # p75 would leave 9.75 beyond
        (40, 75.0),
        (100, 90.0),  # exactly ten samples beyond p90
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (1050, 99.0),
        (10_000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.supported_percentile(n) == expected


def test_tail_reports_rank_and_value():
    q, value = stats.tail(list(range(1000)))
    assert q == 99.0
    assert value == pytest.approx(989.01)
    assert stats.tail([3.0, 9.0, 5.0]) == (100.0, 9.0)


def test_quiet_percentile_is_that_of_the_quiet_third():
    clean = [2.0 + 0.001 * (i % 100) for i in range(1200)]  # p90: ~2.089
    noisy = list(clean)
    # a neighbour on the host doubles every reply for half of the phase
    noisy[300:900] = [2 * v for v in clean[300:900]]
    assert stats.percentile(noisy, 90.0) > 4.0
    for q in (50.0, 90.0):
        assert stats.quiet_percentile(noisy, q) == pytest.approx(
            stats.percentile(clean, q), abs=1e-3
        )
    # the program itself getting slower moves it one for one
    assert stats.quiet_percentile([2 * v for v in noisy], 90.0) == pytest.approx(
        2 * stats.quiet_percentile(noisy, 90.0)
    )
    # a stretch holds at least 25 samples: 60 samples are cut in two, and
    # the quieter stretch is reported; under 50 the sample is taken whole
    assert stats.quiet_percentile([1.0] * 30 + [9.0] * 30, 50.0) == 1.0
    assert stats.quiet_percentile([1.0] * 20 + [9.0] * 20, 50.0) == 5.0
    with pytest.raises(ValueError):
        stats.quiet_percentile([], 50.0)


def test_quiet_rate_pools_the_fastest_third():
    steady = [0.01] * 1200
    noisy = list(steady)
    noisy[0:700] = [0.02] * 700  # most of the phase at half speed
    assert stats.quiet_rate(steady) == pytest.approx(100.0)
    assert stats.quiet_rate(noisy) == pytest.approx(100.0)
    # four cold passes over 1000 accesses: the fastest one
    assert stats.quiet_rate([2.5, 2.0, 2.2, 2.4], [1000] * 4) == pytest.approx(500.0)
    # pre-cut slices of (count, wall seconds): the two fastest of six
    rate = stats.quiet_rate([1.0, 0.5, 0.5, 1.0, 1.0, 2.0], [100] * 6, slices=6)
    assert rate == pytest.approx(200.0)


def test_median_slice_rate_ignores_one_stall():
    steady = [0.01] * 600
    stalled = list(steady)
    stalled[250] = 5.0  # one scheduler stall
    assert stats.median_slice_rate(steady) == pytest.approx(100.0)
    assert stats.median_slice_rate(stalled) == pytest.approx(100.0)
    # the plain mean rate would have halved
    assert len(stalled) / sum(stalled) < 60


def test_median_slice_rate_weights_are_work_done():
    # three batches of 200 rows in 0.2 s, 0.25 s, 0.4 s
    rate = stats.median_slice_rate([0.2, 0.25, 0.4], slices=3, weights=[200] * 3)
    assert rate == pytest.approx(800.0)


def test_wall_slices_use_completion_times():
    # two closed loops interleaving: a completion every 5 ms
    completions = [10.0 + 0.005 * (i + 1) for i in range(600)]
    shuffled = completions[::2] + completions[1::2]
    counts, spans = stats.wall_slices(shuffled, started=10.0)
    assert counts == [100] * 6
    assert spans == pytest.approx([0.5] * 6)


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.0, 10.1]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)
