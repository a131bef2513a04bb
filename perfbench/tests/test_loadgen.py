"""Closed-loop accounting and open-loop due-time accounting."""

import pytest

from perfbench.loadgen import OpenLoop, closed_loop


class FakeTime:
    """A clock that only moves when someone sleeps or a request runs."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_open_loop_times_each_request_from_when_it_was_due():
    time = FakeTime()
    # 10 req/s; every request takes 20 ms except #2, which stalls 350 ms
    service = {2: 0.350}

    def send(index):
        time.now += service.get(index, 0.020)
        return True

    loop = OpenLoop(total=8, rate=10.0, clock=time.clock, sleep=time.sleep)
    samples = loop.run([send])
    due = [s.due - 100.0 for s in samples]
    assert due == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    # on-time requests: latency is their service time, lateness 0
    assert samples[0].latency == pytest.approx(0.020)
    assert samples[0].lateness == pytest.approx(0.0)
    # the stalled request
    assert samples[2].latency == pytest.approx(0.350)
    # requests 3 and 4 fell due during the stall: sent late, and the wait
    # is charged to them although their own service time was 20 ms
    assert samples[3].lateness == pytest.approx(0.250)
    assert samples[3].service == pytest.approx(0.020)
    assert samples[3].latency == pytest.approx(0.270)
    assert samples[4].lateness == pytest.approx(0.170)
    assert samples[4].latency == pytest.approx(0.190)
    # the generator has caught up by the last request
    assert samples[6].lateness == pytest.approx(0.010)
    assert samples[7].lateness == pytest.approx(0.0)
    assert loop.backlog_end() == 0


def test_open_loop_backlog_counts_requests_sent_after_the_nominal_end():
    time = FakeTime()

    def send(index):
        time.now += 0.25  # 4 req/s of capacity against 10 req/s of arrivals
        return True

    loop = OpenLoop(total=10, rate=10.0, clock=time.clock, sleep=time.sleep)
    samples = loop.run([send])
    assert loop.nominal_end == pytest.approx(101.0)
    # sends start at 100.0, .25, .5, .75, 101.0 (not after the end), then 5 late ones
    assert loop.backlog_end() == 5
    assert samples[-1].lateness == pytest.approx(2.25 - 0.9)


def test_failed_and_raising_requests_are_counted_not_propagated():
    def send(index):
        if index == 1:
            raise ConnectionError("boom")
        return index != 2

    loop = OpenLoop(total=4, rate=1e6)
    assert [s.ok for s in loop.run([send])] == [True, False, False, True]
    _, samples = closed_loop([send], 4)
    assert [s.ok for s in samples] == [True, False, False, True]


def test_closed_loop_runs_every_sender_its_share():
    seen = []
    started, samples = closed_loop(
        [lambda i: seen.append(("a", i)) or True, lambda i: seen.append(("b", i)) or True],
        ops_per_sender=5,
    )
    assert sorted(i for who, i in seen if who == "a") == [0, 1, 2, 3, 4]
    assert sorted(i for who, i in seen if who == "b") == [5, 6, 7, 8, 9]
    assert len(samples) == 10 and all(s.end >= s.start >= started for s in samples)
