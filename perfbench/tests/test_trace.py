"""Span bookkeeping and self-time arithmetic."""

from perfbench.trace import NAME, PARENT, Tracer, layer_of, self_times


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, "t"]


def test_self_time_on_a_hand_built_tree():
    spans = [
        span("perfbench.explain", 0, 100),          # 0: root
        span("client.request", 5, 95, 0),           # 1
        span("client.wire", 10, 90, 1),             # 2
        span("server.app.handler", 20, 70, 2),      # 3
        span("api.service.explain", 30, 60, 3),     # 4
        span("api.messages.encode", 72, 80, 2),     # 5
        span("server.http.parse", 12, 18, 2),       # 6
    ]
    assert self_times(spans) == [
        10,   # root: 100 - client.request(90)
        10,   # client.request: 90 - wire(80)
        16,   # wire: 80 - handler(50) - encode(8) - parse(6)
        20,   # handler: 50 - service(30)
        30,   # leaf
        8,
        6,
    ]
    # every nanosecond of the root is attributed exactly once
    assert sum(self_times(spans)) == 100


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        span("parent", 0, 100),
        span("a", 10, 60, 0),
        span("b", 40, 80, 0),    # overlaps a by 20
        span("c", 90, 130, 0),   # overhangs the parent by 30
    ]
    # covered: [10,80] + [90,100] = 80
    assert self_times(spans)[0] == 20


def test_unfinished_span_has_no_negative_time():
    assert self_times([span("open", 50, 0)]) == [0]


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


def test_tracer_nests_wrapped_calls_and_skips_cached_ones():
    tracer = Tracer(clock=FakeClock())
    cache = set()

    def build(key):
        cache.add(key)
        return key

    traced_build = tracer.wrap(build, "db.table.index_build", skip=lambda key: key in cache)
    outer = tracer.wrap(lambda: (traced_build("x"), traced_build("x")), "db.executor.execute")
    outer()
    names = [s[NAME] for s in tracer.spans]
    assert names == ["db.executor.execute", "db.table.index_build"]  # second build skipped
    assert tracer.spans[1][PARENT] == 0
    assert tracer.spans[0][PARENT] == -1
    assert layer_of(names[1]) == "db.table"


def test_add_closed_is_clipped_to_the_open_parent():
    tracer = Tracer(clock=FakeClock())
    tracer.add_closed("server.http.parse", 0, 5)  # nothing in flight: dropped
    assert tracer.spans == []
    root = tracer.begin("client.wire")  # starts at 10
    tracer.add_closed("server.http.parse", 3, 25)  # parked since before the request
    tracer.end(root)
    parse = tracer.spans[1]
    assert (parse[1], parse[2], parse[PARENT]) == (10, 25, root)
