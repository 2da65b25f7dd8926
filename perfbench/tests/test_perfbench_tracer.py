"""Span bookkeeping and self-time arithmetic."""

from perfbench.tracer import BUSY, COUNT, NAME, PARENT, Tracer, self_times, totals_by_name


def span(name, parent, busy, op=0):
    return [name, 0, busy, parent, op, busy, 0]


def test_self_time_is_busy_minus_direct_children():
    spans = [
        span("op", -1, 100),
        span("engine", 0, 30),
        span("parse", 1, 10),
        span("plan", 1, 15),
        span("operators", 0, 60),
        span("wrapper", 4, 25),
        span("select", 5, 20),
    ]
    assert self_times(spans) == [10, 5, 10, 15, 35, 5, 20]
    assert sum(self_times(spans)) == spans[0][BUSY]


def test_totals_keep_only_the_requested_ops():
    spans = [span("op", -1, 50, op=1), span("parse", 0, 20, op=1), span("op", -1, 70, op=2)]
    totals = totals_by_name(spans, {1})
    assert totals["op"] == {"self": 30, "busy": 50, "spans": 1, "count": 0}
    assert totals["parse"]["self"] == 20


def test_calls_and_streams_nest_by_who_is_executing():
    tracer = Tracer()

    def source():
        for item in range(3):
            tracer.call("select", lambda: None)()
            yield item

    def consume():
        return list(tracer.stream("wrapper", source()))

    assert tracer.call("op", consume)() == [0, 1, 2]
    names = [s[NAME] for s in tracer.spans]
    assert names == ["op", "wrapper", "select", "select", "select"]
    op, wrapper, *selects = tracer.spans
    assert wrapper[PARENT] == 0 and wrapper[COUNT] == 3
    assert all(s[PARENT] == 1 for s in selects)
    assert op[BUSY] >= wrapper[BUSY] >= sum(s[BUSY] for s in selects)
    own = self_times(tracer.spans)
    assert sum(own) == op[BUSY]


def test_abandoned_stream_closes_its_source():
    tracer = Tracer()
    closed = []

    def source():
        try:
            yield from range(10)
        finally:
            closed.append(True)

    stream = tracer.stream("wrapper", source())
    assert next(stream) == 0
    stream.close()
    assert closed == [True] and tracer.spans[0][COUNT] == 1


def test_patches_are_undone():
    import math as module

    tracer = Tracer()
    original = module.sqrt
    tracer.patch(module, "sqrt", lambda f: tracer.call("sqrt", f))
    assert module.sqrt(9) == 3 and tracer.spans[0][NAME] == "sqrt"
    tracer.restore()
    assert module.sqrt is original
