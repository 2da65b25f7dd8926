"""Spans recorded from outside the program.

The traced run wraps the program's public entry points with timers that
live here, in the benchmark's own files.  A span is one timed region:

* a **call** span covers one function call, ``busy == end - start``;
* a **stream** span covers one iterator the program returned: it opens at
  the first ``next()``, and ``busy`` is the time spent *inside* ``next()``
  calls (the consumer's time between pulls is not the stream's).

The parent of a span is the span that was executing when it started, so a
wrapper stream pulled from inside the root operator stream is its child.  A
span's **self time** is its busy time minus its direct children's busy
time.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, BUSY, COUNT = range(7)
_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        #: One list per span: [name, start_ns, end_ns, parent, op, busy_ns,
        #: count]; the index in this list is the span's id.
        self.spans: list[list] = []
        #: Identifier shared by the spans of the op being executed (one
        #: closed-loop client: there is one current op, on every thread).
        self.op = -1
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, _now(), 0, stack[-1] if stack else -1, self.op, 0, 0])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = _now()
        span[BUSY] = span[END] - span[START]
        self._stack().pop()

    def call(self, name: str, function, count=None):
        """*function* wrapped in a call span; *count* maps its result to the
        span's work count (rows, bytes)."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                tracer.spans[index][COUNT] = count(result)
            return result

        return traced

    def stream(self, name: str, iterable):
        """*iterable* re-yielded under one stream span; the span's count is
        the number of items."""
        iterator = iter(iterable)
        span = None
        try:
            while True:
                # Everything between here and the yield is inside the
                # timed window, so the tracer's own bookkeeping lands in
                # the stream's span instead of nowhere.
                started = _now()
                if span is None:
                    stack = self._stack()
                    index = len(self.spans)
                    span = [name, started, started, stack[-1] if stack else -1, self.op, 0, 0]
                    self.spans.append(span)
                stack.append(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                else:
                    span[COUNT] += 1
                finally:
                    stack.pop()
                    span[END] = ended = _now()
                    span[BUSY] += ended - started
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def streaming(self, name: str, function):
        """A function returning an iterable, its result under a stream span."""
        tracer = self

        def traced(*args, **kwargs):
            return tracer.stream(name, function(*args, **kwargs))

        return traced

    # -- installing ----------------------------------------------------------

    def patch(self, owner, attribute: str, wrap) -> None:
        """Replace ``owner.attribute`` by ``wrap(original)`` until
        :meth:`restore`."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, wrap(original))

    def patch_function(self, function, wrap, package: str = "repro") -> None:
        """Replace every module-level reference to *function* inside
        *package* (``from x import f`` copies the reference into each
        importing module, so patching the defining module is not enough)."""
        wrapped = wrap(function)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._undo.append((module, attribute, function))
                    setattr(module, attribute, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span: busy time minus the busy time of its direct
    children (clamped at zero against clock granularity)."""
    own = [span[BUSY] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[BUSY]
    return [max(0, value) for value in own]


def totals_by_name(spans: list[list], ops: set[int]) -> dict[str, dict]:
    """Per span name over the spans of *ops*: self ns, busy ns, span count
    and summed work count."""
    totals: dict[str, dict] = defaultdict(lambda: {"self": 0, "busy": 0, "spans": 0, "count": 0})
    for span, own in zip(spans, self_times(spans)):
        if span[OP] in ops:
            bucket = totals[span[NAME]]
            bucket["self"] += own
            bucket["busy"] += span[BUSY]
            bucket["spans"] += 1
            bucket["count"] += span[COUNT]
    return totals


def write_chrome_trace(spans: list[list], path: str, limit: int = 200_000) -> None:
    """The first *limit* spans as Chrome trace-event JSON (``chrome://tracing``
    / Perfetto): one complete event per span, busy time in ``args``."""
    origin = spans[0][START] if spans else 0
    events = [
        {
            "name": span[NAME],
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (span[START] - origin) / 1000.0,
            "dur": max(span[END] - span[START], 0) / 1000.0,
            "args": {
                "id": index,
                "parent": span[PARENT],
                "op": span[OP],
                "busy_us": span[BUSY] / 1000.0,
                "count": span[COUNT],
            },
        }
        for index, span in enumerate(spans[:limit])
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
