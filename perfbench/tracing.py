"""In-memory spans around the benchmark's calls into threecolor.

A span is one call the benchmark makes into a public function of a module,
named ``<module>.<function>``, with its start, end and parent span.  Spans
are kept in a list and written out only when the run ends.  Where a public
function calls another layer internally, the traced run re-times that inner
call on the same input and records it as a *computed* child: its interval
lies after the parent's, and the parent's self time subtracts it.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

_NULL_CONTEXT = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    enabled = False

    def span(self, name):
        return _NULL_CONTEXT


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.open[-1] if tr.open else None
        tr.spans.append([self.name, parent, 0.0, 0.0, False])
        tr.open.append(self.index)
        tr.spans[self.index][2] = time.perf_counter()
        return self.index

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][3] = time.perf_counter()
        tr.open.pop()
        return False


class Tracer:
    """Tracing on: ``spans`` holds ``[name, parent, start, end, computed]``."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name):
        return _Span(self, name)

    def retime(self, name, parent, fn, *args):
        """Call ``fn`` again on the same input and record it as a computed
        child of span ``parent``."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.spans.append([name, parent, start, end, True])
        return result

    def count(self, name, amount):
        self.counts[name] += amount


def span_totals(spans) -> tuple[dict, dict, set]:
    """Per span name: summed duration, summed self time, and the names whose
    self time subtracts a computed (re-timed) child."""
    child_time = defaultdict(float)
    computed_parents = set()
    for name, parent, start, end, computed in spans:
        if parent is not None:
            child_time[parent] += end - start
            if computed:
                computed_parents.add(parent)
    total = defaultdict(float)
    self_time = defaultdict(float)
    computed_self = set()
    for index, (name, parent, start, end, computed) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[index]
        if index in computed_parents:
            computed_self.add(name)
    return dict(total), dict(self_time), computed_self
