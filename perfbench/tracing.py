"""In-memory spans around the harness's own calls into xcflow's layers.

A span is (span_id, parent_id, layer, name, start_ns, end_ns).  Each op
and each oracle check is a root span (layer "harness", parent 0); every
layer call the harness makes inside it is a child.  Nothing inside the
package is instrumented: spans start and end at the harness's call sites.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self._parent = 0
        self._last_id = 0

    def _new_id(self) -> int:
        self._last_id += 1
        return self._last_id

    @contextmanager
    def root(self, name: str):
        sid = self._new_id()
        self._parent = sid
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((sid, 0, "harness", name, start, perf_counter_ns()))
            self._parent = 0

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((self._new_id(), self._parent, layer, name,
                                   start, perf_counter_ns()))
        return traced


def bind(calls: dict, tracer: Tracer | None) -> SimpleNamespace:
    """Namespace of layer calls: the plain functions, or span-recording
    wrappers when a tracer is given.  `calls` maps attribute -> (span name,
    function); the layer is the span name's first dotted part."""
    if tracer is None:
        return SimpleNamespace(**{attr: fn for attr, (_, fn) in calls.items()})
    return SimpleNamespace(**{
        attr: tracer.wrap(name.split(".", 1)[0], name, fn)
        for attr, (name, fn) in calls.items()
    })


def durations_us(spans, name: str) -> list[float]:
    return [(end - start) / 1e3 for _, _, _, n, start, end in spans if n == name]


def child_share(spans, root_name: str, layer: str) -> float:
    """Share of the root spans' wall time spent in their `layer` children."""
    roots = {sid: end - start for sid, _, _, n, start, end in spans if n == root_name}
    inside = sum(end - start for _, parent, lay, _, start, end in spans
                 if parent in roots and lay == layer)
    total = sum(roots.values())
    return inside / total if total else 0.0
