"""Traced in-process run of the CLI: spans around its calls into each layer.

``installed`` replaces, for the duration of a ``with`` block, every function
that ``delstream.cli`` imports from the library modules with a timing
wrapper. Only names in the ``delstream.cli`` namespace are replaced, so the
program itself is unchanged and calls between library modules stay inside
the span of the CLI-level call that made them.

Spans are kept in memory as one tree per stage: stage -> function ->
iterator. Calls with the same parent and name share one aggregated span
(calls, items, total and child time), so a function called once per account
or an iterator consumed item by item records its busy time summed per stage,
not one span per item. A span's self time is its total time minus the time
its child spans cover; within a stage the self times add up to the stage's
wall time.
"""

from __future__ import annotations

import collections
import collections.abc
import functools
import inspect
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Iterator

LAYER_MODULES = (
    "records", "ingest", "estimate", "flooding", "behavior", "coordination", "synth",
)


@dataclass
class Span:
    id: int
    stage_id: int
    parent: int | None
    kind: str  # "stage", "function" or "iterator"
    name: str
    calls: int = 0
    items: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def _useful_deleter_edges(net) -> int:
    unliked = {tweet_id for _, tweet_id, _ in net.liker_edges}
    return sum(1 for _, tweet_id in net.deleter_edges if tweet_id in unliked)


#: Counts taken from a layer's result once its stage has ended, so that
#: counting adds nothing to any span.
COUNTERS: dict[str, Callable[[object], dict[str, int]]] = {
    "ingest.aggregate_daily": lambda r: {"ingest.daily_records": len(r)},
    "ingest.aggregate_unlikes": lambda r: {"ingest.unlike_records": len(r)},
    "estimate.compare": lambda r: {"estimate.pairs": len(r.paired)},
    "flooding.detect": lambda r: {"flooding.violations": len(r)},
    "coordination.build_tripartite": lambda r: {
        "coordination.deleter_edges": len(r.deleter_edges),
        "coordination.useful_deleter_edges": _useful_deleter_edges(r),
    },
    "coordination.filter_components": lambda r: {
        "coordination.components": len(r.components),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        #: Span names of the wrapped layer functions, set by ``installed``.
        self.layers: list[str] = []
        self._by_key: dict[tuple[int, str, str], Span] = {}
        self._stack: list[Span] = []
        self._pending: list[tuple[Callable, object]] = []

    def _open(self, kind: str, name: str) -> Span:
        parent = self._stack[-1]
        key = (parent.id, kind, name)
        span = self._by_key.get(key)
        if span is None:
            span = Span(len(self.spans), parent.stage_id, parent.id, kind, name)
            self.spans.append(span)
            self._by_key[key] = span
        self._stack.append(span)
        return span

    def _close(self, span: Span, elapsed: float) -> None:
        self._stack.pop()
        span.calls += 1
        span.total_s += elapsed
        if self._stack:
            self._stack[-1].child_s += elapsed

    @contextmanager
    def stage(self, name: str) -> Iterator[Span]:
        span = Span(len(self.spans), len(self.spans), None, "stage", name)
        self.spans.append(span)
        self._stack.append(span)
        start = perf_counter()
        try:
            yield span
        finally:
            self._close(span, perf_counter() - start)
            pending, self._pending = self._pending, []
            for counter, result in pending:
                self.counts.update(counter(result))

    def wrap(self, name: str, func: Callable) -> Callable:
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            span = tracer._open("function", name)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span, perf_counter() - start)
            if isinstance(result, collections.abc.Iterator):
                return _TracedIterator(tracer, name, result)
            if counter is not None:
                tracer._pending.append((counter, result))
            return result

        return traced

    def stage_self_sum_errors(self) -> dict[str, float]:
        """Per stage: (sum of self times in the stage) - (stage wall time)."""
        sums: dict[int, float] = collections.defaultdict(float)
        for span in self.spans:
            sums[span.stage_id] += span.self_s
        return {
            span.name: sums[span.id] - span.total_s
            for span in self.spans
            if span.kind == "stage"
        }

    def to_json(self) -> dict:
        return {
            "spans": [{**asdict(span), "self_s": span.self_s} for span in self.spans],
            "counts": dict(sorted(self.counts.items())),
            "stage_self_sum_error_s": self.stage_self_sum_errors(),
        }


class _TracedIterator:
    """Times each ``next`` of a layer's iterator where its consumer calls it."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it: Iterator):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer._stack:
            return next(self._it)
        span = tracer._open("iterator", self._name)
        start = perf_counter()
        try:
            item = next(self._it)
        finally:
            tracer._close(span, perf_counter() - start)
        span.items += 1
        return item


def layer_functions(cli_module) -> dict[str, tuple[str, Callable]]:
    """Attribute name in ``cli_module`` -> (``module.function``, function)."""
    found = {}
    for attr, obj in vars(cli_module).items():
        if not inspect.isfunction(obj):
            continue
        package, _, module = obj.__module__.rpartition(".")
        if package == "delstream" and module in LAYER_MODULES:
            found[attr] = (f"{module}.{obj.__name__}", obj)
    return found


@contextmanager
def installed(tracer: Tracer, cli_module) -> Iterator[None]:
    """Wrap the layer functions in ``cli_module`` while the block runs."""
    functions = layer_functions(cli_module)
    tracer.layers = sorted(name for name, _ in functions.values())
    try:
        for attr, (name, func) in functions.items():
            setattr(cli_module, attr, tracer.wrap(name, func))
        yield
    finally:
        for attr, (_, func) in functions.items():
            setattr(cli_module, attr, func)


def self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per layer function, function and iterator spans summed."""
    totals: dict[str, float] = collections.defaultdict(float)
    for span in tracer.spans:
        if span.kind != "stage":
            totals[span.name] += span.self_s
    return totals


def items(tracer: Tracer, name: str) -> int:
    return sum(s.items for s in tracer.spans if s.kind == "iterator" and s.name == name)
