"""Bench-side tracing: spans around calls into causalsteer's layers.

A span is (name, start, end, parent). Spans are kept in memory and turned
into per-layer metrics when the run ends. The root span of each DAG or
request has parent -1; every span of that DAG or request descends from it,
so the root's index identifies the item. Spans live in the benchmark's own
files, wrapped around the program's public calls; nothing inside the
program is instrumented.
"""

import contextlib
import functools
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(tracer, args)`` records work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def root_seconds(self) -> float:
        """Traced time: the summed duration of the root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent == -1)

    def mean_self_ms(self, name: str) -> float:
        """Mean self time of spans called ``name``: duration minus child spans."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent != -1:
                child[parent] += end - start
        own = [
            end - start - child[idx]
            for idx, (n, start, end, _) in enumerate(self.spans)
            if n == name
        ]
        return 1000.0 * sum(own) / len(own) if own else 0.0


class NullTracer:
    """Same calls as Tracer, recording nothing: the untraced replay."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        pass


@contextlib.contextmanager
def patched(targets):
    """Temporarily replace module attributes: ``targets`` is (module, attr, new)."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, new in targets:
            setattr(module, attr, new)
        yield
    finally:
        for module, attr, old in saved:
            setattr(module, attr, old)
