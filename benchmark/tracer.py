"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the program's layers by wrapping the
names the callers look up (module attributes), so the program itself is not
edited. Each span keeps its name, start, end, the index of its parent span and
the invocation it belongs to. Spans stay in memory until the run ends; self
times are computed from them afterwards.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

# name, start, end, parent index (-1 for a root), invocation id
Span = list


class Tracer:
    """Records nested spans and per-invocation counters.

    clock is injectable so tests can drive the tracer with exact ticks.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: defaultdict[int, Counter] = defaultdict(Counter)
        self.invocation = 0
        self._open: list[int] = []

    def count(self, key: str, n: float = 1) -> None:
        """Add n to a counter of the current invocation."""
        self.counters[self.invocation][key] += n

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: Optional[Callable[[dict, object], dict]] = None,
    ) -> Callable:
        """Return fn recording a span per call.

        on_return, if given, receives the bound arguments (defaults applied)
        and the result, and returns counter increments for the invocation.
        """
        signature = inspect.signature(fn) if on_return else None
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.invocation]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, n in on_return(bound.arguments, result).items():
                    self.count(key, n)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Replace module attributes by traced wrappers, restoring them on exit.

        Each target is (module name, attribute, span name, on_return or None).
        """
        saved = []
        try:
            for module_name, attr, span_name, on_return in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, on_return))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write the spans and counters as JSON, span names interned."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start", "end", "parent", "invocation"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": {str(k): dict(v) for k, v in sorted(self.counters.items())},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, covered)]


def summarize(spans: list[Span]) -> dict[int, dict[str, list]]:
    """Per invocation and span name: [summed self time, call count]."""
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[4]][span[0]]
        entry[0] += own
        entry[1] += 1
    return out
