"""Tests of the benchmark's span tracer on synthetic span trees.

Run from the repository root: python -m pytest benchmark/test_tracer.py
"""
import sys
import types

import pytest

from tracer import Tracer, self_times, summarize


class Clock:
    """Integer ticks advanced by the synthetic functions themselves."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, n):
        self.now += n


def test_nested_spans_give_exact_self_times_and_counts():
    clock = Clock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("jones.leaf", clock.tick)

    def middle():
        clock.tick(2)
        leaf(3)
        clock.tick(1)
        leaf(4)

    middle = tracer.wrap("bench.middle", middle)

    def root():
        clock.tick(5)
        middle()
        clock.tick(7)
        leaf(6)

    root = tracer.wrap("cli.main", root)
    root()
    tracer.invocation = 1
    root()
    root()

    names = [s[0] for s in tracer.spans[:5]]
    assert names == ["cli.main", "bench.middle", "jones.leaf", "jones.leaf", "jones.leaf"]
    assert [s[3] for s in tracer.spans[:5]] == [-1, 0, 1, 1, 0]
    assert tracer.spans[0][2] - tracer.spans[0][1] == 28
    assert self_times(tracer.spans[:5]) == [12, 3, 3, 4, 6]

    summary = summarize(tracer.spans)
    assert {k: list(v) for k, v in summary[0].items()} == {
        "cli.main": [12, 1], "bench.middle": [3, 1], "jones.leaf": [13, 3],
    }
    assert {k: list(v) for k, v in summary[1].items()} == {
        "cli.main": [24, 2], "bench.middle": [6, 2], "jones.leaf": [26, 6],
    }


def test_span_closes_when_the_call_raises():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.tick(2)
        raise ValueError("boom")

    boom = tracer.wrap("analysis.boom", boom)

    def outer():
        clock.tick(1)
        with pytest.raises(ValueError):
            boom()

    tracer.wrap("cli.main", outer)()
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("cli.main", 0, 3, -1), ("analysis.boom", 1, 3, 0),
    ]
    assert self_times(tracer.spans) == [1, 2]


def test_patched_counts_bound_arguments_and_restores(monkeypatch):
    module = types.ModuleType("fake_layer")

    def simulate(grid, windows=25):
        return len(grid) * windows

    module.simulate = simulate
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer(clock=Clock())
    hook = lambda args, result: {"windows": args["windows"] * len(args["grid"]), "results": result}
    with tracer.patched([("fake_layer", "simulate", "sources.simulate", hook)]):
        assert module.simulate is not simulate
        module.simulate([1, 2, 3])
        tracer.invocation = 1
        module.simulate([1], windows=4)
    assert module.simulate is simulate
    assert tracer.counters[0] == {"windows": 75, "results": 75}
    assert tracer.counters[1] == {"windows": 4, "results": 4}
    assert [s[0] for s in tracer.spans] == ["sources.simulate"] * 2
