"""Reusable spans against the stack-scanning span they replaced.

:class:`StackScanSpan` is the profiling span as first written: a fresh
object per entry, reentrancy found by scanning the registry's span stack,
and its three counters looked up by name at every close.
:class:`~repro.obs.Span` is entered again and again as one object per
seam, counts open spans per name, and binds its counters at its first
close.  Hypothesis drives both through the same programs — nested and
reentrant spans, spans abandoned by an unwind and closed by an ancestor,
objects entered again after they closed — over a clock advanced by
random floats, and the snapshots must agree bit for bit, key for key.
The last test holds a search to one span object per seam, and its
instruments to one instance attribute.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SearchConfig, SWEngine
from repro.obs import MetricsRegistry, Span
from repro.workloads import make_database


class StackScanSpan:
    """The span as first written (one object per entry)."""

    __slots__ = ("registry", "name", "clock", "start", "child_s", "reentrant", "_open")

    def __init__(self, registry, name: str, clock) -> None:
        self.registry = registry
        self.name = name
        self.clock = clock
        self.start = 0.0
        self.child_s = 0.0
        self.reentrant = False
        self._open = False

    def __enter__(self) -> "StackScanSpan":
        stack = self.registry._span_stack
        self.start = self.clock.now
        self.child_s = 0.0
        self.reentrant = any(span.name == self.name for span in stack)
        self._open = True
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        stack = self.registry._span_stack
        while stack and stack[-1] is not self:
            stack[-1].close()
        if stack:
            stack.pop()
        elapsed = self.clock.now - self.start
        if stack:
            stack[-1].child_s += elapsed
        registry = self.registry
        registry.counter(f"span.{self.name}.count").value += 1.0
        registry.counter(f"span.{self.name}.self_s").value += elapsed - self.child_s
        if not self.reentrant:
            registry.counter(f"span.{self.name}.total_s").value += elapsed


class FloatClock:
    """Only ``now`` is read by a span."""

    def __init__(self) -> None:
        self.now = 0.0


NAMES = ("expand", "read", "seed")
#: Span objects a program can enter: two per name, so a name can nest in itself.
OBJECTS = tuple(name for name in NAMES for _ in range(2))

steps = st.one_of(
    st.tuples(st.just("enter"), st.integers(0, len(OBJECTS) - 1)),
    st.tuples(st.just("close"), st.integers(0, len(OBJECTS) - 1)),
    st.tuples(
        st.just("advance"),
        st.one_of(
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(0.0, 1e-9, allow_nan=False),
            st.sampled_from([0.1, 1 / 3, 2.0**-52, 1e6 + 0.1]),
        ),
    ),
)


def _hex_snapshot(registry: MetricsRegistry) -> dict[str, str]:
    return {k: float.hex(v) for k, v in registry.snapshot()["counters"].items()}


class Side:
    """One registry with its clock and span objects, driven by a program."""

    def __init__(self, make) -> None:
        self.clock = FloatClock()
        self.registry = MetricsRegistry(clock=self.clock)
        self.make = make
        # The reusable side keeps one object per slot; the oracle side
        # builds a fresh one at each entry, as the per-entry code did.
        self.spans = [make(self.registry, name, self.clock) for name in OBJECTS]

    def enter(self, slot: int) -> None:
        if self.make is StackScanSpan:
            self.spans[slot] = StackScanSpan(self.registry, OBJECTS[slot], self.clock)
        self.spans[slot].__enter__()

    def close(self, slot: int) -> None:
        self.spans[slot].close()

    def advance(self, dt: float) -> None:
        self.clock.now += dt


def _run(program) -> tuple[Side, Side]:
    new, old = Side(Span), Side(StackScanSpan)
    for op, arg in program:
        if op == "enter":
            # Entering an open object is a usage error for the reusable
            # span (see test_entering_an_open_span_raises).
            if new.spans[arg]._open:
                continue
            new.enter(arg)
            old.enter(arg)
        else:
            getattr(new, op)(arg)
            getattr(old, op)(arg)
        assert len(new.registry._span_stack) == len(old.registry._span_stack)
        open_names = Counter(span.name for span in new.registry._span_stack)
        assert {k: v for k, v in new.registry._open_spans.items() if v} == open_names
        assert _hex_snapshot(new.registry) == _hex_snapshot(old.registry)
    return new, old


@given(program=st.lists(steps, max_size=60))
@settings(max_examples=300, deadline=None)
def test_snapshots_match_the_stack_scan_oracle(program):
    new, old = _run(program)
    # Spans still open add no key; closing the outermost closes the rest.
    for side in (new, old):
        if side.registry._span_stack:
            side.registry._span_stack[0].close()
    assert new.registry._span_stack == old.registry._span_stack == []
    assert _hex_snapshot(new.registry) == _hex_snapshot(old.registry)


def test_exception_unwind_through_reused_spans():
    results = []
    for make in (Span, StackScanSpan):
        clock = FloatClock()
        registry = MetricsRegistry(clock=clock)
        outer = make(registry, "read", clock)
        for attempt in range(3):
            inner = make(registry, "read", clock)
            with pytest.raises(KeyError):
                with outer:
                    clock.now += 0.25
                    inner.__enter__()  # abandoned: the unwind closes it via outer
                    clock.now += 1 / 3 + attempt
                    raise KeyError(attempt)
        results.append(_hex_snapshot(registry))
    assert results[0] == results[1]
    assert set(results[0]) == {"span.read.count", "span.read.self_s", "span.read.total_s"}


def test_entering_an_open_span_raises():
    clock = FloatClock()
    registry = MetricsRegistry(clock=clock)
    span = registry.span("expand")
    with span:
        with pytest.raises(RuntimeError, match="already open"):
            span.__enter__()
    with span:  # closed again: reusable
        clock.now += 1.0
    assert registry.value("span.expand.count") == 2.0
    assert registry.value("span.expand.total_s") == 1.0


def test_a_searched_window_builds_no_span(tiny_dataset, tiny_query, monkeypatch):
    """A search with a registry builds O(1) span objects, not one per window."""
    built: list[str] = []
    init = Span.__init__

    def counting_init(self, registry, name, clock):
        built.append(name)
        init(self, registry, name, clock)

    monkeypatch.setattr(Span, "__init__", counting_init)
    registry = MetricsRegistry()
    db = make_database(tiny_dataset, "cluster")
    db.attach_metrics(registry)
    search = SWEngine(db, tiny_dataset.name, sample_fraction=0.1).prepare(
        tiny_query, SearchConfig(alpha=1.0)
    )
    stats = search.run().stats
    assert stats.explored > 50 and stats.reads > 5
    assert registry.value("span.expand.count") == stats.explored
    # One object per seam, whatever the number of windows and reads.
    assert sorted(built) == ["estimate", "expand", "prefetch", "read", "recover", "seed"]
    # Instruments do not push a search past the 30 attributes CPython
    # keeps in a shared-key dict (see tests/test_stepping_core.py).
    assert len(vars(search)) <= 30
