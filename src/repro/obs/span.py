"""Profiling spans: charge elapsed *simulated* time to named phases.

A :class:`Span` brackets a region of code and, on exit, charges the
simulated seconds that elapsed on its :class:`~repro.clock.SimClock` to
three counters of its registry::

    span.<name>.count    — times the phase was entered
    span.<name>.total_s  — wall (simulated) time inside the phase
    span.<name>.self_s   — total minus time spent in *child* spans

Nesting semantics (the fix for concurrent spans over one shared clock):

* spans form a stack per registry; a span entered while another is open
  becomes its child;
* on exit, a child's elapsed time is added to the parent's child
  accumulator, so the parent's ``self_s`` bucket **never double-counts**
  time the child already claimed — ``sum(self_s)`` over all phases of a
  query equals the query's elapsed time exactly;
* **reentrant** spans (a phase nested inside itself, e.g. a ``read``
  issued while recovering inside another ``read``) charge ``count`` and
  ``self_s`` but skip ``total_s`` — the enclosing same-name span already
  covers that wall time, so ``total_s`` stays a true per-phase wall
  clock instead of inflating with the nesting depth.

One span object per seam: a span is a reusable handle, not a one-shot
record.  A hot seam (the search's per-window ``expand``, the per-read
``prefetch`` and ``read``) builds its span once and enters that same
object every time, so observing one more window costs two clock reads,
a stack push and pop, two dict updates for the reentrancy count and
three float adds — no object, no string formatting, no counter lookup.
The counters are resolved at the span's first close (``total_s`` at its
first non-reentrant close), so a span that never closes adds no key to
the registry's snapshot.  An open span cannot be entered again; nest a
second span object of the same name for a reentrant phase.

Spans only observe the clock; they never advance it.  Like everything in
``repro.obs`` they are opt-in: code paths create spans only when a
registry is attached.
"""

from __future__ import annotations

__all__ = ["Span"]


class Span:
    """One profiling scope; use as a context manager or enter/exit pair.

    Re-enterable once closed: every entry is charged separately.
    """

    __slots__ = (
        "registry", "name", "clock", "start", "child_s", "reentrant", "_open",
        "_stack", "_open_spans", "_count", "_self_s", "_total_s",
    )

    def __init__(self, registry, name: str, clock) -> None:
        self.registry = registry
        self.name = name
        self.clock = clock
        self.start = 0.0
        self.child_s = 0.0
        self.reentrant = False
        self._open = False
        self._stack = registry._span_stack
        self._open_spans = registry._open_spans
        # Counters of this phase, resolved at first close (see module doc).
        self._count = self._self_s = self._total_s = None

    def __enter__(self) -> "Span":
        if self._open:
            raise RuntimeError(f"span {self.name!r} is already open")
        open_spans = self._open_spans
        depth = open_spans.get(self.name, 0)
        open_spans[self.name] = depth + 1
        self.reentrant = depth > 0
        self.start = self.clock.now
        self.child_s = 0.0
        self._open = True
        self._stack.append(self)
        return self

    def close(self, *_exc_info) -> None:
        """Charge the elapsed time; idempotent."""
        if not self._open:
            return
        self._open = False
        stack = self._stack
        # Close abandoned children first (an exception unwound past them).
        # Each child pops itself, so it still finds its parent on the
        # stack and attributes its elapsed time there — popping it here
        # first would double-count the time in both self_s buckets.
        while stack and stack[-1] is not self:
            stack[-1].close()
        if stack:
            stack.pop()
        self._open_spans[self.name] -= 1
        elapsed = self.clock.now - self.start
        if stack:
            stack[-1].child_s += elapsed
        if self._count is None:
            registry = self.registry
            self._count = registry.counter(f"span.{self.name}.count")
            self._self_s = registry.counter(f"span.{self.name}.self_s")
        self._count.value += 1.0
        self._self_s.value += elapsed - self.child_s
        if not self.reentrant:
            if self._total_s is None:
                self._total_s = self.registry.counter(f"span.{self.name}.total_s")
            self._total_s.value += elapsed

    # Leaving the ``with`` block is closing, in one call.
    __exit__ = close

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self._open else "closed"
        return f"Span({self.name}, {state})"
