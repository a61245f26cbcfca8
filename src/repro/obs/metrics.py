"""Deterministic metrics primitives: counters, gauges, histograms, registry.

The observability layer mirrors the contract of
:class:`~repro.core.trace.SearchTrace`: **opt-in and pay-nothing**.  A
component holds ``metrics = None`` by default and every instrumentation
site is guarded by a single ``is not None`` check (hot paths cache the
:class:`Counter` objects at construction so the steady-state cost is one
attribute add).  With no registry attached the simulation is bitwise
identical to an uninstrumented run — metrics only *observe*, they never
feed back into search decisions.

Determinism is a design constraint, not an afterthought: histogram bucket
boundaries are fixed at creation (never adaptive), snapshots are plain
dicts with sorted key order, and merging two registries is associative
and commutative (counters add, gauges take the max, histograms with equal
bounds add bucket-wise).  That is what lets the golden-trace corpus diff
metrics blocks byte-for-byte and lets the distributed coordinator fold
per-worker registries into one global view in any order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Mapping

from ..errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_CELL_BOUNDS",
    "DEFAULT_TIME_BOUNDS",
    "PHASES",
]

#: Canonical profiling phases charged by :class:`~repro.obs.span.Span`.
PHASES = ("seed", "estimate", "expand", "read", "prefetch", "merge", "recover", "scrub")

#: Fixed bucket boundaries for cell/block-count histograms (powers of two).
DEFAULT_CELL_BOUNDS: tuple[float, ...] = tuple(float(2**k) for k in range(13))

#: Fixed bucket boundaries for simulated-seconds histograms (decades).
DEFAULT_TIME_BOUNDS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0,
)


class Counter:
    """A monotonically accumulating value.

    ``value`` is public and hot paths may add to it directly — one float
    add is the whole cost of an attached counter.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (negative increments are a usage bug)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A point-in-time value (queue depth, streak length, high-water mark).

    Merging registries keeps the **max** of the two values — the only
    combine that is commutative and associative without extra state, and
    the useful one for skew analysis (worst worker wins).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = float(value)

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value:g})"


class Histogram:
    """A fixed-boundary bucket histogram.

    ``bounds`` are upper-inclusive-exclusive split points fixed at
    creation; observations land in ``counts[i]`` where ``bounds[i-1] <=
    v < bounds[i]`` and the last bucket catches overflow.  The total
    observation count is conserved under merge (bucket-wise addition),
    which the property suite asserts.
    """

    __slots__ = ("name", "bounds", "counts", "total")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_CELL_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ConfigError(
                f"histogram {name!r} needs strictly increasing bounds, got {bounds!r}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += value

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return sum(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, n={self.count}, total={self.total:g})"


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.clock.SimClock` used by profiling spans
        (see :meth:`span`); counters and histograms never need it.

    Instruments are get-or-create by name; names use dotted families
    (``dm.cell_requests``, ``span.read.total_s``) so snapshots group
    naturally.  Registries compare and export via :meth:`snapshot`, a
    plain dict with deterministically sorted keys.
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        # Active span stack (see repro.obs.span); spans of one registry
        # must share one clock, which holds by construction: a registry
        # is bound to the engine/worker whose clock it observes.
        self._span_stack: list = []
        # Open spans per phase name: a span entered while its count is
        # positive is reentrant (one dict update instead of a stack scan).
        self._open_spans: dict[str, int] = {}

    # -- instruments -----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, bounds: Iterable[float] = DEFAULT_CELL_BOUNDS) -> Histogram:
        """The histogram under ``name``; bounds bind on first creation."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    def inc(self, name: str, amount: float = 1.0) -> None:
        """One-shot counter increment (cold paths; hot paths cache)."""
        self.counter(name).value += amount

    def value(self, name: str) -> float:
        """Current value of a counter or gauge (0.0 when absent)."""
        c = self._counters.get(name)
        if c is not None:
            return c.value
        g = self._gauges.get(name)
        return g.value if g is not None else 0.0

    def span(self, name: str, clock=None):
        """A profiling scope charging simulated time to phase ``name``.

        See :class:`~repro.obs.span.Span` for the nesting semantics.  The
        span is reusable: a seam entered per window or per read builds it
        once (with the clock it will observe) and enters the same object
        every time, so a hot path pays no construction per entry.
        """
        from .span import Span  # local import breaks the module cycle

        clk = clock if clock is not None else self.clock
        if clk is None:
            raise ConfigError(
                f"span {name!r} needs a clock: bind one to the registry or pass it"
            )
        return Span(self, name, clk)

    # -- snapshots and merging ---------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a plain dict with stable (sorted) key order."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: {
                    "bounds": list(self._histograms[n].bounds),
                    "counts": list(self._histograms[n].counts),
                    "total": self._histograms[n].total,
                }
                for n in sorted(self._histograms)
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict."""
        registry = cls()
        registry.load_snapshot(snapshot)
        return registry

    def load_snapshot(self, snapshot: Mapping) -> "MetricsRegistry":
        """Overwrite this registry's state from a :meth:`snapshot` dict.

        In-place (unlike :meth:`from_snapshot`), so ``Counter`` objects
        hot paths cached at construction stay valid — the checkpoint
        restore path depends on that.  Instruments absent from the
        snapshot are reset to zero, not removed.
        """
        loaded_counters = snapshot.get("counters", {})
        for name, counter in self._counters.items():
            counter.value = float(loaded_counters.get(name, 0.0))
        for name, value in loaded_counters.items():
            self.counter(name).value = float(value)
        loaded_gauges = snapshot.get("gauges", {})
        for name, gauge in self._gauges.items():
            gauge.value = float(loaded_gauges.get(name, 0.0))
        for name, value in loaded_gauges.items():
            self.gauge(name).value = float(value)
        loaded_hists = snapshot.get("histograms", {})
        for name, hist in self._histograms.items():
            if name not in loaded_hists:
                hist.counts = [0] * (len(hist.bounds) + 1)
                hist.total = 0.0
        for name, payload in loaded_hists.items():
            hist = self._histograms.get(name)
            if hist is not None and tuple(payload["bounds"]) != hist.bounds:
                raise ConfigError(
                    f"histogram {name!r} exists with different bounds; "
                    f"cannot load snapshot in place"
                )
            if hist is None:
                hist = self.histogram(name, payload["bounds"])
            counts = [int(c) for c in payload["counts"]]
            if len(counts) != len(hist.counts):
                raise ConfigError(
                    f"histogram {name!r} snapshot has {len(counts)} buckets, "
                    f"bounds imply {len(hist.counts)}"
                )
            hist.counts = counts
            hist.total = float(payload["total"])
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry in place; returns ``self``.

        Counters add, gauges keep the max, histograms require identical
        bounds and add bucket-wise — all associative and commutative, so
        per-worker registries can be folded in any order.
        """
        for name, counter in other._counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other._gauges.items():
            mine = self.gauge(name)
            if gauge.value > mine.value:
                mine.value = gauge.value
        for name, hist in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self.histogram(name, hist.bounds)
            elif mine.bounds != hist.bounds:
                raise ConfigError(
                    f"cannot merge histogram {name!r}: bounds differ "
                    f"({mine.bounds} vs {hist.bounds})"
                )
            for i, c in enumerate(hist.counts):
                mine.counts[i] += c
            mine.total += hist.total
        return self

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
