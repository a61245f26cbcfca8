"""Outside-in tracing: the benchmark wraps each layer's public functions.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` swaps
the functions named in :data:`TARGETS` for recording wrappers, runs a few
rounds, and puts the originals back.  A span is ``(layer, start, end,
parent, round)``; a layer's *self time* is the sum of its spans'
durations minus the part their child spans cover, so the layers of one
round add up to the round's wall time and the remainder — time inside no
wrapped function — is reported as unattributed rather than guessed at.

Only plain synchronous functions are wrapped.  That keeps one parent
stack valid under asyncio too: a synchronous call cannot be suspended,
so spans nest properly even when server and clients share an event loop.
"""

from __future__ import annotations

import importlib
import inspect
import json
from dataclasses import dataclass
from time import perf_counter

__all__ = ["Target", "TARGETS", "ROUND", "DATASET", "LayerTotals", "Tracer"]

#: The span that brackets one round; its self time is the unattributed part.
ROUND = "bench.round"
#: Input generation, bracketed by the benchmark itself in a traced set-up.
DATASET = "workloads.dataset"


@dataclass(frozen=True)
class Target:
    """Functions of one module or class that belong to one layer.

    ``size`` makes the wrapper also add up how much work each call moved:
    ``"result"`` takes ``len()`` of the return value, an integer ``n``
    takes ``len()`` of positional argument ``n`` (0 is ``self``).
    """

    layer: str
    module: str
    owner: str | None
    functions: tuple[str, ...]
    size: str | int | None = None


# A module-level function that other modules import by name is listed once
# per module holding a reference, so that every call site sees the wrapper.
TARGETS: tuple[Target, ...] = (
    Target("storage.table.make_table", "repro.workloads.base", None, ("make_table",)),
    Target("sampling.sample", "repro.sampling.stratified", "StratifiedSampler", ("sample",)),
    Target("core.engine.prepare", "repro.core.engine", "SWEngine", ("prepare",)),
    Target("core.search.begin", "repro.core.search", "HeuristicSearch", ("begin",)),
    Target("core.search.step", "repro.core.search", "HeuristicSearch", ("step",)),
    Target(
        "core.pqueue", "repro.core.pqueue", "SpillableQueue",
        ("push", "push_many", "push_many_arrays", "pop", "peek_priority",
         "peek_bounds", "has_stale", "drain_arrays"),
    ),
    Target(
        "core.utility", "repro.core.utility", "UtilityModel",
        ("cost", "benefit", "utility", "utility_with_benefit",
         "placement_profile", "bounds_profile"),
    ),
    Target(
        "core.kernels", "repro.core.kernels", "DataKernels",
        ("window_count", "unread_objects", "read_cells", "is_read", "reduce",
         "placement_counts", "placement_unread", "placement_fully_read",
         "placement_reduce", "placement_estimates", "unread_bounds",
         "fully_read_bounds", "reduce_bounds"),
    ),
    Target("core.datamanager.read_window", "repro.core.datamanager", "DataManager",
           ("read_window",)),
    Target("core.datamanager.estimate", "repro.core.datamanager", "DataManager",
           ("estimate",)),
    Target("storage.database.range_agg", "repro.storage.database", "Database",
           ("range_cell_aggregates",)),
    Target("storage.buffer.access", "repro.storage.buffer", "BufferPool", ("access",), size=1),
    Target("storage.disk.read", "repro.storage.disk", "SimulatedDisk", ("read",), size=1),
    Target("storage.sqlite_backend.bind_table", "repro.storage.sqlite_backend",
           "SQLiteBackend", ("bind_table",)),
    Target("storage.sqlite_backend.install_cells", "repro.storage.sqlite_backend",
           "SQLiteBackend", ("install_cells",)),
    Target("storage.sqlite_backend.coordinates", "repro.storage.sqlite_backend",
           "SQLiteTable", ("coordinates",), size="result"),
    Target("storage.sqlite_backend.coordinates_of", "repro.storage.sqlite_backend",
           "SQLiteTable", ("coordinates_of",), size="result"),
    Target("storage.sqlite_backend.blocks_matching", "repro.storage.sqlite_backend",
           "SQLiteTable", ("blocks_matching",)),
    Target("storage.sqlite_backend.gather", "repro.storage.sqlite_backend",
           "SQLiteTable", ("gather",), size="result"),
    Target("serve.protocol.encode", "repro.serve.protocol", None, ("encode",), size="result"),
    Target("serve.protocol.encode", "repro.serve.server", None, ("encode",), size="result"),
    Target("serve.protocol.encode", "repro.serve.client", None, ("encode",), size="result"),
    Target("serve.protocol.decode", "repro.serve.protocol", None, ("decode",)),
    Target("serve.protocol.decode", "repro.serve.server", None, ("decode",)),
    Target("serve.protocol.decode", "repro.serve.client", None, ("decode",)),
    Target("serve.server.submit", "repro.serve.server", "ServeCore", ("submit",)),
    Target("serve.server.results", "repro.serve.server", "ServeCore", ("results",)),
    Target("serve.server.tick", "repro.serve.server", "ServeCore", ("tick",)),
    Target("serve.manager.submit", "repro.serve.manager", "SessionManager", ("submit",)),
    Target("serve.scheduler.tick", "repro.serve.scheduler", "QueryScheduler", ("tick",)),
    Target("serve.cache.consult", "repro.serve.cache", "SemanticCache", ("consult",)),
    Target("serve.cache.publish", "repro.serve.cache", "SemanticCache", ("publish",)),
    Target("distributed.coordinator.run", "repro.distributed.coordinator", None,
           ("run_distributed",)),
    Target("distributed.coordinator.run", "repro.distributed", None, ("run_distributed",)),
    Target("distributed.worker.step", "repro.distributed.worker", "Worker", ("step",)),
    Target("distributed.messages.send", "repro.distributed.messages", "Network", ("send",)),
    Target("distributed.messages.receive", "repro.distributed.messages", "Network",
           ("receive",)),
    # Not a layer of the program: one iteration of asyncio's own loop,
    # wrapped so that socket I/O, task switching and the idle wait between
    # polls have a name instead of swelling the unattributed remainder.
    Target("bench.asyncio", "asyncio.base_events", "BaseEventLoop", ("_run_once",)),
)


@dataclass
class LayerTotals:
    """One layer in one round."""

    self_s: float = 0.0
    #: Wall time of the layer's outermost spans (a layer calling itself counts once).
    total_s: float = 0.0
    calls: int = 0
    #: Sum of the sizes its :class:`Target` asked for.
    size: int = 0


def _sites():
    """Every ``(target, owner, function name, current value)`` of :data:`TARGETS`."""
    for target in TARGETS:
        owner = importlib.import_module(target.module)
        if target.owner is not None:
            owner = getattr(owner, target.owner, None)
        for name in target.functions:
            yield target, owner, name, None if owner is None else vars(owner).get(name)


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.layers = list(dict.fromkeys([ROUND, DATASET, *(t.layer for t in TARGETS)]))
        self._spans: list = []
        self._stack: list[int] = []
        self._sizes = [0] * len(self.layers)
        self._patched: list[tuple[object, str, object]] = []
        #: ``module.Class.function`` names in :data:`TARGETS` that no longer
        #: exist (a refactor moved them); their layer then reads zero.
        self.missing: list[str] = []
        #: Raw spans of the round :meth:`keep_round` was last called on.
        self.kept: list[tuple] = []

    # -- wrappers ----------------------------------------------------------------

    def _wrapper(self, layer: int, fn, size=None):
        spans, stack, sizes = self._spans, self._stack, self._sizes

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)

        def traced_sized(*args, **kwargs):
            result = traced(*args, **kwargs)
            try:
                sizes[layer] += len(result if size == "result" else args[size])
            except (TypeError, IndexError):
                pass  # an iterator or a keyword argument: no size to add
            return result

        chosen = traced if size is None else traced_sized
        chosen.__wrapped__ = fn
        return chosen

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target, owner, name, original in _sites():
            if not inspect.isfunction(original):
                self.missing.append(".".join(filter(None, (target.module, target.owner, name))))
                continue
            wrapper = self._wrapper(self.layers.index(target.layer), original, target.size)
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    @staticmethod
    def any_installed() -> bool:
        """Whether any target currently is a wrapper."""
        return any(hasattr(current, "__wrapped__") for *_, current in _sites())

    def call(self, layer: str, fn, *args):
        """Run ``fn`` as a span of ``layer`` (for the benchmark's own phases)."""
        return self._wrapper(self.layers.index(layer), fn)(*args)

    # -- rounds ------------------------------------------------------------------

    def begin_round(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self._sizes[:] = [0] * len(self.layers)
        self._spans.append(None)
        self._stack.append(0)
        self._round_start = perf_counter()

    def end_round(self) -> dict[str, LayerTotals]:
        """Close the round and total its spans by layer."""
        end = perf_counter()
        spans = self._spans
        spans[0] = (0, self._round_start, end, -1)
        self._stack.clear()
        covered = [0.0] * len(spans)
        for _layer, start, stop, parent in spans[1:]:
            covered[parent] += stop - start
        totals = [LayerTotals(size=size) for size in self._sizes]
        for index, (layer, start, stop, parent) in enumerate(spans):
            entry = totals[layer]
            entry.self_s += (stop - start) - covered[index]
            entry.calls += 1
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                entry.total_s += stop - start
        return dict(zip(self.layers, totals))

    def keep_round(self, round_id: int) -> None:
        """Remember the just-ended round's raw spans for the trace file."""
        self.kept = [
            (self.layers[layer], start, stop, parent, round_id)
            for layer, start, stop, parent in self._spans
        ]

    def write(self, path, header: dict) -> None:
        """Write the kept round's spans, times relative to the round's start."""
        origin = self.kept[0][1] if self.kept else 0.0
        document = dict(header)
        document["span_fields"] = ["layer", "start_s", "end_s", "parent", "round"]
        document["spans"] = [
            [layer, round(start - origin, 7), round(stop - origin, 7), parent, round_id]
            for layer, start, stop, parent, round_id in self.kept
        ]
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
