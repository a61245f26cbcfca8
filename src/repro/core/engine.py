"""The public engine facade: execute SW queries against a database.

:class:`SWEngine` wires together the substrate pieces for one table —
stratified sample construction (offline, no simulated time), the Data
Manager, the utility model and the heuristic search — and reports both the
online results and the storage-level statistics of the execution.

Typical use::

    engine = SWEngine(database, "sdss", sample_fraction=0.1)
    report = engine.execute(query, SearchConfig(alpha=1.0))
    for result in report.run.results:
        print(result.bounds, result.time)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..costs import CostModel
from ..errors import ConfigError
from ..faults import Degradation, outcome_of
from ..sampling.noise import NoiseModel
from ..sampling.stratified import CellSample
from ..storage.database import Database
from .datamanager import DataManager
from .query import ResultWindow, SWQuery
from .search import HeuristicSearch, SearchConfig, SearchRun

__all__ = ["ExecutionReport", "StreamingExecution", "SWEngine"]


@dataclass
class ExecutionReport:
    """One query execution: the search run plus storage-level deltas.

    ``degradations`` is empty for a clean run.  A ``storage`` record
    (attached fault plan, DESIGN.md §11) names unrepairable corruption
    the query survived — quarantined pages and the grid cells whose
    aggregates may be missing tuples; results are still exact over every
    page that *was* readable.  A ``backend`` record (resilience layer,
    §16) says the storage backend failed operations past its retry
    budget and the run was served from the simulator mirror instead.
    ``backend_retries`` / ``breaker_trips`` / ``fallback_reads`` carry
    the resilience counters of this execution whether or not it degraded
    — retries alone keep the run ``complete``.

    ``interrupted`` marks a stream that stopped being driven before its
    search finished: the search is parked, checkpointable and resumable.
    A search the engine itself stopped (deadline, time limit, cancel,
    step limit — ``run.interrupt_reason`` says which) is ``aborted``.
    """

    run: SearchRun
    disk_stats: dict[str, float] = field(default_factory=dict)
    buffer_hits: int = 0
    buffer_misses: int = 0
    degradations: tuple[Degradation, ...] = ()
    interrupted: bool = False
    backend_retries: int = 0
    breaker_trips: int = 0
    fallback_reads: int = 0

    @property
    def results(self) -> list[ResultWindow]:
        """Shortcut to the qualifying windows."""
        return self.run.results

    @property
    def outcome(self) -> str:
        """``complete`` | ``degraded`` | ``aborted`` | ``interrupted``."""
        return outcome_of(self.interrupted, self.run.interrupt_reason, self.degradations)


class StreamingExecution:
    """Handle for one online execution: iterate results, steer, report.

    Iterating yields qualifying windows as they are found, exactly like
    the generator :meth:`SWEngine.execute_iter` used to return; on top
    of that the handle exposes the partial execution — :meth:`cancel`
    stops the search cooperatively (the next step interrupts),
    :meth:`close` abandons the stream without touching the search (it
    stays checkpointable), and :meth:`report` packages whatever has run
    so far into an :class:`ExecutionReport` with the same I/O deltas
    :meth:`SWEngine.execute` computes — so a partial streaming run and
    the checkpoint/resume path agree on every number.
    """

    def __init__(self, engine: "SWEngine", search: HeuristicSearch) -> None:
        self._engine = engine
        self.search = search
        self.run = search.new_run()
        disk = engine.database.disk(engine.table_name)
        buffer = engine.database.buffer(engine.table_name)
        self._before = disk.stats()
        self._hits0 = buffer.hits
        self._misses0 = buffer.misses
        self._backend0 = engine.backend_baseline()
        # The search's own loop, begun at the first next().
        self._results = search.iter_results(self.run)
        self._closed = False
        self._finished = False

    def __iter__(self) -> "StreamingExecution":
        return self

    def __next__(self) -> ResultWindow:
        if self._closed:
            raise StopIteration
        try:
            return next(self._results)
        except StopIteration:
            self._closed = self._finished = True
            raise

    def cancel(self) -> None:
        """Request cooperative cancellation of the underlying search."""
        self.search.cancel()

    def close(self) -> None:
        """Stop driving the stream; the search is left checkpointable."""
        self._closed = True

    def report(self) -> ExecutionReport:
        """The execution so far, in :meth:`SWEngine.execute` shape."""
        delta, hits, misses = self._engine._io_delta(
            self._before, self._hits0, self._misses0
        )
        return ExecutionReport(
            run=self.run,
            disk_stats=delta,
            buffer_hits=hits,
            buffer_misses=misses,
            interrupted=not self._finished,
            **self._engine.fault_delta(self.search, self._backend0),
        )


class SWEngine:
    """Executes Semantic Window queries over one registered table."""

    def __init__(
        self,
        database: Database,
        table_name: str,
        sample_fraction: float = 0.1,
        sample_seed: int = 17,
        noise: NoiseModel | None = None,
        sampler: str = "stratified",
    ) -> None:
        if sampler not in ("stratified", "uniform"):
            raise ConfigError(
                f"sampler must be 'stratified' or 'uniform', got {sampler!r}"
            )
        self.database = database
        self.table_name = table_name
        self.sample_fraction = sample_fraction
        self.sample_seed = sample_seed
        self.noise = noise
        self.sampler = sampler
        self._data_cache: dict[tuple, DataManager] = {}
        self._semantic_cache = None

    @property
    def cost_model(self) -> CostModel:
        """The database's simulated cost model."""
        return self.database.cost_model

    def attach_semantic_cache(self, cache) -> None:
        """Share a cross-query semantic cache with this engine.

        ``cache`` is duck-typed (``repro.serve.SemanticCache``).  Once
        attached, every prepared query binds its Data Manager to the
        cache — unread cells are served from other sessions' published
        summaries before DBMS I/O is charged — and stratified-sample
        construction consults the cache's sample store, keyed by the
        table's *physical* signature (sample row ids are
        placement-dependent).  ``None`` detaches.
        """
        self._semantic_cache = cache

    # -- sample management -------------------------------------------------------

    def sample_for(self, query: SWQuery, metrics=None) -> CellSample:
        """The precomputed sample for this query's grid.

        Samples are built offline in the paper's protocol, so this charges
        no simulated time.  They are drawn once per placed dataset and
        kept in its source's store, so every engine over every database
        on that dataset shares them; the database records which it took
        (:meth:`~repro.storage.database.Database.sample`).  Sample
        construction counters land in ``metrics`` (defaulting to the
        database's registry) when this database first takes the sample
        from that store, drawn or stored alike; a sample found in an
        attached semantic cache records none.
        """
        return self.database.sample(
            self.table_name,
            query.grid,
            self.sample_fraction,
            self.sample_seed,
            self.sampler,
            shared=self._semantic_cache,
            metrics=metrics,
        )

    # -- execution -----------------------------------------------------------------

    def prepare(
        self,
        query: SWQuery,
        config: SearchConfig | None = None,
        trace=None,
        reuse_cache: bool = False,
        metrics=None,
    ) -> HeuristicSearch:
        """Build the search machinery for a query without running it.

        With ``reuse_cache=True`` the per-cell exact cache (Data Manager)
        is kept across queries over the same grid and objectives, so a
        follow-up query — a refined threshold in an exploration session,
        say — re-reads nothing that was already fetched.  This is sound:
        cached cell values are exact, and the cost model already treats
        cached cells as free.

        ``metrics`` opts the execution into the observability layer
        (:mod:`repro.obs`).  Omitted, it falls back to the registry
        attached to the database (if any); passing one explicitly also
        attaches it to the database so storage counters accrue to the
        same registry.  Without a registry anywhere, nothing is paid.
        """
        if metrics is None:
            metrics = self.database.metrics
        elif self.database.metrics is not metrics:
            self.database.attach_metrics(metrics)
        objectives = query.conditions.content_objectives()
        key = (
            query.grid.key,
            tuple(sorted(f"{o.aggregate.name}:{o.key}" for o in objectives)),
        )
        if reuse_cache and self.noise is None and key in self._data_cache:
            data = self._data_cache[key]
        else:
            data = DataManager(
                self.database,
                self.table_name,
                query.grid,
                objectives,
                self.sample_for(query, metrics=metrics),
                noise=self.noise,
            )
            if reuse_cache and self.noise is None:
                self._data_cache[key] = data
        if self._semantic_cache is not None:
            tsig, gsig = self._semantic_cache.binding(
                self.database.table(self.table_name), query.grid
            )
            data.attach_cache(self._semantic_cache, tsig, gsig)
        search = HeuristicSearch(
            query, data, config, cost_model=self.cost_model, trace=trace, metrics=metrics
        )
        budget = search.config.memory_budget_blocks
        if budget is not None:
            self.database.buffer(self.table_name).resize(budget)
        backend = self.database.backend
        if getattr(backend, "resilient", False):
            # The retry loop must respect this search's lifecycle: stop
            # backing off once the deadline passes or a cancel lands.
            backend.bind_lifecycle(
                deadline_s=search.config.deadline_s,
                cancelled=lambda: search.cancelled,
            )
        if trace is not None:
            # Integrity and resilience events land in this search's trace.
            self.database.attach_trace(trace)
        return search

    def execute(
        self,
        query: SWQuery,
        config: SearchConfig | None = None,
        on_result: Callable[[ResultWindow], None] | None = None,
        trace=None,
        reuse_cache: bool = False,
        metrics=None,
    ) -> ExecutionReport:
        """Run a query to completion and return results plus I/O deltas.

        Pass a :class:`~repro.core.trace.SearchTrace` as ``trace`` to
        record the execution timeline; ``reuse_cache=True`` keeps the
        exact cell cache warm across queries on the same grid; a
        ``metrics`` registry records the full accounting of the run
        (defaulting to the database's attached registry, if any).
        """
        search = self.prepare(
            query, config, trace=trace, reuse_cache=reuse_cache, metrics=metrics
        )
        disk = self.database.disk(self.table_name)
        buffer = self.database.buffer(self.table_name)
        before = disk.stats()
        hits0, misses0 = buffer.hits, buffer.misses
        backend0 = self.backend_baseline()

        registry = search.metrics
        if registry is not None:
            with registry.span("query", self.database.clock):
                run = search.run(on_result=on_result)
        else:
            run = search.run(on_result=on_result)

        delta, hits, misses = self._io_delta(before, hits0, misses0)
        return ExecutionReport(
            run=run,
            disk_stats=delta,
            buffer_hits=hits,
            buffer_misses=misses,
            **self.fault_delta(search, backend0),
        )

    def _io_delta(
        self, before: dict[str, float], hits0: int, misses0: int
    ) -> tuple[dict[str, float], int, int]:
        """Disk/buffer deltas since a captured baseline, report-shaped."""
        disk = self.database.disk(self.table_name)
        buffer = self.database.buffer(self.table_name)
        after = disk.stats()
        additive = ("total_time_s", "blocks_read", "blocks_reread", "requests", "seeks")
        delta = {k: after[k] - before[k] for k in additive}
        # Per-block mean is a ratio, not additive — recompute from deltas.
        if delta["blocks_read"] > 0:
            delta["mean_read_ms"] = delta["total_time_s"] * 1e3 / delta["blocks_read"]
            p = min(1.0, delta["seeks"] / delta["blocks_read"])
            delta["dev_read_ms"] = (p * (1 - p)) ** 0.5 * self.cost_model.seek_ms
        else:
            delta["mean_read_ms"] = 0.0
            delta["dev_read_ms"] = 0.0
        return delta, buffer.hits - hits0, buffer.misses - misses0

    def execute_iter(
        self,
        query: SWQuery,
        config: SearchConfig | None = None,
        metrics=None,
        trace=None,
    ) -> StreamingExecution:
        """Stream results online (human-in-the-loop form of :meth:`execute`).

        Returns a :class:`StreamingExecution`: iterate it for results as
        they are found, ``cancel()`` it mid-iteration, and ask it for a
        partial :class:`ExecutionReport` at any point via ``report()``.
        """
        search = self.prepare(query, config, trace=trace, metrics=metrics)
        return StreamingExecution(self, search)

    # -- resilience ----------------------------------------------------------------

    def backend_baseline(self) -> dict[str, int] | None:
        """Resilience-counter snapshot before an execution (``None`` if off)."""
        backend = self.database.backend
        if getattr(backend, "resilient", False):
            return backend.stats()
        return None

    def fault_delta(self, search: HeuristicSearch, baseline: dict[str, int] | None) -> dict:
        """Report fields for what the fault layers did to one execution.

        ``degradations`` collects each attached layer's record (storage
        integrity, backend resilience); the resilience counters are
        deltas since ``baseline`` (a :meth:`backend_baseline` capture).
        """
        integ = self.database.integrity(self.table_name)
        found = [integ.degradation(search.data.degraded_cells)] if integ is not None else []
        fields: dict = {}
        if baseline is not None:
            backend = self.database.backend
            now = backend.stats()
            found.append(backend.degradation(baseline))
            fields = {
                "backend_retries": now["retries"] - baseline["retries"],
                "breaker_trips": now["breaker_trips"] - baseline["breaker_trips"],
                "fallback_reads": now["fallback_reads"] - baseline["fallback_reads"],
            }
        fields["degradations"] = tuple(d for d in found if d is not None)
        return fields

    def resume(
        self,
        query: SWQuery,
        state: dict,
        config: SearchConfig | None = None,
        trace=None,
        metrics=None,
    ) -> HeuristicSearch:
        """Rebuild a search from a checkpoint and park it ready to run.

        ``state`` is a :meth:`HeuristicSearch.checkpoint_state` capture
        (possibly round-tripped through
        :func:`repro.io.write_checkpoint` / ``read_checkpoint``).  The
        engine must be fresh — same dataset, placement and sample seed as
        the checkpointing run, with its simulated clock not yet past the
        capture point.  Continue with ``run()`` or ``iter_results()``;
        the completed execution is byte-identical to an uninterrupted one.
        """
        search = self.prepare(query, config, trace=trace, metrics=metrics)
        search.restore_state(state)
        return search
