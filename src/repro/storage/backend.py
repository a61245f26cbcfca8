"""The pluggable storage-backend interface and its simulator implementation.

The paper's prototype ran against a real PostgreSQL deployment; this
reproduction historically ran only against the deterministic in-memory
simulator.  :class:`StorageBackend` formalizes the seam between the two:
everything the engine stack needs from a physical substrate — table
bind/rebind, block-level region scans, row gathers for cell-summary
aggregation, full-column draws for sample construction, and the
integrity layer's byte access — goes through a *table handle* obtained
from a backend.  The simulated cost model stays above this seam: the
:class:`~repro.storage.database.Database` front-end charges identical
simulated I/O whichever backend serves the bytes, so a real backend is
required to be *byte-identical* to the simulator (the differential
harness in ``tests/test_backend_differential.py`` enforces it).

Backends also keep the dedup record of installed cells: one set of flat
cell ids per ``(table, grid)`` on every backend (SNIPPETS.md snippet 3's
in-memory strategy), deduped by the one rule in
:meth:`StorageBackend.dedup_install`, so identical scans report identical
``(installed, deduped)`` counts — an auditor identity checks the
accounting.  The cell *values* stay in the SW layer's own cache (paper
Section 5); nothing but the ids crosses the seam downward.
``install_cells`` never writes: a backend that persists the record
(SQLite) buffers the new ids and makes them durable in
``flush_installs``, which the search calls once at the end of a query,
so no write sits between a request and its results.

Backend selection precedence (:func:`resolve_backend`):

1. an explicit configuration value (a :class:`StorageBackend` instance
   or a URL string such as ``"sqlite:dev.db"``) always wins;
2. otherwise the ``DATABASE_URL`` environment variable, when set;
3. otherwise the deterministic in-memory simulator.

Unknown URL schemes raise :class:`~repro.errors.ConfigError`.

A **table handle** (duck-typed; :class:`~repro.storage.table.HeapTable`
is the canonical implementation) must provide:

* identity and shape — ``name``, ``schema``, ``tuples_per_block``,
  ``num_rows``, ``num_blocks``, ``ndim``;
* block geometry — ``block_rows``, ``rows_of_blocks``, ``block_mbrs``;
* the bitmap index scan — ``blocks_intersecting``, ``blocks_matching``;
* row access — ``column`` (full column, physical order), ``gather``
  (one column for given row ids), ``coordinates`` and
  ``coordinates_of`` (the coordinate matrix, whole or per-row);
* the fused region scan — ``scan_region(lows, highs, columns)``
  returning ``(block_ids, rows, coordinates, values)``: what
  ``blocks_matching``, ``coordinates_of(rows)`` and one
  ``gather(c, rows)`` per requested column return, in one call, which
  is what a window read costs (on a SQL backend, one ``block_id`` range
  read per run of consecutive candidate blocks).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Mapping, Sequence, TYPE_CHECKING

import numpy as np

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .table import HeapTable

__all__ = [
    "StorageBackend",
    "SimulatorBackend",
    "backend_from_url",
    "resolve_backend",
    "grid_key",
]


def grid_key(grid) -> str:
    """Stable text key of a grid geometry (area bounds and step vector).

    Used to scope installed cell summaries: flat cell ids are only
    comparable within one grid geometry.
    """
    return repr(
        (tuple(grid.area.lower), tuple(grid.area.upper), tuple(grid.steps))
    )


class StorageBackend(ABC):
    """Physical substrate behind a :class:`~repro.storage.database.Database`.

    Subclasses manage named tables and hand out table handles (see the
    module docstring for the handle contract).  ``name`` identifies the
    backend in metrics (``db.backend_reads.<name>``) and in the search
    trace's READ events.
    """

    name: str = "abstract"

    # -- table lifecycle -----------------------------------------------------

    @abstractmethod
    def bind_table(self, table: "HeapTable"):
        """Load (or replace) a table in this backend; returns its handle.

        Rebinding an existing name replaces the stored rows and clears
        the name's installed-cell record — the distributed layer rebinds
        adopters to *larger* tables whose contents supersede the old
        binding.
        """

    @abstractmethod
    def handle(self, name: str):
        """The handle of a bound table; raises ``KeyError`` when unknown."""

    @abstractmethod
    def table_names(self) -> tuple[str, ...]:
        """Sorted names of every bound table."""

    @abstractmethod
    def dump_table(self, name: str) -> dict[str, np.ndarray]:
        """Every column of a bound table, in physical row order.

        The loader round-trip contract: for any bound table,
        ``dump_table`` reproduces the source arrays bit-exactly (NaNs
        included), regardless of integrity-layer quarantine state —
        quarantine is a *read-path* overlay, not data loss in the store.
        """

    # -- installed cell summaries -------------------------------------------

    @abstractmethod
    def install_cells(
        self,
        table_name: str,
        gkey: str,
        flat_ids: Sequence[int],
    ) -> tuple[int, int]:
        """Record cells as installed; dedup against earlier installs.

        ``flat_ids`` are the occupied cells of one range-aggregate scan
        under the grid identified by ``gkey``.  Returns ``(installed,
        deduped)`` — how many cells were new versus already recorded.
        """

    @staticmethod
    def dedup_install(seen: set[int], flat_ids: Sequence[int]) -> tuple[set[int], int]:
        """The install dedup every backend shares: ``fresh = ids - seen``.

        Adds ``flat_ids`` to ``seen`` (the ``(table, grid)`` record) and
        returns ``(fresh, deduped)``: the ids that were new, and how many
        of the attempts were not.
        """
        ids = flat_ids.tolist() if isinstance(flat_ids, np.ndarray) else map(int, flat_ids)
        fresh = set(ids) - seen
        seen |= fresh
        return fresh, len(flat_ids) - len(fresh)

    def flush_installs(self) -> None:
        """Make every install recorded so far durable.

        Called at the end of a query (the search's terminal step), never
        on the read path.  A no-op for backends whose record lives in
        memory only; a persisting backend also flushes by itself before
        any read of the persisted record and on :meth:`close`.
        """

    @abstractmethod
    def installed_cell_count(self, table_name: str, gkey: str | None = None) -> int:
        """Number of distinct cells recorded for a table (one grid or all)."""

    # -- checkpoint support --------------------------------------------------

    @abstractmethod
    def install_state(self, table_name: str) -> dict:
        """JSON-able capture of one table's installed-cell record.

        Part of the checkpoint/resume byte-identity contract: the
        ``installed`` / ``deduped`` split of a post-resume scan depends
        on which cells the backend already recorded, so a resumed run
        must restore the record alongside the disk/buffer/cache state
        (:meth:`restore_install_state`) or its install counters drift
        from the uninterrupted run's.
        """

    @abstractmethod
    def restore_install_state(self, table_name: str, state: dict) -> None:
        """Replace one table's installed-cell record with a capture."""

    # -- description and lifetime --------------------------------------------

    def describe(self) -> str:
        """Human-readable one-liner for CLI output."""
        return self.name

    def close(self) -> None:
        """Release what the backend holds open (idempotent; default: nothing)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"


class SimulatorBackend(StorageBackend):
    """The deterministic in-memory reference backend.

    Tables are served straight from their
    :class:`~repro.storage.table.HeapTable` arrays — binding returns the
    table itself as the handle.  The installed-cell record lives in
    memory only, so ``flush_installs`` and ``close`` do nothing.
    """

    name = "simulator"

    def __init__(self) -> None:
        self._tables: dict[str, "HeapTable"] = {}
        self._installed: dict[tuple[str, str], set[int]] = {}

    def bind_table(self, table: "HeapTable"):
        # A rebind drops the stale installed-cell record with the rows.
        self._forget_installs(table.name)
        self._tables[table.name] = table
        return table

    def _forget_installs(self, table_name: str) -> None:
        for key in [k for k in self._installed if k[0] == table_name]:
            del self._installed[key]

    def handle(self, name: str):
        return self._tables[name]

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def dump_table(self, name: str) -> dict[str, np.ndarray]:
        table = self._tables[name]
        return {c: np.array(table.column(c), dtype=float) for c in table.schema.columns}

    def install_cells(
        self,
        table_name: str,
        gkey: str,
        flat_ids: Sequence[int],
    ) -> tuple[int, int]:
        seen = self._installed.setdefault((table_name, gkey), set())
        fresh, deduped = self.dedup_install(seen, flat_ids)
        return len(fresh), deduped

    def installed_cell_count(self, table_name: str, gkey: str | None = None) -> int:
        if gkey is not None:
            return len(self._installed.get((table_name, gkey), ()))
        return sum(
            len(cells) for (t, _), cells in self._installed.items() if t == table_name
        )

    def install_state(self, table_name: str) -> dict:
        return {
            "installs": {
                gkey: sorted(cells)
                for (t, gkey), cells in self._installed.items()
                if t == table_name
            }
        }

    def restore_install_state(self, table_name: str, state: dict) -> None:
        self._forget_installs(table_name)
        for gkey, cells in state["installs"].items():
            self._installed[(table_name, gkey)] = {int(c) for c in cells}


def backend_from_url(url: str) -> StorageBackend:
    """Construct a backend from a URL-ish spec string.

    Accepted forms::

        simulator | sim | memory        the in-memory simulator
        sqlite                          SQLite, in-memory store
        sqlite:                         same
        sqlite::memory:                 same, explicit
        sqlite:dev.db                   SQLite file (relative path)
        sqlite:///abs/path.db           SQLite file (absolute path)

    ``postgres`` / ``postgresql`` URLs are rejected with a dedicated
    message: that backend (the paper's production tier) is planned but
    not yet implemented.  Anything else raises
    :class:`~repro.errors.ConfigError` naming the unknown scheme.
    """
    spec = url.strip()
    if not spec:
        raise ConfigError("empty storage backend URL")
    scheme, _, rest = spec.partition(":")
    scheme = scheme.lower()
    if scheme in ("simulator", "sim", "memory") and not rest:
        return SimulatorBackend()
    if scheme == "sqlite":
        from .sqlite_backend import SQLiteBackend

        path = rest
        if path.startswith("//"):
            path = path[2:] or ":memory:"
        if path in ("", ":memory:"):
            return SQLiteBackend(":memory:")
        return SQLiteBackend(path)
    if scheme in ("postgres", "postgresql"):
        raise ConfigError(
            f"storage backend scheme {scheme!r} is planned but not yet "
            "implemented (the paper's production tier); "
            "use 'sqlite[:path]' or 'simulator'"
        )
    raise ConfigError(
        f"unknown storage backend scheme {scheme!r} in {url!r}; "
        "supported: simulator, sqlite[:path]"
    )


def resolve_backend(
    spec: "StorageBackend | str | None" = None,
    env: Mapping[str, str] | None = None,
) -> StorageBackend:
    """Resolve a backend with the documented precedence.

    Explicit ``spec`` (instance or URL string) beats the ``DATABASE_URL``
    environment variable, which beats the simulator default.  ``env``
    overrides ``os.environ`` for tests.
    """
    if isinstance(spec, StorageBackend):
        return spec
    if spec is not None:
        if not isinstance(spec, str):
            raise ConfigError(
                f"backend must be a StorageBackend or URL string, got {type(spec).__name__}"
            )
        return backend_from_url(spec)
    url = (os.environ if env is None else env).get("DATABASE_URL")
    if url:
        return backend_from_url(url)
    return SimulatorBackend()
