"""SQLite storage backend: real SQL serving the same engine stack.

This is the development-tier realization of the paper's PostgreSQL
deployment (the production tier named in ROADMAP.md).  A bound table
becomes three SQLite objects:

* ``sw_data_<name>`` — one row per heap block: ``block_id`` as the
  INTEGER PRIMARY KEY and ``payload``, a BLOB holding the block's rows as
  a row-major little-endian float64 matrix over every schema column in
  schema order (``tobytes()``), so a run of consecutive blocks reads back
  as one matrix through :func:`numpy.frombuffer`, with no Python object
  per stored tuple;
* ``sw_mbr_<name>`` — per-block coordinate MBRs (what a BRIN/GiST index
  would hold), read once per handle by the bitmap prefilter;
* a row in the ``sw_tables`` catalog carrying the schema and block size,
  so a database file can be reopened later (:meth:`SQLiteBackend.handle`
  reconstructs handles from the catalog).

A region scan runs the simulator's plan, bitmap index scan then heap
reads: the blocks whose MBR meets the box
(:func:`~repro.storage.table.intersecting_blocks`), each run of
consecutive blocks read as one ``block_id`` range on the primary key,
and the box filtered in numpy.  The per-cell
aggregation stays in the shared numpy code of
:mod:`repro.storage.database`, which guarantees the float-accumulation
order (and therefore every byte of every result) is identical to the
simulator's.  Values are stored as bytes, so they round-trip
bit-exactly with no NULL mapping: −0.0, NaN and every NaN bit pattern
come back as written.  A store written when ``sw_data_<name>`` held one
row per tuple (a ``rid`` key, one REAL per column, NULL for NaN) is
converted to blocks once, in one transaction, when
:meth:`SQLiteBackend.handle` first opens it.

Installed cells dedup **in RAM** — per ``(table, grid)`` one set of
installed flat ids, loaded from the store on first touch (SNIPPETS.md
snippet 3's SQLite strategy) and deduped by the rule every backend shares
(:meth:`StorageBackend.dedup_install`) — so
:meth:`SQLiteBackend.install_cells` answers with set arithmetic and
writes nothing: the read path only reads.  Ids that are new wait in a
pending batch, each at most once, so the buffer is bounded by the grid.
The cell values are never written: they live in the SW layer's cache.

:meth:`SQLiteBackend.flush_installs` makes them durable — at the end of a
query, at checkpoint capture, before any read of the persisted record and
on :meth:`SQLiteBackend.close` — in **one transaction** (DESIGN.md §15):
every pending batch goes in through one ``INSERT … ON CONFLICT DO
NOTHING`` and leaves RAM only once it is committed.  SQLite's rollback
journal is the crash protocol: a flush that fails rolls back whole and
keeps its batches buffered for the next flush, and a process killed
inside one leaves a hot journal that the next open rolls back.  A crash
loses only the installs buffered since the last flush, which nothing has
read; never part of a flush.

The driver's ``sqlite3.OperationalError`` / ``DatabaseError`` (locked
file, I/O error, not a database) leaves this module — the constructor
included — as :class:`~repro.errors.BackendError`, the taxonomy the
resilience layer retries and degrades on.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sqlite3
from typing import Sequence

import numpy as np

from ..errors import BackendError, ConfigError
from .backend import StorageBackend
from .pages import BlockLayout, coalesce_runs
from .table import HeapTable, TableSchema, block_bounds, intersecting_blocks

__all__ = ["SQLiteBackend", "SQLiteTable"]

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")
_INSERT_INSTALL = "INSERT INTO sw_cell_installs VALUES (?, ?, ?) ON CONFLICT DO NOTHING"
# A stored value: little-endian IEEE double, as bytes.
_F8 = np.dtype("<f8")


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


# Primary result codes of SQLITE_BUSY and SQLITE_LOCKED.
_LOCK_CODES = (5, 6)


def _driver_errors(method):
    """Re-raise the driver's store faults as :class:`BackendError`.

    A locked file or an I/O error is a fault of the store, not of the
    caller, so it crosses the backend boundary in the taxonomy the
    resilience layer retries and degrades on: lock contention is
    ``busy``, anything else (I/O error, vanished or read-only file, a
    file that is not a database) is ``disconnect``.  Wraps whole public
    methods, so lazily stepped cursors and commits are covered too.
    """

    def translating(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except sqlite3.DatabaseError as err:
            if type(err) not in (sqlite3.OperationalError, sqlite3.DatabaseError):
                raise  # integrity / programming errors are the caller's
            # Python < 3.11 carries no result code, only the message.
            code = getattr(err, "sqlite_errorcode", None)
            locked = "locked" in str(err) if code is None else (code & 0xFF) in _LOCK_CODES
            raise BackendError(
                f"sqlite: {err}", kind="busy" if locked else "disconnect"
            ) from err

    # ``functools.wraps`` minus ``__wrapped__``: the ledger's tracer reads
    # that attribute as "a trace wrapper is still installed here" and
    # refuses to time.  The signature is pinned instead, for the docs.
    functools.update_wrapper(translating, method)
    del translating.__wrapped__
    translating.__signature__ = inspect.signature(method)
    return translating


def _decode(fetched: list[tuple], width: int) -> np.ndarray:
    """Fetched REAL rows as ``(len(fetched), width)`` floats, NULL as NaN."""
    return np.array(fetched, dtype=float).reshape(-1, width)


class SQLiteTable(BlockLayout):
    """Table handle serving row data from SQLite queries.

    Implements the handle contract of :mod:`repro.storage.backend`:
    metadata (schema, block size, row count) is catalog state cached at
    bind time, the block MBRs are read on first use; every row access —
    column draws, row gathers, a region scan's heap reads — executes SQL
    against the store.  A handle bound from a cluster-placed table keeps
    that table's cell directory (it is O(cells) and never stored), so
    :meth:`cell_ids` under the placement grid reads nothing, and its
    source, so its samples and objective grids come from the placed
    dataset's store; a handle reopened from the catalog computes the ids
    from coordinates and draws its inputs through SQL.
    """

    def __init__(
        self,
        conn: sqlite3.Connection,
        name: str,
        schema: TableSchema,
        tuples_per_block: int,
        num_rows: int,
        cell_directory=None,
        source=None,
    ) -> None:
        super().__init__(name, schema, tuples_per_block, num_rows, cell_directory, source)
        self._conn = conn
        # Payload column of each schema column, and of the coordinates.
        self._index = {c: i for i, c in enumerate(schema.columns)}
        self._coord_index = [self._index[c] for c in schema.coordinate_columns]
        self._range_sql = (
            f"SELECT payload FROM {_quoted(f'sw_data_{name}')}"
            " WHERE block_id >= ? AND block_id < ? ORDER BY block_id"
        )
        self._mbr_sql = _quoted(f"sw_mbr_{name}")
        self._mbrs: tuple[np.ndarray, np.ndarray] | None = None  # read on first use

    # -- row access ---------------------------------------------------------------

    @_driver_errors
    def column(self, name: str) -> np.ndarray:
        """Full column in physical order, from one read of every block."""
        self.check_column(name)
        return self._read_blocks(np.arange(self.num_blocks))[:, self._index[name]].copy()

    @_driver_errors
    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Values of one column for the given row ids (order-aligned)."""
        self.check_column(name)
        data, at = self._blocks_holding(rows)
        return data[at, self._index[name]]

    @_driver_errors
    def coordinates(self) -> np.ndarray:
        """``(num_rows, ndim)`` coordinate matrix in physical order."""
        return self._read_blocks(np.arange(self.num_blocks))[:, self._coord_index]

    @_driver_errors
    def coordinates_of(self, rows: np.ndarray) -> np.ndarray:
        """``(len(rows), ndim)`` coordinate rows for the given row ids."""
        data, at = self._blocks_holding(rows)
        return data[at[:, None], self._coord_index]

    def _blocks_holding(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The blocks from the first to the last of ``rows``, and where each row is.

        Returns ``(data, at)``: ``data[at[i]]`` is row ``rows[i]``, so
        duplicates and arbitrary input order are served by indexing.  One
        range read: a sample's rows touch a third of the blocks in runs
        of two, and a statement costs about what a dozen blocks do.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not rows.size:
            return self._read_blocks(np.arange(0)), rows
        low, high = int(rows.min()), int(rows.max())
        if low < 0 or high >= self.num_rows:
            raise ValueError(f"row ids out of range [0, {self.num_rows}): {low}..{high}")
        first = low // self.tuples_per_block
        blocks = np.arange(first, high // self.tuples_per_block + 1)
        return self._read_blocks(blocks), rows - first * self.tuples_per_block

    def _read_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """The rows of ascending distinct ``blocks`` as one ``(rows, width)`` matrix.

        Each run of consecutive blocks is one ``block_id`` range read on
        the INTEGER PRIMARY KEY (in block order already: no index, no
        sort), and the payloads join into one buffer that numpy reads as
        the matrix.  A read short in blocks or in bytes raises: rows would
        misalign.
        """
        payloads: list[tuple[bytes]] = []
        for block, count in coalesce_runs(blocks):
            part = self._conn.execute(self._range_sql, (block, block + count)).fetchall()
            self._check_fetched(count, len(part), "blocks")
            payloads += part
        data = b"".join([payload for (payload,) in payloads])
        tpb = self.tuples_per_block
        rows = int((np.minimum(blocks * tpb + tpb, self.num_rows) - blocks * tpb).sum())
        width = len(self._index)
        self._check_fetched(rows * width * _F8.itemsize, len(data), "payload bytes")
        return np.frombuffer(data, _F8).reshape(rows, width)

    def _check_fetched(self, requested: int, fetched: int, unit: str) -> None:
        """Refuse a read that came back short: rows would misalign.

        A store that lost rows or bytes is a fault of the store, so it
        fails as ``disconnect``: a resilient database retries the read
        and serves it from its mirror.
        """
        if fetched != requested:
            raise BackendError(
                f"table {self.name!r}: {requested - fetched} requested {unit} missing",
                kind="disconnect",
            )

    # -- block MBRs ---------------------------------------------------------------

    @_driver_errors
    def block_mbrs(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-block MBRs from the ``sw_mbr`` side table, read once per handle."""
        if self._mbrs is None:
            ndim = self.ndim
            lo_cols = ", ".join(f"lo{d}" for d in range(ndim))
            hi_cols = ", ".join(f"hi{d}" for d in range(ndim))
            cur = self._conn.execute(
                f"SELECT {lo_cols}, {hi_cols} FROM {self._mbr_sql} ORDER BY block_id"
            )
            bounds = _decode(cur.fetchall(), 2 * ndim)
            mins = np.ascontiguousarray(bounds[:, :ndim])
            maxs = np.ascontiguousarray(bounds[:, ndim:])
            stale = np.flatnonzero(np.isnan(bounds).any(axis=1))
            if stale.size:
                # Older stores kept a NaN bound for every block holding a
                # NaN coordinate; rebuild those blocks' bounds from their rows.
                rows = self.rows_of_blocks(stale)
                starts = np.searchsorted(rows, stale * self.tuples_per_block)
                mins[stale], maxs[stale] = block_bounds(self.coordinates_of(rows), starts)
            self._mbrs = (mins, maxs)
        return self._mbrs

    # -- bitmap "index scan" -----------------------------------------------------

    def blocks_intersecting(self, lows: Sequence[float], highs: Sequence[float]) -> np.ndarray:
        """Sorted block ids whose MBR intersects the half-open box."""
        mins, maxs = self.block_mbrs()
        return intersecting_blocks(mins.T, maxs.T, lows, highs)

    @_driver_errors
    def blocks_matching(
        self, lows: Sequence[float], highs: Sequence[float]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact bitmap-index scan: :meth:`scan_region` with no columns.

        Returns ``(block_ids, matching_rows)``, both sorted — the sets
        the simulator's in-memory scan produces.
        """
        rows, _coords, _values = self._read_box(lows, highs, ())
        return self.blocks_of(rows), rows

    @_driver_errors
    def scan_region(
        self,
        lows: Sequence[float],
        highs: Sequence[float],
        columns: Sequence[str] = (),
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """One region scan: block ids, rows, coordinates, columns.

        Returns ``(block_ids, rows, coordinates, values)`` as
        :meth:`HeapTable.scan_region` does, bit for bit, so the tuples a
        window read aggregates cross the backend seam in one call.
        """
        for name in columns:
            self.check_column(name)
        rows, coords, values = self._read_box(lows, highs, columns)
        return self.blocks_of(rows), rows, coords, values

    def _read_box(
        self, lows: Sequence[float], highs: Sequence[float], columns: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        """Rows, coordinates and ``columns`` of every tuple in the box.

        The simulator's plan — bitmap index scan, then heap reads: the
        candidate blocks come from the block MBRs, each run of them is
        one ``block_id`` range read (:meth:`_read_blocks`), and the box
        is filtered in numpy with the simulator's own comparisons.
        """
        candidates = self.blocks_intersecting(lows, highs)
        data = self._read_blocks(candidates)
        coords = data[:, self._coord_index]
        inside = np.ones(len(coords), dtype=bool)
        for d in range(self.ndim):
            inside &= coords[:, d] >= lows[d]
            inside &= coords[:, d] < highs[d]
        return (
            self.rows_of_blocks(candidates)[inside],
            coords[inside],
            tuple(data[inside, self._index[c]] for c in columns),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SQLiteTable({self.name!r}, rows={self.num_rows}, "
            f"blocks={self.num_blocks}x{self.tuples_per_block})"
        )


class SQLiteBackend(StorageBackend):
    """A :class:`StorageBackend` storing tables in one SQLite database.

    ``path`` is a filesystem path or ``":memory:"`` (the default);
    in-memory stores are private to the backend instance, file stores
    can be reopened by a later backend, whose :meth:`handle` rebuilds
    table handles from the ``sw_tables`` catalog.
    """

    name = "sqlite"

    @_driver_errors
    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path)
        self._closed = False
        self._handles: dict[str, SQLiteTable] = {}
        # Installed flat ids per (table, grid key) — what the store holds
        # plus what waits in ``_pending`` — and the not-yet-flushed ids.
        self._seen: dict[tuple[str, str], set[int]] = {}
        self._pending: dict[tuple[str, str], list[int]] = {}
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS sw_tables ("
                " name TEXT PRIMARY KEY, tuples_per_block INTEGER,"
                " num_rows INTEGER, columns TEXT, coord_columns TEXT)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS sw_cell_installs ("
                " table_name TEXT, grid_key TEXT, flat_id INTEGER,"
                " PRIMARY KEY (table_name, grid_key, flat_id))"
            )
            # Files written before the stat rows left the store carry them.
            self._conn.execute("DROP TABLE IF EXISTS sw_cell_stats")
            # Files written before a flush was one transaction may hold a
            # torn flush's intent rows: their ids are applied once, in the
            # transaction that drops the table.
            if self._conn.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'sw_install_journal'"
            ).fetchone():
                self._conn.execute("BEGIN")
                intents = self._conn.execute(
                    "SELECT table_name, grid_key, payload FROM sw_install_journal"
                ).fetchall()
                self._conn.executemany(
                    _INSERT_INSTALL,
                    [(*key, i) for *key, payload in intents for i in json.loads(payload)["ids"]],
                )
                self._conn.execute("DROP TABLE sw_install_journal")

    # -- table lifecycle -----------------------------------------------------

    @_driver_errors
    def bind_table(self, table: HeapTable) -> SQLiteTable:
        """Load a heap table into the store (replacing any prior binding)."""
        name = table.name
        if not _NAME_RE.match(name):
            raise ConfigError(
                f"table name {name!r} not storable in the SQLite backend "
                "(allowed: letters, digits, '_', '.', '-')"
            )
        mbr_sql = _quoted(f"sw_mbr_{name}")
        columns = table.schema.columns
        with self._conn:
            self._drop_table(name)
            data = np.column_stack([table.column(column) for column in columns])
            self._store_blocks(name, data, table.tuples_per_block)
            ndim = table.ndim
            mbr_defs = ", ".join(
                f"lo{d} REAL, hi{d} REAL" for d in range(ndim)
            )
            self._conn.execute(
                f"CREATE TABLE {mbr_sql} (block_id INTEGER PRIMARY KEY, {mbr_defs})"
            )
            mins, maxs = table.block_mbrs()
            mbr = np.empty((table.num_blocks, 1 + 2 * ndim), dtype=float)
            mbr[:, 0] = np.arange(table.num_blocks)
            mbr[:, 1::2] = mins
            mbr[:, 2::2] = maxs
            # A NaN bound binds as NULL; SQLite's key affinity turns the
            # lossless float block ids back into integers.
            self._conn.executemany(
                f"INSERT INTO {mbr_sql} VALUES ({','.join('?' * mbr.shape[1])})",
                mbr.tolist(),
            )
            self._conn.execute(
                "INSERT INTO sw_tables VALUES (?, ?, ?, ?, ?)",
                (
                    name,
                    table.tuples_per_block,
                    table.num_rows,
                    json.dumps(list(columns)),
                    json.dumps(list(table.schema.coordinate_columns)),
                ),
            )
        handle = SQLiteTable(
            self._conn,
            name,
            table.schema,
            table.tuples_per_block,
            table.num_rows,
            table.cell_directory,
            table.source,
        )
        self._handles[name] = handle
        return handle

    def _store_blocks(self, name: str, data: np.ndarray, tpb: int) -> None:
        """Create ``sw_data_<name>`` holding ``data``'s rows, one block per row."""
        data_sql = _quoted(f"sw_data_{name}")
        self._conn.execute(
            f"CREATE TABLE {data_sql} (block_id INTEGER PRIMARY KEY, payload BLOB)"
        )
        data = np.ascontiguousarray(data, dtype=_F8)
        self._conn.executemany(
            f"INSERT INTO {data_sql} VALUES (?, ?)",
            (
                (block, data[start : start + tpb].tobytes())
                for block, start in enumerate(range(0, len(data), tpb))
            ),
        )

    def _convert_row_layout(self, name: str, columns: Sequence[str], tpb: int) -> None:
        """Rewrite a one-row-per-tuple ``sw_data_<name>`` as blocks, once.

        Such a store keys its rows by a ``rid`` column and holds one REAL
        per schema column, NULL for NaN, maybe under a coordinate index
        (dropped with the table).  One transaction: a crash leaves either
        layout whole.
        """
        data_sql = _quoted(f"sw_data_{name}")
        info = self._conn.execute(f"PRAGMA table_info({data_sql})").fetchall()
        if "rid" not in {column[1] for column in info}:
            return
        select = ", ".join(_quoted(c) for c in columns)
        with self._conn:
            self._conn.execute("BEGIN")
            fetched = self._conn.execute(f"SELECT {select} FROM {data_sql} ORDER BY rid")
            data = _decode(fetched.fetchall(), len(columns))
            self._conn.execute(f"DROP TABLE {data_sql}")
            self._store_blocks(name, data, tpb)

    def _drop_table(self, name: str) -> None:
        self._conn.execute(f"DROP TABLE IF EXISTS {_quoted(f'sw_data_{name}')}")
        self._conn.execute(f"DROP TABLE IF EXISTS {_quoted(f'sw_mbr_{name}')}")
        self._conn.execute("DELETE FROM sw_tables WHERE name = ?", (name,))
        self._clear_installs(name)
        self._handles.pop(name, None)

    def _clear_installs(self, name: str) -> None:
        """Forget one table's install record: stored and buffered."""
        self._conn.execute("DELETE FROM sw_cell_installs WHERE table_name = ?", (name,))
        for memo in (self._seen, self._pending):
            for key in [k for k in memo if k[0] == name]:
                del memo[key]

    @_driver_errors
    def handle(self, name: str) -> SQLiteTable:
        """The handle of a bound table (rebuilt from the catalog if needed)."""
        if name in self._handles:
            return self._handles[name]
        row = self._conn.execute(
            "SELECT tuples_per_block, num_rows, columns, coord_columns "
            "FROM sw_tables WHERE name = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise KeyError(f"no table {name!r} in SQLite store {self.path!r}")
        tpb, num_rows, columns, coords = row
        schema = TableSchema(json.loads(columns), json.loads(coords))
        self._convert_row_layout(name, schema.columns, int(tpb))
        handle = SQLiteTable(self._conn, name, schema, int(tpb), int(num_rows))
        self._handles[name] = handle
        return handle

    @_driver_errors
    def table_names(self) -> tuple[str, ...]:
        cur = self._conn.execute("SELECT name FROM sw_tables ORDER BY name")
        return tuple(n for (n,) in cur)

    def dump_table(self, name: str) -> dict[str, np.ndarray]:
        handle = self.handle(name)
        return {c: handle.column(c) for c in handle.schema.columns}

    # -- installed cell summaries -------------------------------------------

    @_driver_errors
    def install_cells(
        self,
        table_name: str,
        gkey: str,
        flat_ids: Sequence[int],
    ) -> tuple[int, int]:
        key = (table_name, gkey)
        seen = self._seen.get(key)
        if seen is None:
            # First touch: one SELECT, so a reopened file keeps counting
            # against what it already persisted.
            installs = self._conn.execute(
                "SELECT flat_id FROM sw_cell_installs"
                " WHERE table_name = ? AND grid_key = ?",
                key,
            )
            seen = self._seen[key] = {c for (c,) in installs}
        fresh, deduped = self.dedup_install(seen, flat_ids)
        if fresh:
            # Only what is new waits for the flush, each id at most once.
            self._pending.setdefault(key, []).extend(sorted(fresh))
        return len(fresh), deduped

    @_driver_errors
    def flush_installs(self) -> None:
        """Write every buffered install batch in one transaction.

        Afterwards store == RAM.  A failure anywhere rolls the whole
        flush back and leaves the batches buffered: the next flush (or
        the resilience layer's retry) writes them again, idempotently.
        """
        if not self._pending:
            return
        with self._conn:
            self._conn.executemany(
                _INSERT_INSTALL,
                (key + (flat_id,) for key, ids in self._pending.items() for flat_id in ids),
            )
        self._pending.clear()

    @_driver_errors
    def installed_cell_count(self, table_name: str, gkey: str | None = None) -> int:
        self.flush_installs()
        if gkey is not None:
            cur = self._conn.execute(
                "SELECT COUNT(*) FROM sw_cell_installs"
                " WHERE table_name = ? AND grid_key = ?",
                (table_name, gkey),
            )
        else:
            cur = self._conn.execute(
                "SELECT COUNT(*) FROM sw_cell_installs WHERE table_name = ?",
                (table_name,),
            )
        return int(cur.fetchone()[0])

    @_driver_errors
    def install_state(self, table_name: str) -> dict:
        self.flush_installs()
        installs: dict[str, list[int]] = {}
        for gkey, flat_id in self._conn.execute(
            "SELECT grid_key, flat_id FROM sw_cell_installs"
            " WHERE table_name = ? ORDER BY grid_key, flat_id",
            (table_name,),
        ):
            installs.setdefault(gkey, []).append(int(flat_id))
        return {"installs": installs}

    @_driver_errors
    def restore_install_state(self, table_name: str, state: dict) -> None:
        with self._conn:
            self._clear_installs(table_name)
            self._conn.executemany(
                "INSERT INTO sw_cell_installs VALUES (?, ?, ?)",
                (
                    (table_name, gkey, int(flat_id))
                    for gkey, flat_ids in state["installs"].items()
                    for flat_id in flat_ids
                ),
            )

    # -- description ---------------------------------------------------------

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def close(self) -> None:
        """Flush buffered installs and close the connection (idempotent).

        Handles become unusable.  A flush that fails still closes: the
        error propagates, and the batches it held are lost, as in a crash.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.flush_installs()
        finally:
            self._conn.close()
