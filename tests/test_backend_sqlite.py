"""Unit tests for the SQLite backend, selection precedence, and the seam.

The differential suite (``test_backend_differential.py``) proves whole
runs agree across backends; this file pins the individual contracts —
bit-exact loader round-trips (NaNs, quarantined blocks, odd tail
blocks), the handle's row-access alignment guarantees, install dedup,
the ``close()`` contract, the error taxonomy of opening a bad file,
file-store reopening, selection precedence with ``ConfigError`` on
unknown schemes, and the latent simulator assumptions
the abstraction surfaced (``register`` returning the handle,
``DataManager.rebind_table`` keeping it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ContentObjective, Grid, Rect, col
from repro.errors import BackendError, ConfigError
from repro.io import export_table_sqlite, import_table_sqlite
from repro.storage import (
    Database,
    HeapTable,
    SimulatorBackend,
    SQLiteBackend,
    TableSchema,
    backend_from_url,
    grid_key,
    resolve_backend,
)
from repro.storage.integrity import StorageFaultPlan

pytestmark = pytest.mark.backend


def _table(name="t", rows=100, tpb=16, nan_at=()):
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 10, rows)
    y = rng.uniform(0, 10, rows)
    v = rng.normal(0, 1, rows)
    for i in nan_at:
        v[i] = np.nan
    schema = TableSchema(["x", "y", "v"], ["x", "y"])
    return HeapTable(name, schema, {"x": x, "y": y, "v": v}, tuples_per_block=tpb)


GRID = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))


# -- loader round-trip --------------------------------------------------------


def test_round_trip_bit_exact():
    table = _table(rows=103, nan_at=(0, 50, 102))  # odd tail block + NaNs
    backend = SQLiteBackend()
    backend.bind_table(table)
    dump = backend.dump_table(table.name)
    for c in table.schema.columns:
        np.testing.assert_array_equal(
            dump[c].view(np.uint64), np.asarray(table.column(c)).view(np.uint64)
        )


def test_round_trip_empty_region_and_quarantined_blocks():
    # Rows clustered in [0,5)^2: the [5,10)^2 region is empty, and
    # quarantining a block is a read-path overlay — the store still
    # round-trips every byte.
    rng = np.random.default_rng(9)
    rows = 64
    x = rng.uniform(0, 5, rows)
    y = rng.uniform(0, 5, rows)
    v = rng.normal(0, 1, rows)
    table = HeapTable("q", TableSchema(["x", "y", "v"], ["x", "y"]),
                      {"x": x, "y": y, "v": v}, tuples_per_block=8)
    db = Database(backend="sqlite:")
    db.register(table)
    db.attach_integrity(StorageFaultPlan(seed=0))
    db.integrity("q").quarantined.add(0)

    scan = db.range_cell_aggregates("q", GRID, [5.0, 5.0], [10.0, 10.0],
                                    [ContentObjective.of("avg", col("v"))])
    assert scan.cells == {}

    dump = db.backend.dump_table("q")
    for name, src in (("x", x), ("y", y), ("v", v)):
        np.testing.assert_array_equal(dump[name], src)


def test_io_export_import_round_trip(tmp_path):
    table = _table(rows=57, tpb=10, nan_at=(3,))
    path = export_table_sqlite(table, tmp_path / "store.db")
    dump = import_table_sqlite(path, table.name)
    for c in table.schema.columns:
        np.testing.assert_array_equal(
            dump[c].view(np.uint64), np.asarray(table.column(c)).view(np.uint64)
        )


# x86's default NaN (0.0 * inf), a NaN with a payload, and -0.0.
_ODD_BITS = np.array(
    [0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0001, 0x8000_0000_0000_0000], dtype=np.uint64
).view(np.float64)


def test_nan_bits_and_negative_zero_round_trip(tmp_path):
    # Both NaNs used to come back as numpy's canonical NaN: the store
    # held every NaN as NULL.
    base = _table(rows=40, tpb=8)
    columns = {c: base.column(c).copy() for c in base.schema.columns}
    columns["v"][[1, 9, 17]] = _ODD_BITS
    columns["x"][[2, 10, 18]] = _ODD_BITS  # row 18's -0.0 lies in the box
    table = HeapTable("t", base.schema, columns, tuples_per_block=8)
    handle = SQLiteBackend().bind_table(table)
    rows = np.arange(table.num_rows)[::-1]
    for c in table.schema.columns:
        assert handle.column(c).tobytes() == table.column(c).tobytes(), c
        assert handle.gather(c, rows).tobytes() == table.gather(c, rows).tobytes(), c
    assert handle.coordinates().tobytes() == table.coordinates().tobytes()
    _assert_scans_equal(handle, table)
    dump = import_table_sqlite(export_table_sqlite(table, tmp_path / "odd.db"), "t")
    for c in table.schema.columns:
        assert dump[c].tobytes() == table.column(c).tobytes(), c


def test_file_store_reopens_from_catalog(tmp_path):
    table = _table(rows=40, tpb=8)
    path = str(tmp_path / "dev.db")
    first = SQLiteBackend(path)
    first.bind_table(table)
    first.close()

    reopened = SQLiteBackend(path)
    assert reopened.table_names() == (table.name,)
    handle = reopened.handle(table.name)
    assert handle.num_rows == table.num_rows
    assert handle.tuples_per_block == table.tuples_per_block
    assert handle.schema.columns == table.schema.columns
    assert handle.schema.coordinate_columns == table.schema.coordinate_columns
    np.testing.assert_array_equal(handle.column("v"), table.column("v"))
    mins, maxs = handle.block_mbrs()
    ref_mins, ref_maxs = table.block_mbrs()
    np.testing.assert_array_equal(mins, ref_mins)
    np.testing.assert_array_equal(maxs, ref_maxs)


def _coordinate_indexes(backend: SQLiteBackend) -> list[str]:
    names = backend._conn.execute("SELECT name FROM sqlite_master WHERE type = 'index'")
    return [name for (name,) in names if name.startswith("sw_idx_")]


def _data_columns(backend: SQLiteBackend, name: str = "t") -> list[str]:
    info = backend._conn.execute(f'PRAGMA table_info("sw_data_{name}")')
    return [column[1] for column in info]


def _assert_scans_equal(handle, table, columns=("v", "x")) -> None:
    for lows, highs in (([0.0, 0.0], [10.0, 10.0]), ([2.5, 1.0], [6.0, 4.5])):
        got = handle.scan_region(lows, highs, columns)
        want = table.scan_region(lows, highs, columns)
        for part, ref in zip((*got[:3], *got[3]), (*want[:3], *want[3])):
            assert part.dtype == ref.dtype and part.tobytes() == ref.tobytes()


def _assert_reads_equal(handle, table) -> None:
    _assert_scans_equal(handle, table)
    rows = np.array([99, 0, 8, 8, 57, 3], dtype=np.int64)
    for c in table.schema.columns:
        assert handle.column(c).tobytes() == table.column(c).tobytes(), c
        assert handle.gather(c, rows).tobytes() == table.gather(c, rows).tobytes(), c


def _write_row_layout(path: str, table: HeapTable) -> None:
    """A file store as written when ``sw_data_*`` held one row per tuple.

    The backend writes the catalog and the MBRs; the data table is then
    rebuilt with that layout's DDL: a ``rid`` key, one REAL per column,
    NULL for NaN, and a composite index on the coordinate columns.
    """
    backend = SQLiteBackend(path)
    backend.bind_table(table)
    columns = table.schema.columns
    data = f'"sw_data_{table.name}"'
    rows = [
        (rid, *(None if np.isnan(value) else float(value) for value in values))
        for rid, values in enumerate(zip(*(table.column(c) for c in columns)))
    ]
    with backend._conn as conn:
        conn.execute(f"DROP TABLE {data}")
        reals = ", ".join(f'"{c}" REAL' for c in columns)
        conn.execute(f"CREATE TABLE {data} (rid INTEGER PRIMARY KEY, {reals})")
        conn.executemany(f"INSERT INTO {data} VALUES (?{', ?' * len(columns)})", rows)
        coords = ", ".join(f'"{c}"' for c in table.schema.coordinate_columns)
        conn.execute(f'CREATE INDEX "sw_idx_{table.name}" ON {data} ({coords})')
    backend.close()


def _verbs(statements: list[str]) -> list[str]:
    return [sql.split()[0].upper() for sql in statements]


def test_region_scans_need_no_coordinate_index_old_stores_keep_working(tmp_path):
    table = _table(rows=100, tpb=8, nan_at=(5, 60))  # NULL reads back as np.nan
    path = str(tmp_path / "old.db")
    _write_row_layout(path, table)
    old = SQLiteBackend(path)
    assert _data_columns(old)[0] == "rid" and _coordinate_indexes(old) == ["sw_idx_t"]
    old.close()

    # The first open converts, in one transaction.
    first = SQLiteBackend(path)
    statements: list[str] = []
    first._conn.set_trace_callback(statements.append)
    handle = first.handle("t")
    first._conn.set_trace_callback(None)
    verbs = _verbs(statements)
    assert [v for v in verbs if v in ("BEGIN", "DROP", "CREATE", "COMMIT")] == [
        "BEGIN", "DROP", "CREATE", "COMMIT"
    ], statements
    assert verbs.count("INSERT") == table.num_blocks
    assert _data_columns(first) == ["block_id", "payload"]
    assert _coordinate_indexes(first) == []
    _assert_reads_equal(handle, table)
    first.close()

    # A second open finds blocks and writes nothing.
    second = SQLiteBackend(path)
    statements.clear()
    second._conn.set_trace_callback(statements.append)
    _assert_reads_equal(second.handle("t"), table)
    second.close()
    assert not {"INSERT", "DROP", "CREATE"} & set(_verbs(statements)), statements


def test_old_store_nan_block_bounds_are_rebuilt_on_open(tmp_path):
    table = _table(rows=100, tpb=8)
    x = table.column("x").copy()
    x[10] = np.nan  # one NaN coordinate in block 1
    table = HeapTable("t", table.schema, {"x": x, "y": table.column("y"),
                                          "v": table.column("v")}, tuples_per_block=8)
    path = str(tmp_path / "dev.db")
    _write_row_layout(path, table)
    old = SQLiteBackend(path)
    # Stores written before the MBRs ignored NaN coordinates hold NULL
    # (NaN) bounds for such a block in every dimension.
    with old._conn:
        old._conn.execute(
            'UPDATE "sw_mbr_t" SET lo0 = NULL, hi0 = NULL, lo1 = NULL, hi1 = NULL'
            " WHERE block_id = 1"
        )
    old.close()

    reopened = SQLiteBackend(path)
    handle = reopened.handle("t")
    assert _data_columns(reopened) == ["block_id", "payload"]
    for got, want in zip(handle.block_mbrs(), table.block_mbrs()):
        assert got.tobytes() == want.tobytes()
    assert 1 in handle.blocks_matching([0.0, 0.0], [10.0, 10.0])[0]
    _assert_scans_equal(handle, table)
    reopened.close()


# -- handle contract ----------------------------------------------------------


def test_gather_alignment_unsorted_and_duplicates():
    table = _table(rows=60)
    backend = SQLiteBackend()
    handle = backend.bind_table(table)
    rows = np.array([17, 3, 3, 59, 0, 17], dtype=np.int64)
    np.testing.assert_array_equal(handle.gather("v", rows), table.gather("v", rows))
    np.testing.assert_array_equal(
        handle.coordinates_of(rows), table.coordinates_of(rows)
    )


def test_gather_rejects_out_of_range_rows():
    handle = SQLiteBackend().bind_table(_table(rows=10))
    with pytest.raises(ValueError, match="out of range"):
        handle.gather("v", np.array([0, 10]))


def test_gather_unknown_column():
    handle = SQLiteBackend().bind_table(_table())
    with pytest.raises(KeyError, match="no column"):
        handle.gather("nope", np.array([0]))


def test_blocks_matching_equals_simulator_on_random_boxes():
    table = _table(rows=257, tpb=16)
    handle = SQLiteBackend().bind_table(table)
    rng = np.random.default_rng(11)
    for _ in range(25):
        lo = rng.uniform(0, 9, 2)
        hi = lo + rng.uniform(0.1, 6, 2)
        ref_blocks, ref_rows = table.blocks_matching(lo, hi)
        got_blocks, got_rows = handle.blocks_matching(lo, hi)
        np.testing.assert_array_equal(got_blocks, ref_blocks)
        np.testing.assert_array_equal(got_rows, ref_rows)
        np.testing.assert_array_equal(
            handle.blocks_intersecting(lo, hi), table.blocks_intersecting(lo, hi)
        )


def _two_column_table(x: np.ndarray, tpb: int) -> HeapTable:
    y = np.arange(x.size) + 0.5
    return HeapTable("n", TableSchema(["x", "y"], ["x", "y"]), {"x": x, "y": y}, tpb)


def test_nan_coordinate_hides_only_its_own_row():
    # One NaN coordinate used to make its whole block's MBR NaN on the
    # simulator, so every scan skipped the block's other rows.
    x = np.arange(8) + 0.5
    x[2] = np.nan
    table = _two_column_table(x, 4)
    for scanner in (table, SQLiteBackend().bind_table(table)):
        blocks, rows, coords, _ = scanner.scan_region([0.0, 0.0], [10.0, 10.0])
        assert blocks.tolist() == [0, 1], type(scanner).__name__
        assert rows.tolist() == [0, 1, 3, 4, 5, 6, 7], type(scanner).__name__
    # A block NaN in every row of a dimension keeps a NaN bound: it
    # matches no box, on either backend.
    x[4:] = np.nan
    table = _two_column_table(x, 4)
    assert np.isnan(table.block_mbrs()[0][1, 0])
    for scanner in (table, SQLiteBackend().bind_table(table)):
        assert scanner.blocks_intersecting([0.0, 0.0], [10.0, 10.0]).tolist() == [0]
        assert scanner.blocks_matching([0.0, 0.0], [10.0, 10.0])[1].tolist() == [0, 1, 3]


def test_region_scan_reads_one_primary_key_range_per_block_run():
    # Blocks 1, 2 and 5 hold x in [1, 3): two runs, so two range reads.
    x = np.repeat([0.5, 1.5, 2.5, 3.5, 4.5, 1.5, 6.5, 7.5], 8)
    table = _two_column_table(x, 8)
    backend = SQLiteBackend()
    handle = backend.bind_table(table)
    handle.block_mbrs()  # read once per handle, on first use
    statements: list[str] = []
    backend._conn.set_trace_callback(statements.append)
    try:
        blocks, rows, _, (y,) = handle.scan_region([1.0, 0.0], [3.0, 100.0], ["y"])
    finally:
        backend._conn.set_trace_callback(None)
    assert blocks.tolist() == [1, 2, 5]
    np.testing.assert_array_equal(rows, np.r_[8:24, 40:48])
    np.testing.assert_array_equal(y, rows + 0.5)
    assert len(statements) == 2, statements
    for sql in statements:
        # Python >= 3.11 traces the statement with its values bound.
        params = (0, 8) if "?" in sql else ()
        plan = " ".join(
            row[-1] for row in backend._conn.execute(f"EXPLAIN QUERY PLAN {sql}", params)
        )
        assert "USING INTEGER PRIMARY KEY" in plan, plan
        assert "TEMP B-TREE" not in plan, plan


@pytest.mark.parametrize(
    "damage, missing",
    [
        ('DELETE FROM "sw_data_t" WHERE block_id = 2', "1 requested blocks"),
        (
            'UPDATE "sw_data_t" SET payload = substr(payload, 1, 16) WHERE block_id = 2',
            "176 requested payload bytes",  # 8 rows x 3 columns x 8 bytes, less 16
        ),
    ],
    ids=["deleted-block", "truncated-payload"],
)
def test_short_block_read_fails_loudly(damage, missing):
    backend = SQLiteBackend()
    handle = backend.bind_table(_table(rows=40, tpb=8))
    backend._conn.execute(damage)
    for read in (
        lambda: handle.scan_region([0.0, 0.0], [10.0, 10.0], ["v"]),
        lambda: handle.gather("v", np.array([30, 17, 3])),
        handle.coordinates,
    ):
        with pytest.raises(RuntimeError, match=f"{missing} missing"):
            read()


def test_block_geometry_matches():
    table = _table(rows=103, tpb=16)  # ragged final block
    handle = SQLiteBackend().bind_table(table)
    assert handle.num_blocks == table.num_blocks
    assert handle.block_rows(6) == table.block_rows(6)
    with pytest.raises(ValueError):
        handle.block_rows(handle.num_blocks)
    ids = np.array([0, 2, 6], dtype=np.int64)
    np.testing.assert_array_equal(handle.rows_of_blocks(ids), table.rows_of_blocks(ids))


# -- install dedup ------------------------------------------------------------


def test_install_cells_on_conflict_dedup():
    backend = SQLiteBackend()
    backend.bind_table(_table())
    gkey = grid_key(GRID)
    assert backend.install_cells("t", gkey, [1, 2, 3]) == (3, 0)
    assert backend.install_cells("t", gkey, [2, 3, 4]) == (1, 2)
    assert backend.install_cells("t", gkey, []) == (0, 0)
    assert backend.installed_cell_count("t", gkey) == 4
    assert backend.installed_cell_count("t") == 4
    # A different grid geometry scopes its own install set.
    other = grid_key(Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (2.0, 2.0)))
    assert backend.install_cells("t", other, [1]) == (1, 0)
    assert backend.installed_cell_count("t") == 5


def test_simulator_install_dedup_matches():
    backend = SimulatorBackend()
    backend.bind_table(_table())
    gkey = grid_key(GRID)
    assert backend.install_cells("t", gkey, [1, 2, 3]) == (3, 0)
    assert backend.install_cells("t", gkey, np.array([2, 3, 4])) == (1, 2)
    assert backend.installed_cell_count("t", gkey) == 4


def test_install_state_round_trip():
    """Checkpoint capture of the install record reproduces the dedup split.

    A resumed run's (installed, deduped) counters must match the
    uninterrupted run's, so restoring a capture onto a fresh backend has
    to reproduce exactly which cells count as already-installed — the
    checkpoint suite covers the end-to-end contract, this pins the seam.
    """
    gkey = grid_key(GRID)
    other = grid_key(Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (2.0, 2.0)))
    captures = []
    for make in (SimulatorBackend, SQLiteBackend):
        source, fresh = make(), make()
        for b in (source, fresh):
            b.bind_table(_table())
        source.install_cells("t", gkey, [1, 2, 3])
        source.install_cells("t", other, [1])
        captures.append(source.install_state("t"))
        fresh.restore_install_state("t", source.install_state("t"))
        assert fresh.installed_cell_count("t") == 4, make.__name__
        assert fresh.install_cells("t", gkey, [2, 3, 4]) == (1, 2), make.__name__
        assert fresh.installed_cell_count("t", other) == 1, make.__name__
    # One record shape on every backend: flat ids per grid key, nothing else.
    assert captures[0] == captures[1] == {"installs": {gkey: [1, 2, 3], other: [1]}}


def test_rebind_clears_install_record():
    for backend in (SimulatorBackend(), SQLiteBackend()):
        table = _table()
        backend.bind_table(table)
        gkey = grid_key(GRID)
        backend.install_cells("t", gkey, [1, 2])
        assert backend.installed_cell_count("t") == 2
        backend.bind_table(_table())  # rebind supersedes the rows
        assert backend.installed_cell_count("t") == 0, type(backend).__name__


# -- selection precedence -----------------------------------------------------


def test_explicit_spec_beats_database_url():
    env = {"DATABASE_URL": "sqlite:"}
    assert resolve_backend("simulator", env=env).name == "simulator"
    inst = SimulatorBackend()
    assert resolve_backend(inst, env=env) is inst


def test_database_url_beats_default():
    assert resolve_backend(None, env={"DATABASE_URL": "sqlite:"}).name == "sqlite"
    assert resolve_backend(None, env={}).name == "simulator"


def test_database_url_env_integration(monkeypatch):
    monkeypatch.setenv("DATABASE_URL", "sqlite:")
    db = Database()
    assert db.backend.name == "sqlite"
    monkeypatch.delenv("DATABASE_URL")
    assert Database().backend.name == "simulator"


def test_unknown_scheme_raises_config_error():
    with pytest.raises(ConfigError, match="unknown storage backend scheme"):
        resolve_backend(None, env={"DATABASE_URL": "bogus:thing"})
    with pytest.raises(ConfigError, match="empty"):
        backend_from_url("   ")
    with pytest.raises(ConfigError, match="StorageBackend or URL"):
        resolve_backend(123)


def test_postgres_rejected_as_planned_but_unimplemented():
    # Not the generic unknown-scheme error: the message must name the
    # scheme as planned (it is the paper's production tier) and point at
    # the working alternatives.
    for url in ("postgres://db/prod", "postgresql://host:5432/x", "POSTGRES:x"):
        with pytest.raises(ConfigError, match="planned but not yet implemented"):
            backend_from_url(url)


def test_url_forms():
    assert backend_from_url("sim").name == "simulator"
    assert backend_from_url("memory").name == "simulator"
    for url in ("sqlite", "sqlite:", "sqlite::memory:"):
        backend = backend_from_url(url)
        assert backend.name == "sqlite" and backend.path == ":memory:"


def test_sqlite_file_url(tmp_path):
    path = tmp_path / "x.db"
    backend = backend_from_url(f"sqlite:{path}")
    assert backend.path == str(path)
    backend.bind_table(_table())
    backend.close()
    assert path.exists()


def test_sqlite_rejects_hostile_table_name():
    with pytest.raises(ConfigError, match="not storable"):
        SQLiteBackend().bind_table(
            HeapTable(
                'bad"; DROP TABLE sw_tables; --',
                TableSchema(["x"], ["x"]),
                {"x": np.array([1.0])},
            )
        )


# -- latent-assumption fixes --------------------------------------------------


def test_register_returns_backend_handle():
    table = _table()
    sim_db = Database(backend="simulator")
    assert sim_db.register(table) is table  # simulator handle == table
    sql_db = Database(backend="sqlite:")
    handle = sql_db.register(_table())
    assert handle is not table
    assert sql_db.table("t") is handle


def test_rebind_table_keeps_backend_handle():
    # DataManager.rebind_table used to stash the raw heap table instead
    # of the handle register() returns — invisible under the simulator,
    # wrong under any real backend.
    from repro.core.datamanager import DataManager
    from repro.sampling import StratifiedSampler

    table = _table("orig", rows=80)
    db = Database(backend="sqlite:")
    db.register(table)
    sample = StratifiedSampler(0.1, seed=1).sample(db.table("orig"), GRID)
    dm = DataManager(db, "orig", GRID, [ContentObjective.of("avg", col("v"))], sample)
    assert dm.backend_name == "sqlite"

    bigger = _table("bigger", rows=160)
    dm.rebind_table(bigger)
    assert dm._table is db.table("bigger")
    assert type(dm._table).__name__ == "SQLiteTable"


def test_cellscan_records_backend():
    table = _table()
    db = Database(backend="sqlite:")
    db.register(table)
    scan = db.range_cell_aggregates("t", GRID, [0.0, 0.0], [5.0, 5.0], [])
    assert scan.backend == "sqlite"


def test_deep_verify_through_handle():
    table = _table(rows=50, tpb=8)
    db = Database(backend="sqlite:")
    db.register(table)
    db.attach_integrity(StorageFaultPlan(seed=0))
    integ = db.integrity("t")
    assert all(integ.deep_verify(b) for b in range(db.table("t").num_blocks))


# -- lifetime: close() is part of the contract --------------------------------


def test_every_backend_closes_and_sqlite_close_is_idempotent(tmp_path):
    SimulatorBackend().close()  # nothing held open: a no-op, not an AttributeError
    path = str(tmp_path / "close.db")
    backend = SQLiteBackend(path)
    backend.bind_table(_table())
    backend.install_cells("t", grid_key(GRID), [1, 2, 3])
    backend.close()
    backend.close()
    reopened = SQLiteBackend(path)
    assert reopened.installed_cell_count("t") == 3, "close() flushed the installs"
    reopened.close()


def test_database_closes_through_the_resilience_wrapper(tmp_path):
    from repro.storage import BackendFaultPlan

    path = str(tmp_path / "wrapped.db")
    with Database(backend=f"sqlite:{path}") as db:
        db.register(_table())
        db.attach_resilience(BackendFaultPlan(seed=0))
        db.range_cell_aggregates(
            "t", GRID, [0.0, 0.0], [10.0, 10.0], [ContentObjective.of("avg", col("v"))]
        )
        inner = db.backend.inner
        assert inner._pending, "installs wait in RAM until a flush"
    assert inner._closed
    reopened = SQLiteBackend(path)
    assert reopened.recovered_installs == 0
    assert reopened.installed_cell_count("t") > 0
    reopened.close()


# -- opening a bad file stays inside the error taxonomy -----------------------


def test_opening_a_locked_file_is_busy(tmp_path, monkeypatch):
    import functools
    import sqlite3

    path = str(tmp_path / "locked.db")
    SQLiteBackend(path).close()
    locker = sqlite3.connect(path)
    # Fail fast instead of after the driver's default 5 s busy timeout.
    monkeypatch.setattr(sqlite3, "connect", functools.partial(sqlite3.connect, timeout=0))
    try:
        locker.execute("BEGIN EXCLUSIVE")
        with pytest.raises(BackendError, match="locked") as raised:
            SQLiteBackend(path)
    finally:
        locker.rollback()
        locker.close()
    assert raised.value.kind == "busy"


def test_opening_a_file_that_is_no_database_is_disconnect(tmp_path):
    path = tmp_path / "notes.db"
    path.write_text("not a database, just a long enough line of plain text\n" * 40)
    with pytest.raises(BackendError, match="not a database") as raised:
        SQLiteBackend(str(path))
    assert raised.value.kind == "disconnect"
