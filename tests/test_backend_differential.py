"""Differential equivalence: the SQLite backend versus the simulator oracle.

The simulator is the byte-deterministic reference; the SQLite backend
serves the same engine stack from real SQL.  Every test here runs one
workload twice — once per backend, via the shared ``BackendPair``
fixture — and asserts the runs are *byte-identical*: result sets
(windows, bounds, objective values, emission times), qualifying-window
key sets, trace timelines, block-read counts, metrics snapshots (after
collapsing the backend-labelled ``db.backend_reads.*`` counter), and
auditor identities.

Coverage comes in three tiers:

* the golden-query corpus (the serial cases of ``tests/golden_cases.py``)
  replayed end-to-end on both backends;
* hypothesis-generated SW queries over a fixed dataset, engine
  end-to-end (result byte-equality + auditor parity);
* hypothesis-generated *tables* — random rows, block sizes, grids, NaN
  values — with random scans and queries, where the bulk (200+) of the
  randomized cases runs at the storage layer.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from .golden_cases import _workload, event_jsonable, results_jsonable
from repro.core import (
    ComparisonOp,
    ContentCondition,
    ContentObjective,
    Grid,
    Rect,
    SearchConfig,
    ShapeCondition,
    ShapeKind,
    ShapeObjective,
    SWEngine,
    SWQuery,
    col,
)
from repro.core.trace import SearchTrace
from repro.obs import InvariantAuditor, MetricsRegistry
from repro.storage import COUNT_KEY, HeapTable, TableSchema
from repro.workloads import synthetic_dataset, synthetic_query

pytestmark = [pytest.mark.backend, pytest.mark.slow]


# -- comparison helpers -------------------------------------------------------


def _normalized_counters(snapshot: dict) -> dict:
    """Counters with the backend-labelled read counter made backend-agnostic."""
    counters = dict(snapshot["counters"])
    total = sum(
        counters.pop(k) for k in list(counters) if k.startswith("db.backend_reads.")
    )
    if total:
        counters["db.backend_reads"] = total
    return counters


def _normalized_events(trace: SearchTrace, expect_backend: str) -> list[dict]:
    """JSON-safe trace events with the backend READ label checked, then dropped."""
    events = []
    for event in trace:
        payload = event_jsonable(event)
        backend = payload["detail"].pop("backend", None)
        if backend is not None:
            assert backend == expect_backend
        events.append(payload)
    return events


def _assert_audited_parity(ref: MetricsRegistry, cand: MetricsRegistry) -> None:
    ref_report = InvariantAuditor(ref).report()
    cand_report = InvariantAuditor(cand).report()
    assert ref_report["ok"], ref_report["violations"]
    assert cand_report["ok"], cand_report["violations"]
    assert ref_report["checked"] == cand_report["checked"]


def _bits(value: float) -> bytes:
    """Bit pattern of a float — NaN-safe byte equality."""
    return np.float64(value).tobytes()


def _scan_fingerprint(scan) -> dict:
    """A CellScan's aggregation as bitwise-comparable structures."""
    return {
        "cells": {
            int(cell): {
                key: (s.count, _bits(s.total), _bits(s.minimum), _bits(s.maximum))
                for key, s in sorted(entry.items())
            }
            for cell, entry in scan.cells.items()
        },
        "tuples_scanned": scan.tuples_scanned,
        "blocks_touched": scan.blocks_touched,
        "elapsed_s": _bits(scan.elapsed_s),
        "lost_blocks": scan.lost_blocks,
        "degraded_cells": scan.degraded_cells,
    }


def _run_engine(database, dataset, query, with_trace=True):
    registry = MetricsRegistry()
    database.attach_metrics(registry)
    trace = SearchTrace() if with_trace else None
    engine = SWEngine(database, dataset.name, sample_fraction=0.1)
    report = engine.execute(query, SearchConfig(alpha=1.0), trace=trace)
    return report, registry, trace


# -- tier 1: the golden-query corpus -----------------------------------------


@pytest.mark.parametrize("kind", ["synth", "sdss"])
def test_golden_corpus_replay_matches(backend_pair, kind):
    """The pinned corpus queries are byte-identical across backends."""
    dataset, query = _workload(kind)
    ref_db, cand_db = backend_pair.databases_for(dataset, "cluster")
    assert ref_db.backend.name == "simulator"
    assert cand_db.backend.name == "sqlite"

    ref, ref_reg, ref_trace = _run_engine(ref_db, dataset, query)
    cand, cand_reg, cand_trace = _run_engine(cand_db, dataset, query)

    assert results_jsonable(cand.results) == results_jsonable(ref.results)
    assert cand.run.completion_time_s == ref.run.completion_time_s
    shape = query.grid.shape
    assert sorted(r.window.key(shape) for r in cand.results) == sorted(
        r.window.key(shape) for r in ref.results
    )
    assert _normalized_events(cand_trace, "sqlite") == _normalized_events(
        ref_trace, "simulator"
    )
    assert _normalized_counters(cand_reg.snapshot()) == _normalized_counters(
        ref_reg.snapshot()
    )
    assert cand_db.disk(dataset.name).blocks_read == ref_db.disk(dataset.name).blocks_read
    assert cand_db.backend.installed_cell_count(
        dataset.name
    ) == ref_db.backend.installed_cell_count(dataset.name)
    _assert_audited_parity(ref_reg, cand_reg)


# -- tier 2: hypothesis SW queries, engine end-to-end -------------------------

_DATASET = synthetic_dataset("high", scale=0.1, seed=5)
_CANONICAL_QUERY = synthetic_query(_DATASET)


def _build_query(grid, card_hi: int, min_len: int, avg_lo: float, width: float) -> SWQuery:
    avg_value = ContentObjective.of("avg", col("value"))
    conditions = [
        ShapeCondition(ShapeObjective(ShapeKind.CARDINALITY), ComparisonOp.LT, card_hi),
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 0), ComparisonOp.GE, min_len),
        ShapeCondition(ShapeObjective(ShapeKind.LENGTH, 1), ComparisonOp.GE, min_len),
        ContentCondition(avg_value, ComparisonOp.GT, avg_lo),
        ContentCondition(avg_value, ComparisonOp.LT, avg_lo + width),
    ]
    return SWQuery.build(
        dimensions=("x", "y"),
        area=[(grid.area[0].lo, grid.area[0].hi), (grid.area[1].lo, grid.area[1].hi)],
        steps=grid.steps,
        conditions=conditions,
    )


query_params = st.tuples(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.0, max_value=35.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1.0, max_value=25.0, allow_nan=False, allow_infinity=False),
)


@given(params=query_params)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_random_queries_byte_identical(backend_pair, params):
    """Hypothesis SW queries: full engine runs agree byte-for-byte."""
    query = _build_query(_DATASET.grid, *params)
    ref_db, cand_db = backend_pair.databases_for(_DATASET, "cluster")
    ref, ref_reg, _ = _run_engine(ref_db, _DATASET, query, with_trace=False)
    cand, cand_reg, _ = _run_engine(cand_db, _DATASET, query, with_trace=False)

    assert results_jsonable(cand.results) == results_jsonable(ref.results)
    shape = query.grid.shape
    assert {r.window.key(shape) for r in cand.results} == {
        r.window.key(shape) for r in ref.results
    }
    assert _normalized_counters(cand_reg.snapshot()) == _normalized_counters(
        ref_reg.snapshot()
    )
    _assert_audited_parity(ref_reg, cand_reg)


# -- tier 3: hypothesis tables ------------------------------------------------


#: -0.0, x86's default NaN, and NaNs carrying payloads.
_ODD_BITS = np.array(
    [
        0x8000_0000_0000_0000,
        0xFFF8_0000_0000_0000,
        0x7FF8_0000_0000_0001,
        0xFFFC_DEAD_BEEF_0001,
    ],
    dtype=np.uint64,
).view(np.float64)


def _random_table(
    seed: int,
    rows: int,
    tpb: int,
    nan_values: bool,
    nan_coords: bool = False,
    odd_bits: bool = False,
) -> HeapTable:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 10.0, rows)
    y = rng.uniform(0.0, 10.0, rows)
    v = rng.normal(25.0, 5.0, rows)
    if nan_values:
        # NaN measurement values: both backends must round-trip and
        # aggregate them to bit-identical NaN stats.
        v[rng.random(rows) < 0.05] = np.nan
    if nan_coords:
        # A NaN coordinate matches no box, and must not hide the other
        # rows of its block from the MBR prefilter.
        for coordinate in (x, y):
            coordinate[rng.random(rows) < 0.05] = np.nan
    if odd_bits:
        # Values numpy's canonical NaN and +0.0 would erase: the store
        # must keep every bit, in coordinate and value columns alike.
        for column in (x, y, v):
            hit = np.flatnonzero(rng.random(rows) < 0.05)
            column[hit] = _ODD_BITS[rng.integers(0, _ODD_BITS.size, hit.size)]
    schema = TableSchema(["x", "y", "value"], ["x", "y"])
    return HeapTable(
        f"rand{seed}", schema, {"x": x, "y": y, "value": v}, tuples_per_block=tpb
    )


table_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # rng seed
    st.integers(min_value=50, max_value=800),    # rows
    st.integers(min_value=4, max_value=64),      # tuples per block
    st.booleans(),                               # sprinkle NaN values
)

box_params = st.tuples(
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
)


@given(table=table_params, box=box_params, steps=st.integers(min_value=1, max_value=4))
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_random_scans_byte_identical(backend_pair, table, box, steps):
    """200 random table/scan pairs: range-aggregate GROUP BY agrees bitwise.

    Each scan runs twice per backend — the repeat exercises the
    backend-specific install dedup (in-memory set vs ``ON CONFLICT DO
    NOTHING``), whose counters must also agree.
    """
    heap = _random_table(*table)
    grid = Grid(
        Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (float(steps), float(steps))
    )
    x0, y0, w, h = box
    lows = [x0, y0]
    highs = [min(x0 + w, 10.0), min(y0 + h, 10.0)]
    objectives = [ContentObjective.of("avg", col("value"))]

    ref_db, cand_db = backend_pair.databases(heap)
    registries = []
    fingerprints = []
    for db in (ref_db, cand_db):
        registry = MetricsRegistry()
        db.attach_metrics(registry)
        scan = db.range_cell_aggregates(heap.name, grid, lows, highs, objectives)
        repeat = db.range_cell_aggregates(heap.name, grid, lows, highs, objectives)
        registries.append(registry)
        fingerprints.append((_scan_fingerprint(scan), _scan_fingerprint(repeat)))

    assert fingerprints[0] == fingerprints[1]
    ref_counters = _normalized_counters(registries[0].snapshot())
    cand_counters = _normalized_counters(registries[1].snapshot())
    assert ref_counters == cand_counters
    # The repeat scan re-attempted every occupied cell; the backend must
    # have deduped all of them (set membership vs ON CONFLICT).
    occupied = len(fingerprints[0][0]["cells"])
    if occupied:
        assert ref_counters["db.cell_installs_deduped"] >= occupied
    assert cand_db.backend.installed_cell_count(heap.name) == ref_db.backend.installed_cell_count(heap.name)
    assert cand_db.disk(heap.name).blocks_read == ref_db.disk(heap.name).blocks_read


@given(table=table_params, params=query_params)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_random_tables_random_queries(backend_pair, table, params):
    """Random tables + random SW queries: window keys and I/O agree."""
    heap = _random_table(*table)
    grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
    query = _build_query(grid, *params)

    keys = []
    reads = []
    for db in backend_pair.databases(heap):
        registry = MetricsRegistry()
        db.attach_metrics(registry)
        engine = SWEngine(db, heap.name, sample_fraction=0.1)
        report = engine.execute(query, SearchConfig(alpha=1.0))
        keys.append({r.window.key(query.grid.shape) for r in report.results})
        reads.append(db.disk(heap.name).blocks_read)
        audit = InvariantAuditor(registry).report()
        assert audit["ok"], audit["violations"]
    assert keys[0] == keys[1]
    assert reads[0] == reads[1]


def test_full_scan_byte_identical(backend_pair):
    """The sequential-scan baseline path agrees bitwise too."""
    heap = _random_table(7, 400, 16, True)
    grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (1.0, 1.0))
    objectives = [ContentObjective.of("avg", col("value"))]
    ref_db, cand_db = backend_pair.databases(heap)
    ref = ref_db.full_scan_cell_aggregates(heap.name, grid, objectives)
    cand = cand_db.full_scan_cell_aggregates(heap.name, grid, objectives)
    assert _scan_fingerprint(cand) == _scan_fingerprint(ref)
    assert cand.backend == "sqlite"
    assert ref.backend == "simulator"
    assert COUNT_KEY in next(iter(ref.cells.values()))


# -- integrity layer over both backends ---------------------------------------


def test_cli_scrub_sqlite_backend_matches_simulator():
    """``repro scrub --backend sqlite:`` prints the simulator's transcript.

    The integrity layer sits above the backend seam, so a seeded
    corruption plan must detect, repair, and quarantine the exact same
    blocks whichever substrate serves the bytes.
    """
    from repro.cli import main

    transcripts = []
    for spec in ("simulator", "sqlite:"):
        lines: list[str] = []
        code = main(
            [
                "scrub",
                "--workload",
                "synth-high",
                "--scale",
                "0.2",
                "--chaos-seed",
                "7",
                "--backend",
                spec,
                "--no-audit",
            ],
            out=lines.append,
        )
        assert code == 0
        # The header names the backend; everything after it must agree.
        assert lines[0].startswith("workload synth-high")
        transcripts.append(lines[1:])
    assert transcripts[0] == transcripts[1]
    assert any(line.startswith("scrubbed ") for line in transcripts[1])


def test_quarantined_gather_parity(backend_pair):
    """Post-quarantine gathers stay byte-identical across backends.

    Run the same chaos scrub on both databases until blocks quarantine,
    then gather every column of every quarantined block directly from
    each backend's table handle: the quarantine decision and the
    surviving bytes must agree bitwise.
    """
    from repro.storage import Scrubber, StorageFaultPlan

    heap = _random_table(11, 600, 16, True)
    ref_db, cand_db = backend_pair.databases(heap)
    quarantined = []
    for db in (ref_db, cand_db):
        db.attach_integrity(StorageFaultPlan.chaos(13, 0.2))
        Scrubber(db, heap.name, blocks_per_step=32).run()
        quarantined.append(sorted(db.integrity(heap.name).quarantined))
    assert quarantined[0] == quarantined[1]
    assert quarantined[0], "a 0.2-rate chaos plan must quarantine something"

    ref_handle = ref_db.backend.handle(heap.name)
    cand_handle = cand_db.backend.handle(heap.name)
    for block in quarantined[0]:
        rows = np.arange(ref_handle.num_rows)[ref_handle.block_rows(block)]
        assert np.array_equal(rows, np.arange(cand_handle.num_rows)[cand_handle.block_rows(block)])
        for column in heap.schema.columns:
            ref_vals = ref_handle.gather(column, rows)
            cand_vals = cand_handle.gather(column, rows)
            assert np.array_equal(ref_vals, cand_vals, equal_nan=True)


# -- the fused region scan ----------------------------------------------------


column_lists = st.lists(st.sampled_from(["value", "x", "y"]), max_size=4)
# Tables for the fused scan also sprinkle NaN coordinates, and -0.0 and
# non-canonical NaNs in every column.
scan_tables = st.tuples(table_params, st.booleans(), st.booleans()).map(
    lambda t: (*t[0], t[1], t[2])
)


@given(table=scan_tables, box=box_params, columns=column_lists)
@example(table=(1, 300, 16, True), box=(0.0, 0.0, 10.0, 10.0), columns=["value"])
@example(table=(2, 300, 16, True), box=(9.0, 9.0, 0.5, 0.5), columns=["value", "value"])
@example(table=(3, 300, 7, False), box=(2.0, 3.0, 4.0, 5.0), columns=["x", "value", "y"])
@example(table=(4, 300, 16, True), box=(0.0, 0.0, 10.0, 10.0), columns=[])
@example(table=(5, 257, 16, False), box=(0.0, 0.0, 10.0, 10.0), columns=["value"])
@example(table=(6, 400, 4, False), box=(4.0, 4.0, 0.5, 0.5), columns=["value"])
@example(table=(7, 300, 8, True, True), box=(0.0, 0.0, 10.0, 10.0), columns=["x", "value"])
@example(table=(8, 300, 8, True, True, True), box=(0.0, 0.0, 10.0, 10.0), columns=["x", "value"])
@example(table=(9, 50, 1, False, False, True), box=(0.0, 0.0, 10.0, 10.0), columns=["value", "y"])
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
def test_scan_region_bit_identical(backend_pair, table, box, columns):
    """``scan_region`` on SQLite equals ``HeapTable``'s bit for bit.

    The pinned examples are the whole-table box over NaN values, a
    column named twice, coordinate columns requested as values, no
    columns at all, a one-row last block, a small box over scattered
    blocks (several ``block_id`` ranges), NaN coordinates, -0.0 and
    non-canonical NaNs in every column, and one tuple per block;
    ``_EMPTY_BOX`` below adds the box nothing lies in.
    """
    heap = _random_table(*table)
    x0, y0, w, h = box
    boxes = [([x0, y0], [min(x0 + w, 10.0), min(y0 + h, 10.0)]), _EMPTY_BOX]
    ref_db, cand_db = backend_pair.databases(heap)
    for lows, highs in boxes:
        ref = ref_db.table(heap.name).scan_region(lows, highs, columns)
        cand = cand_db.table(heap.name).scan_region(lows, highs, columns)
        assert len(ref[3]) == len(cand[3]) == len(columns)
        for ref_part, cand_part in zip((*ref[:3], *ref[3]), (*cand[:3], *cand[3])):
            assert ref_part.dtype == cand_part.dtype
            assert ref_part.shape == cand_part.shape
            assert ref_part.tobytes() == cand_part.tobytes()
        # The fused call is the old three, in one: same rows, same bytes.
        blocks, rows = heap.blocks_matching(lows, highs)
        assert np.array_equal(cand[0], blocks) and np.array_equal(cand[1], rows)
        assert cand[2].tobytes() == heap.coordinates_of(rows).tobytes()
        for name, values in zip(columns, cand[3]):
            assert values.tobytes() == heap.gather(name, rows).tobytes()


_EMPTY_BOX = ([20.0, 20.0], [30.0, 30.0])


def test_scan_region_rejects_bad_requests(backend_pair):
    heap = _random_table(5, 100, 16, False)
    for db in backend_pair.databases(heap):
        handle = db.table(heap.name)
        with pytest.raises(KeyError, match="no column 'nope'"):
            handle.scan_region([0.0, 0.0], [1.0, 1.0], ["nope"])
        with pytest.raises(ValueError, match="dimensionality"):
            handle.scan_region([0.0], [1.0], [])


def _oracle_cells(heap, grid, lows, highs, lost_blocks):
    """Per-cell ``(count, sum, min, max)`` of ``value``, row by row."""
    x, y, value = (np.asarray(heap.column(c)) for c in ("x", "y", "value"))
    cells: dict[int, list[float]] = {}
    for row in range(heap.num_rows):
        if row // heap.tuples_per_block in lost_blocks:
            continue
        if not (lows[0] <= x[row] < highs[0] and lows[1] <= y[row] < highs[1]):
            continue
        cell = grid.flat_id(grid.cell_of_point((x[row], y[row])))
        cells.setdefault(cell, []).append(float(value[row]))
    out = {}
    for cell, vals in cells.items():
        total = 0.0
        for v in vals:  # not sum(): 3.12 compensates, the engine does not
            total += v
        out[cell] = (len(vals), total, min(vals), max(vals))
    return out


def test_post_quarantine_scan_keeps_rows_coordinates_values_aligned(backend_pair):
    """Stripped rows take their coordinates and values with them.

    A scheduled unrepairable block is hit mid-scan (the
    ``CorruptBlockError`` strip) and is already quarantined on the
    repeat (the up-front strip).  Both backends must agree bitwise, and
    match a row-by-row oracle that never saw the fused scan — one mask
    misapplied to coordinates or values would shift every later row
    into the wrong cell or pair it with the wrong value.
    """
    from repro.storage import StorageFaultPlan

    heap = _random_table(21, 480, 16, False)
    grid = Grid(Rect.from_bounds([(0.0, 10.0), (0.0, 10.0)]), (2.0, 2.0))
    lows, highs = [1.0, 0.5], [9.5, 8.0]
    objectives = [ContentObjective.of("avg", col("value"))]
    plan = StorageFaultPlan(
        seed=0,
        corrupt_blocks=((3, "bitrot"), (11, "lost")),
        max_rereads=0,
        replicas=0,
    )
    fingerprints = []
    for db in backend_pair.databases(heap):
        db.attach_integrity(plan)
        scans = [
            db.range_cell_aggregates(heap.name, grid, lows, highs, objectives)
            for _ in range(2)
        ]
        assert scans[0].lost_blocks == scans[1].lost_blocks == (3, 11)
        assert sorted(db.integrity(heap.name).quarantined) == [3, 11]
        fingerprints.append([_scan_fingerprint(scan) for scan in scans])
        expected = _oracle_cells(heap, grid, lows, highs, {3, 11})
        for scan in scans:
            got = {
                cell: (s.count, s.total, s.minimum, s.maximum)
                for cell, entry in scan.cells.items()
                for key, s in entry.items()
                if key != COUNT_KEY
            }
            assert got == expected
    assert fingerprints[0] == fingerprints[1]
