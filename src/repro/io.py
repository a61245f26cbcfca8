"""Persistence: save/load datasets and export result sets.

Dataset generation is deterministic, but the larger bench-scale builds
(especially the insertion R-tree placement) are worth caching across
sessions; and downstream users need results in a portable form.  This
module provides:

* :func:`save_dataset` / :func:`load_dataset` — one ``.npz`` file holding
  columns, schema, grid geometry and cluster ground truth;
* :func:`results_to_rows` / :func:`write_results_csv` — flatten result
  windows (bounds per dimension, objective values, emission time) for
  spreadsheets and notebooks;
* :func:`write_checkpoint` / :func:`read_checkpoint` — persist a search
  checkpoint (JSON-able tree plus numpy arrays) as one ``.npz`` file;
* :func:`export_table_sqlite` / :func:`import_table_sqlite` — ship a heap
  table into / out of a SQLite database file (the dev-tier real backend).

Every writer is crash-safe: output lands in a same-directory temp file
first and reaches the destination via an atomic ``os.replace``, so an
interrupted export can never leave a truncated file under the real name.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import os
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

from .core.geometry import Rect
from .core.grid import Grid
from .core.query import ResultWindow
from .core.window import Window
from .storage.table import TableSchema
from .workloads.base import Dataset

__all__ = [
    "save_dataset",
    "load_dataset",
    "results_to_rows",
    "write_results_csv",
    "metrics_to_json",
    "write_metrics_json",
    "read_metrics_json",
    "write_checkpoint",
    "read_checkpoint",
    "export_table_sqlite",
    "import_table_sqlite",
]

_FORMAT_VERSION = 1
_CHECKPOINT_FILE_VERSION = 1


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    """Text form of :func:`_atomic_write_bytes`."""
    _atomic_write_bytes(path, text.encode("utf-8"))


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset to a ``.npz`` file; returns the resolved path."""
    path = Path(path)
    meta = {
        "format_version": _FORMAT_VERSION,
        "name": dataset.name,
        "columns": list(dataset.schema.columns),
        "coordinates": list(dataset.schema.coordinate_columns),
        "area_lower": list(dataset.grid.area.lower),
        "area_upper": list(dataset.grid.area.upper),
        "steps": list(dataset.grid.steps),
        "clusters": [[list(w.lo), list(w.hi)] for w in dataset.clusters],
        "meta": _jsonable(dataset.meta),
    }
    arrays = {f"col_{name}": values for name, values in dataset.columns.items()}
    target = path.with_suffix(".npz") if path.suffix != ".npz" else path
    buffer = _stdio.BytesIO()
    np.savez_compressed(buffer, __meta__=np.array(json.dumps(meta)), **arrays)
    _atomic_write_bytes(target, buffer.getvalue())
    return target


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset format {meta.get('format_version')!r} "
                f"(expected {_FORMAT_VERSION})"
            )
        columns = {
            name: archive[f"col_{name}"] for name in meta["columns"]
        }
    schema = TableSchema(meta["columns"], meta["coordinates"])
    grid = Grid(
        Rect.from_bounds(list(zip(meta["area_lower"], meta["area_upper"]))),
        tuple(meta["steps"]),
    )
    clusters = [Window(tuple(lo), tuple(hi)) for lo, hi in meta["clusters"]]
    return Dataset(
        name=meta["name"],
        columns=columns,
        schema=schema,
        grid=grid,
        clusters=clusters,
        meta=meta["meta"],
    )


def results_to_rows(
    results: Sequence[ResultWindow], dimensions: Sequence[str]
) -> tuple[list[str], list[list[float]]]:
    """Flatten results to (header, rows): LB/UB per dim, objectives, time."""
    objective_keys = sorted({k for r in results for k in r.objective_values})
    header = (
        [f"lb_{d}" for d in dimensions]
        + [f"ub_{d}" for d in dimensions]
        + objective_keys
        + ["time_s"]
    )
    rows = []
    for r in results:
        row = list(r.bounds.lower) + list(r.bounds.upper)
        row += [r.objective_values.get(k, float("nan")) for k in objective_keys]
        row.append(r.time)
        rows.append(row)
    return header, rows


def write_results_csv(
    results: Sequence[ResultWindow], dimensions: Sequence[str], path: str | Path
) -> Path:
    """Export results to CSV; returns the path written."""
    path = Path(path)
    header, rows = results_to_rows(results, dimensions)
    buffer = _stdio.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write_text(path, buffer.getvalue())
    return path


def metrics_to_json(metrics, indent: int | None = 2) -> str:
    """Serialize a metrics registry or snapshot dict to deterministic JSON.

    Key order inside each section is already sorted by
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; ``sort_keys``
    pins the outer sections too, so equal registries serialize to equal
    bytes (what lets the golden corpus diff metrics blocks literally).
    """
    snapshot = metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    return json.dumps(_jsonable(snapshot), indent=indent, sort_keys=True)


def write_metrics_json(metrics, path: str | Path) -> Path:
    """Write a metrics snapshot as JSON; returns the path written."""
    path = Path(path)
    _atomic_write_text(path, metrics_to_json(metrics) + "\n")
    return path


def read_metrics_json(path: str | Path) -> dict:
    """Load a snapshot written by :func:`write_metrics_json`."""
    with open(path) as handle:
        return json.load(handle)


def write_checkpoint(state: dict, path: str | Path) -> Path:
    """Persist a checkpoint capture to one ``.npz`` file, atomically.

    The capture (see :meth:`HeuristicSearch.checkpoint_state
    <repro.core.search.HeuristicSearch.checkpoint_state>`) is a tree of
    JSON-able values with numpy arrays at the leaves.  Arrays are hoisted
    into npz entries (``a0``, ``a1``, ... in depth-first order) and
    replaced by ``{"__npz__": key}`` placeholders inside the JSON
    ``__meta__`` payload, so the round trip preserves dtypes and values
    exactly.
    """
    path = Path(path)
    target = path.with_suffix(".npz") if path.suffix != ".npz" else path
    arrays: dict[str, np.ndarray] = {}

    def hoist(value):
        if isinstance(value, np.ndarray):
            key = f"a{len(arrays)}"
            arrays[key] = value
            return {"__npz__": key}
        if isinstance(value, dict):
            return {str(k): hoist(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [hoist(v) for v in value]
        return _jsonable(value)

    meta = {"checkpoint_file_version": _CHECKPOINT_FILE_VERSION, "state": hoist(state)}
    buffer = _stdio.BytesIO()
    np.savez_compressed(buffer, __meta__=np.array(json.dumps(meta)), **arrays)
    _atomic_write_bytes(target, buffer.getvalue())
    return target


def read_checkpoint(path: str | Path) -> dict:
    """Load a checkpoint previously written by :func:`write_checkpoint`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
        if meta.get("checkpoint_file_version") != _CHECKPOINT_FILE_VERSION:
            raise ValueError(
                f"unsupported checkpoint file version "
                f"{meta.get('checkpoint_file_version')!r} "
                f"(expected {_CHECKPOINT_FILE_VERSION})"
            )

        def restore(value):
            if isinstance(value, dict):
                if set(value) == {"__npz__"}:
                    return archive[value["__npz__"]]
                return {k: restore(v) for k, v in value.items()}
            if isinstance(value, list):
                return [restore(v) for v in value]
            return value

        return restore(meta["state"])


def export_table_sqlite(table, path: str | Path) -> Path:
    """Load one heap table into a SQLite database file.

    Binds the table through :class:`~repro.storage.sqlite_backend.SQLiteBackend`,
    so the file carries the full backend schema (one float64 BLOB per
    heap block, per-block MBRs, catalog entry) and can be served directly
    by a later ``Database(backend=f"sqlite:{path}")``.  Values are stored
    as bytes, so they round-trip bit-exactly (see
    :func:`import_table_sqlite`).
    """
    from .storage.sqlite_backend import SQLiteBackend

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    backend = SQLiteBackend(str(path))
    try:
        backend.bind_table(table)
    finally:
        backend.close()
    return path


def import_table_sqlite(path: str | Path, name: str) -> dict[str, np.ndarray]:
    """Read a table's columns back from a SQLite file, physical order.

    The round-trip contract: for any table written by
    :func:`export_table_sqlite`, the returned arrays equal the source
    columns bit-for-bit — -0.0 and every NaN bit pattern included.  A
    file written when the store held one row per tuple (NaN as NULL) is
    converted on this read, its NaNs coming back as ``np.nan``.
    """
    from .storage.sqlite_backend import SQLiteBackend

    backend = SQLiteBackend(str(Path(path)))
    try:
        return backend.dump_table(name)
    finally:
        backend.close()


def _jsonable(value):
    """Best-effort conversion of metadata values to JSON-safe types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value
