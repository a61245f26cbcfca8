"""Simulated storage substrate: disk, buffer pool, heap tables, placements.

This package is the PostgreSQL stand-in described in DESIGN.md — it
reproduces the *block access behaviour* of the paper's backend (bitmap
index scans, LRU buffering, seek-dominated dispersed reads, re-read
thrashing) under a deterministic simulated clock.
"""

from .backend import (
    SimulatorBackend,
    StorageBackend,
    backend_from_url,
    grid_key,
    resolve_backend,
)
from .buffer import BufferPool
from .database import CellScan, Database, COUNT_KEY
from .sqlite_backend import SQLiteBackend, SQLiteTable
from .disk import SimulatedDisk
from .hilbert import hilbert_d, hilbert_xy, morton_code
from .integrity import (
    BlockIntegrity,
    Scrubber,
    StorageFaultInjector,
    StorageFaultPlan,
)
from .resilience import (
    BACKEND_FAULT_KINDS,
    BackendFaultInjector,
    BackendFaultPlan,
    CircuitBreaker,
    ResilienceConfig,
    ResilientBackend,
    ResilientTable,
)
from .placement import (
    CellDirectory,
    Placement,
    axis_order,
    cell_flat_ids,
    cluster_order,
    hilbert_order,
    index_order,
    order_rows,
    random_order,
)
from .rtree import RTree
from .table import HeapTable, TableSchema

__all__ = [
    "StorageBackend",
    "SimulatorBackend",
    "SQLiteBackend",
    "SQLiteTable",
    "backend_from_url",
    "resolve_backend",
    "grid_key",
    "BufferPool",
    "CellScan",
    "Database",
    "COUNT_KEY",
    "SimulatedDisk",
    "BlockIntegrity",
    "Scrubber",
    "StorageFaultInjector",
    "StorageFaultPlan",
    "BACKEND_FAULT_KINDS",
    "BackendFaultInjector",
    "BackendFaultPlan",
    "CircuitBreaker",
    "ResilienceConfig",
    "ResilientBackend",
    "ResilientTable",
    "hilbert_d",
    "hilbert_xy",
    "morton_code",
    "Placement",
    "axis_order",
    "cell_flat_ids",
    "CellDirectory",
    "cluster_order",
    "hilbert_order",
    "index_order",
    "order_rows",
    "random_order",
    "RTree",
    "HeapTable",
    "TableSchema",
]
