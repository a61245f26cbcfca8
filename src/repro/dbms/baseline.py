"""The complex-SQL baseline: how a traditional DBMS answers an SW query.

Section 3 shows that an SW query *can* be written in standard SQL — a
GROUP BY cell aggregation followed by recursive CTEs that combine cells
into every possible window, then a filter — and Section 6.1 measures
PostgreSQL doing exactly that: "PostgreSQL did a single read of the data
file, and then aggregated and processed all windows in memory".

:func:`run_sql_baseline` reproduces that execution profile:

1. one sequential scan of the heap file (simulated disk time = the
   baseline's *I/O time*),
2. in-memory enumeration + filtering of every window, charged at
   ``sql_cpu_per_window_us`` per enumerated window (the plan-interpretation
   overhead of the recursive CTE; see :mod:`repro.costs` for calibration),
3. **all results are emitted only at the end** — the defining
   blocking behaviour the SW framework exists to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.query import ResultWindow, SWQuery
from ..storage.database import Database
from .executor import CellGrids, enumerate_windows_filtered

__all__ = ["BaselineReport", "run_sql_baseline"]


@dataclass
class BaselineReport:
    """Timing and results of one baseline execution.

    ``results`` all carry ``time == total_time_s``: nothing is online.
    """

    results: list[ResultWindow] = field(default_factory=list)
    total_time_s: float = 0.0
    io_time_s: float = 0.0
    cpu_time_s: float = 0.0
    windows_enumerated: int = 0

    @property
    def num_results(self) -> int:
        """Number of qualifying windows."""
        return len(self.results)


def run_sql_baseline(
    database: Database, table_name: str, query: SWQuery, pushdown: bool = True
) -> BaselineReport:
    """Execute the recursive-CTE-equivalent plan; blocking output.

    ``pushdown=False`` disables pushing the shape predicates into the
    recursive window generation — the literally-as-written CTE that
    "generates every possible window" (Section 3, step 2).  Window counts
    then grow with the fourth power of the grid side, which is exactly
    why the paper found the query "difficult to optimize"; use only on
    small grids.
    """
    clock = database.clock
    start = clock.now

    objectives = query.conditions.content_objectives()
    scan = database.full_scan_cell_aggregates(table_name, query.grid, objectives)
    io_time = scan.elapsed_s

    cells = CellGrids.from_arrays(
        query.grid, scan.cells_arrays, [obj.key for obj in objectives]
    )
    results, enumerated = enumerate_windows_filtered(query, cells, pushdown=pushdown)
    cpu_time = database.cost_model.sql_window_s(enumerated)
    clock.advance(cpu_time)

    total = clock.now - start
    return BaselineReport(
        results=[replace(r, time=total) for r in results],
        total_time_s=total,
        io_time_s=io_time,
        cpu_time_s=total - io_time,
        windows_enumerated=enumerated,
    )
