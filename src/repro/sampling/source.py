"""Where a stored table's rows came from, and the offline inputs drawn from them.

The paper's estimator reads "a precomputed sample" (Section 4.2): the
sample and the objective grids over it are drawn offline, once per
table, not once per query.  A :class:`TableSource` names one placement
of one dataset object (``repro.workloads.make_table`` keeps one per
dataset object, placement, ``tuples_per_block``, ``axis_dim`` and
``seed``).  Every table placed from it holds the same rows in the same
order, so every handle carrying it shares one store of samples and
objective grids: a fresh :class:`~repro.storage.database.Database` over
an already-sampled dataset draws nothing.

The store is invisible: a stored input records exactly the counters its
draw recorded (``sample.builds`` / ``sample.rows`` /
``sample.populated_cells``, ``sample.objective_grids`` /
``sample.grid_rows_scanned``), so no metrics snapshot can tell a hit
from a draw.  It holds samples and grids only, never a table.
"""

from __future__ import annotations

from ..core.conditions import ContentObjective
from ..core.grid import Grid
from . import estimators, stratified
from .estimators import ObjectiveGrids
from .stratified import CellSample

__all__ = ["TableSource"]


class TableSource:
    """One placement of one dataset object, and its store of offline inputs.

    ``samples`` maps a sampler key ``(sampler, grid key, fraction, seed)``
    to its sample; ``grids`` maps ``id(sample)`` of each stored sample to
    its objective grids per ``(objective key, needs_values)``.  Only a
    stored sample has a ``grids`` entry, so the id cannot be reused while
    the entry lives.  A table without a source (a reopened SQLite handle,
    a resilient wrapper, a hand-built table) gets a private instance from
    its :class:`~repro.storage.database.Database`.
    """

    __slots__ = ("samples", "grids", "__weakref__")

    def __init__(self) -> None:
        self.samples: dict[tuple, CellSample] = {}
        self.grids: dict[int, dict[tuple, ObjectiveGrids]] = {}

    def sample(self, table, grid: Grid, key: tuple, metrics=None) -> CellSample:
        """The sample of ``table`` under ``key``, drawn on first use."""
        sample = self.samples.get(key)
        if sample is not None:
            if metrics is not None:
                stratified._record_sample_metrics(metrics, sample)
            return sample
        sampler, _, fraction, seed = key
        if sampler == "uniform":
            sample = stratified.uniform_sample(table, grid, fraction, seed=seed, metrics=metrics)
        else:
            draw = stratified.StratifiedSampler(fraction, seed=seed)
            sample = draw.sample(table, grid, metrics=metrics)
        self.samples[key] = sample
        self.grids[id(sample)] = {}
        return sample

    def objective_grids(
        self, table, grid: Grid, sample: CellSample, objective: ContentObjective, metrics=None
    ) -> ObjectiveGrids:
        """One objective's grids over ``sample``, built on first use.

        ``table`` is the table the sample's rows index into.  Grids over
        a sample this store does not hold (one drawn elsewhere) are
        built and not kept.
        """
        stored = self.grids.get(id(sample))
        key = (objective.key, objective.aggregate.needs_values)
        grids = None if stored is None else stored.get(key)
        if grids is not None:
            if metrics is not None:
                estimators._record_grid_metrics(metrics, sample)
            return grids
        grids = estimators.build_objective_grids(table, grid, sample, objective, metrics=metrics)
        if stored is not None:
            stored[key] = grids
        return grids
