"""Stratified sampling, sample-based estimation, and noise injection."""

from .estimators import ObjectiveGrids, build_objective_grids, default_eps
from .noise import NoiseModel
from .source import TableSource
from .stratified import CellSample, StratifiedSampler, allocate_budget, uniform_sample

__all__ = [
    "TableSource",
    "ObjectiveGrids",
    "build_objective_grids",
    "default_eps",
    "NoiseModel",
    "CellSample",
    "StratifiedSampler",
    "allocate_budget",
    "uniform_sample",
]
