"""Experiment harness reproducing every table and figure of the paper's evaluation."""

from repro.experiments.config import (
    ExperimentConfig,
    PAPER_ALGORITHMS,
    PAPER_DEADLINE_MINUTES,
    PAPER_GRID_KM,
    PAPER_PENALTY_FACTORS,
    PAPER_WORKER_CAPACITY,
    PAPER_WORKER_COUNTS,
    SCALES,
    ScalePreset,
)
from repro.experiments.figures import (
    FIGURES,
    FigureResult,
    figure3_workers,
    figure4_capacity,
    figure5_grid_size,
    figure6_deadline,
    figure7_penalty,
)
from repro.experiments.io import save_figure_json
from repro.experiments.reporting import format_figure, format_results, format_table
from repro.experiments.runner import ScenarioRunner, SweepPoint
from repro.experiments.tables import table4_datasets, table5_parameters

__all__ = [
    "ExperimentConfig",
    "PAPER_ALGORITHMS",
    "PAPER_DEADLINE_MINUTES",
    "PAPER_GRID_KM",
    "PAPER_PENALTY_FACTORS",
    "PAPER_WORKER_CAPACITY",
    "PAPER_WORKER_COUNTS",
    "SCALES",
    "ScalePreset",
    "FIGURES",
    "FigureResult",
    "figure3_workers",
    "figure4_capacity",
    "figure5_grid_size",
    "figure6_deadline",
    "figure7_penalty",
    "format_figure",
    "format_results",
    "format_table",
    "save_figure_json",
    "ScenarioRunner",
    "SweepPoint",
    "table4_datasets",
    "table5_parameters",
]
