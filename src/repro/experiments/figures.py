"""Per-figure reproduction harness (Figures 3-7 of the paper).

Each ``figure*`` function runs the corresponding parameter sweep for the
requested cities and algorithms and returns a :class:`FigureResult` holding,
for every (city, parameter value, algorithm), the three metrics plotted in the
paper: unified cost, served rate and response time (plus the auxiliary counters
discussed in the text: saved shortest-distance queries and grid-index memory).

The functions are shared by ``repro figure``, the paper-claims gate
(``tools/check_paper_claims.py``) and stand-alone scripts in ``examples/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ScenarioRunner, SweepPoint


@dataclass
class FigureResult:
    """All series of one figure."""

    figure: str
    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, city: str, algorithm: str, metric: str) -> list[tuple[float | int | str, float]]:
        """The (parameter value, metric) series of one algorithm in one city.

        ``metric`` is any key of
        :meth:`repro.simulation.metrics.SimulationResult.as_row`.
        """
        series: list[tuple[float | int | str, float]] = []
        for point in self.points:
            if point.city != city:
                continue
            result = point.result_for(algorithm)
            if result is None:
                continue
            series.append((point.value, float(result.as_row()[metric])))
        return series

    def cities(self) -> list[str]:
        """Cities present in the figure."""
        seen: list[str] = []
        for point in self.points:
            if point.city not in seen:
                seen.append(point.city)
        return seen

    def algorithms(self) -> list[str]:
        """Algorithms present in the figure."""
        seen: list[str] = []
        for point in self.points:
            for result in point.results:
                if result.algorithm not in seen:
                    seen.append(result.algorithm)
        return seen


def _run_sweep(
    figure: str,
    parameter: str,
    values_per_city: dict[str, Sequence[float | int]],
    experiment: ExperimentConfig,
    runner: ScenarioRunner | None = None,
) -> FigureResult:
    runner = runner or ScenarioRunner()
    result = FigureResult(figure=figure, parameter=parameter)
    for city in experiment.cities:
        base = experiment.base_scenario(city)
        values = values_per_city[city]
        result.points.extend(
            runner.sweep(parameter, values, base, list(experiment.algorithms))
        )
    return result


def figure3_workers(
    experiment: ExperimentConfig, runner: ScenarioRunner | None = None
) -> FigureResult:
    """Figure 3: vary the number of workers ``|W|``."""
    values = {city: experiment.worker_sweep(city) for city in experiment.cities}
    return _run_sweep("figure3", "num_workers", values, experiment, runner)


def figure4_capacity(
    experiment: ExperimentConfig, runner: ScenarioRunner | None = None
) -> FigureResult:
    """Figure 4: vary the worker capacity ``K_w``."""
    values = {city: experiment.capacity_sweep() for city in experiment.cities}
    return _run_sweep("figure4", "worker_capacity", values, experiment, runner)


def figure5_grid_size(
    experiment: ExperimentConfig, runner: ScenarioRunner | None = None
) -> FigureResult:
    """Figure 5: vary the grid-index cell size ``g`` (km)."""
    values = {city: experiment.grid_sweep() for city in experiment.cities}
    return _run_sweep("figure5", "grid_km", values, experiment, runner)


def figure6_deadline(
    experiment: ExperimentConfig, runner: ScenarioRunner | None = None
) -> FigureResult:
    """Figure 6: vary the delivery deadline ``e_r`` (minutes after release)."""
    values = {city: experiment.deadline_sweep() for city in experiment.cities}
    return _run_sweep("figure6", "deadline_minutes", values, experiment, runner)


def figure7_penalty(
    experiment: ExperimentConfig, runner: ScenarioRunner | None = None
) -> FigureResult:
    """Figure 7: vary the penalty factor ``p_r / dis(o_r, d_r)``."""
    values = {city: experiment.penalty_sweep(city) for city in experiment.cities}
    return _run_sweep("figure7", "penalty_factor", values, experiment, runner)


FIGURES = {
    "figure3": figure3_workers,
    "figure4": figure4_capacity,
    "figure5": figure5_grid_size,
    "figure6": figure6_deadline,
    "figure7": figure7_penalty,
}
"""Registry of figure-reproduction functions keyed by figure name."""
