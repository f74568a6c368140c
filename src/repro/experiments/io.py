"""Persistence of experiment results: one figure sweep as JSON.

``repro figure --output`` writes the raw series of a
:class:`~repro.experiments.figures.FigureResult` here, one
:class:`~repro.simulation.metrics.SimulationResult` per (city, value,
algorithm).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.experiments.figures import FigureResult
from repro.simulation.metrics import SimulationResult

SCHEMA_VERSION = 1


def result_to_dict(result: SimulationResult) -> dict:
    """Serialise one simulation result (dataclass -> JSON-compatible dict)."""
    payload = asdict(result)
    payload["served_rate"] = result.served_rate
    payload["response_time_s"] = result.response_time_seconds
    return payload


def figure_to_dict(figure: FigureResult) -> dict:
    """Serialise a figure sweep (points plus per-algorithm results)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "figure": figure.figure,
        "parameter": figure.parameter,
        "points": [
            {
                "value": point.value,
                "city": point.city,
                "results": [result_to_dict(result) for result in point.results],
            }
            for point in figure.points
        ],
    }


def save_figure_json(figure: FigureResult, path: str | Path) -> None:
    """Write a figure sweep to JSON."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("w", encoding="utf-8") as handle:
        json.dump(figure_to_dict(figure), handle, indent=2, sort_keys=True)
