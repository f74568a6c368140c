"""Plain-text reporting of experiment results.

The paper presents its evaluation as line plots (Figures 3-7); ``repro
figure`` prints the same series as aligned text tables so they can be
eyeballed in a terminal or diffed between runs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence  # noqa: F401 - Sequence used in signatures

from repro.experiments.figures import FigureResult
from repro.simulation.metrics import SimulationResult

#: metrics plotted in every figure of the paper, in presentation order.
FIGURE_METRICS = [
    ("unified_cost", "Unified cost"),
    ("served_rate", "Served rate"),
    ("response_time_s", "Response time (s)"),
]


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [[_format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(str(column)), *(len(rendered[index]) for rendered in rendered_rows))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = [
        "  ".join(value.ljust(width) for value, width in zip(rendered, widths))
        for rendered in rendered_rows
    ]
    return "\n".join([header, separator, *body])


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_results(results: Iterable[SimulationResult]) -> str:
    """Render a flat comparison table of simulation results.

    The oracle cache statistics (surfaced into ``extra`` by the metrics
    collector) are appended when present so the LRU effectiveness — doubled
    by the symmetric ``(min, max)`` keys — is visible next to the query
    counts.
    """
    rows = [result.as_row() for result in results]
    columns = [
        "algorithm",
        "instance",
        "unified_cost",
        "served_rate",
        "response_time_s",
        "distance_queries",
        "index_memory_bytes",
    ]
    if any("path_cache_hit_rate" in row for row in rows):
        columns.append("path_cache_hit_rate")
    # sharded runs: routing counters next to the shared metrics
    for sharding_column in (
        "sharding_shards",
        "sharding_local_hits",
        "sharding_escalations",
        "sharding_cross_shard_assignments",
    ):
        if any(sharding_column in row for row in rows):
            columns.append(sharding_column)
    # cluster runs: self-healing telemetry (failures, restarts, retries,
    # requests served in-process while a shard was down, live network
    # updates broadcast to replicas and the retries their acks burned)
    for recovery_column in (
        "cluster_worker_failures",
        "cluster_worker_restarts",
        "cluster_retries",
        "cluster_degraded_dispatches",
        "cluster_network_updates",
        "cluster_update_ack_retries",
    ):
        if any(recovery_column in row for row in rows):
            columns.append(recovery_column)
    return format_table(rows, columns)


def format_figure(figure: FigureResult) -> str:
    """Render one figure as per-city, per-metric series tables (paper layout)."""
    blocks: list[str] = [f"== {figure.figure}: sweep over {figure.parameter} =="]
    algorithms = figure.algorithms()
    for city in figure.cities():
        for metric, label in FIGURE_METRICS:
            rows = []
            values = [point.value for point in figure.points if point.city == city]
            for algorithm in algorithms:
                series = dict(figure.series(city, algorithm, metric))
                row: dict[str, object] = {"algorithm": algorithm}
                for value in values:
                    row[str(value)] = series.get(value, float("nan"))
                rows.append(row)
            blocks.append(f"-- {city} / {label} --")
            blocks.append(format_table(rows))
    return "\n".join(blocks)
