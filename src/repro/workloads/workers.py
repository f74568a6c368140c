"""Synthetic fleet generation.

The paper places workers at random road-network vertices and draws their
capacities from a Gaussian centred on the configured nominal capacity
(Table 5). Fleets here follow the same recipe, with an optional bias towards
demand hotspots so that larger synthetic cities keep realistic pickup times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instance import WorkerShift
from repro.core.timegrid import on_grid
from repro.core.types import Worker
from repro.network.graph import RoadNetwork
from repro.utils.rng import make_rng
from repro.workloads.distributions import HotspotModel, sample_worker_capacity


@dataclass
class WorkerGeneratorConfig:
    """Parameters of the synthetic fleet.

    Attributes:
        count: number of workers ``|W|``.
        nominal_capacity: centre of the Gaussian capacity distribution ``K_w``.
        hotspot_share: fraction of workers initially placed near demand
            hotspots (0 places everyone uniformly at random).
        seed: RNG seed.
    """

    count: int = 100
    nominal_capacity: int = 4
    hotspot_share: float = 0.5
    seed: int = 7


def generate_workers(network: RoadNetwork, config: WorkerGeneratorConfig) -> list[Worker]:
    """Generate a fleet of workers positioned on ``network``."""
    rng = make_rng(config.seed)
    vertices = sorted(network.vertices())
    hotspots = HotspotModel(network=network, rng=make_rng(config.seed + 1))
    workers: list[Worker] = []
    for index in range(config.count):
        if rng.random() < config.hotspot_share:
            location = hotspots.sample_vertex()
        else:
            location = int(vertices[int(rng.integers(len(vertices)))])
        workers.append(
            Worker(
                id=index,
                initial_location=location,
                capacity=sample_worker_capacity(rng, config.nominal_capacity),
            )
        )
    return workers


def staggered_shifts(
    workers: list[Worker],
    horizon_seconds: float,
    shift_seconds: float,
    seed: int,
    jitter_share: float = 0.25,
) -> list[WorkerShift]:
    """Staggered duty windows covering the horizon (event-kernel dynamics).

    Shift starts are spread evenly over ``[0, horizon - shift]`` in worker
    order, with a uniform jitter of up to ``jitter_share`` of the spacing so
    fleets do not change in lockstep. The first worker always starts at 0, so
    some capacity is on duty from the beginning.

    Args:
        workers: the fleet.
        horizon_seconds: length of the simulated day.
        shift_seconds: duty-window length; values at or above the horizon
            mean every worker is always on duty, which is the same as having
            no shifts at all — an empty list is returned so such instances
            stay dynamics-free.
        seed: RNG seed for the jitter.

    Returns:
        One :class:`~repro.core.instance.WorkerShift` per worker, or ``[]``
        when the shift covers the whole horizon.
    """
    if shift_seconds <= 0:
        raise ValueError(f"shift_seconds must be positive, got {shift_seconds}")
    latest_start = max(horizon_seconds - shift_seconds, 0.0)
    if latest_start == 0.0:
        return []
    rng = make_rng(seed)
    spacing = latest_start / max(len(workers) - 1, 1)
    length = on_grid(shift_seconds, "shift length")
    shifts: list[WorkerShift] = []
    for index, worker in enumerate(workers):
        start = min(index * spacing + jitter_share * spacing * float(rng.random()), latest_start)
        start = 0.0 if index == 0 else on_grid(start, "shift start")
        shifts.append(WorkerShift(worker_id=worker.id, start=start, end=start + length))
    return shifts
