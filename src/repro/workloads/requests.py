"""Synthetic request-stream generation.

Each request mirrors the tuples of the paper's datasets: a pickup location, a
drop-off location, a release time, a delivery deadline (release time plus the
configured window, Table 5), a capacity drawn from the NYC passenger-count
distribution, and a penalty derived from the objective configuration
(``p_r = factor * dis(o_r, d_r)`` by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.instance import Cancellation
from repro.core.objective import ObjectiveConfig
from repro.core.timegrid import on_grid
from repro.core.types import Request
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.utils.rng import make_rng
from repro.workloads.distributions import (
    HotspotModel,
    RushHourProfile,
    sample_request_capacity,
)


@dataclass
class RequestGeneratorConfig:
    """Parameters of the synthetic request stream.

    Attributes:
        count: number of requests.
        horizon_seconds: length of the simulated day.
        deadline_seconds: service window added to the release time (``e_r - t_r``).
        num_hotspots: spatial hotspots of the demand model.
        uniform_share: fraction of background (uniform) traffic.
        min_direct_seconds: resampled if the direct travel time is below this,
            so degenerate zero-length trips are avoided.
        seed: RNG seed.
    """

    count: int = 1000
    horizon_seconds: float = 6 * 3600.0
    deadline_seconds: float = 600.0
    num_hotspots: int = 5
    uniform_share: float = 0.25
    min_direct_seconds: float = 30.0
    seed: int = 42


def generate_requests(
    network: RoadNetwork,
    oracle: DistanceOracle,
    objective: ObjectiveConfig,
    config: RequestGeneratorConfig,
) -> list[Request]:
    """Generate a time-ordered synthetic request stream.

    Penalties are assigned with ``objective.penalty_for(direct_travel_time)``
    so that the default matches the paper's ``p_r = factor * dis(o_r, d_r)``.
    """
    rng = make_rng(config.seed)
    hotspots = HotspotModel(
        network=network,
        num_hotspots=config.num_hotspots,
        uniform_share=config.uniform_share,
        rng=make_rng(config.seed + 1),
    )
    profile = RushHourProfile(horizon_seconds=config.horizon_seconds)
    release_times = profile.sample_release_times(config.count, rng)
    window = on_grid(config.deadline_seconds, "deadline window")

    requests: list[Request] = []
    for index in range(config.count):
        origin, destination, direct = _sample_trip(hotspots, oracle, rng, config)
        release = on_grid(float(release_times[index]), "release time")
        deadline = release + window
        penalty = objective.penalty_for(direct)
        requests.append(
            Request(
                id=index,
                origin=origin,
                destination=destination,
                release_time=release,
                deadline=deadline,
                penalty=penalty if penalty != float("inf") else float("inf"),
                capacity=sample_request_capacity(rng),
            )
        )
    return requests


def _sample_trip(
    hotspots: HotspotModel,
    oracle: DistanceOracle,
    rng: np.random.Generator,
    config: RequestGeneratorConfig,
) -> tuple[int, int, float]:
    """Draw an (origin, destination) pair with a non-trivial direct travel time."""
    for _ in range(20):
        origin, destination = hotspots.sample_pair()
        direct = oracle.distance(origin, destination)
        if direct >= config.min_direct_seconds and direct < float("inf"):
            return origin, destination, direct
    # give up gracefully: accept the last sample even if short
    return origin, destination, direct


def sample_cancellations(
    requests: list[Request],
    rate: float,
    seed: int,
    earliest_fraction: float = 0.1,
    latest_fraction: float = 0.9,
) -> list[Cancellation]:
    """Draw rider cancellations for a request stream (event-kernel dynamics).

    Each request is cancelled independently with probability ``rate``; the
    cancellation time is uniform inside
    ``[release + earliest_fraction * window, release + latest_fraction * window]``,
    so cancellations always land between the release and the deadline — some
    before the batch flush or pickup (and therefore effective), some too late.

    Args:
        requests: the stream to draw from.
        rate: per-request cancellation probability in ``[0, 1]``.
        seed: RNG seed.
        earliest_fraction: earliest cancellation as a fraction of the window.
        latest_fraction: latest cancellation as a fraction of the window.

    Returns:
        Cancellations sorted by time.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"cancellation rate must be in [0, 1], got {rate}")
    if rate == 0.0 or not requests:
        return []
    rng = make_rng(seed)
    cancellations: list[Cancellation] = []
    for request in requests:
        if rng.random() >= rate:
            continue
        fraction = earliest_fraction + (latest_fraction - earliest_fraction) * rng.random()
        cancellations.append(
            Cancellation(
                request_id=request.id,
                time=on_grid(
                    request.release_time + fraction * request.time_window, "cancellation time"
                ),
            )
        )
    cancellations.sort(key=lambda cancellation: cancellation.time)
    return cancellations


def poisson_request_stream(
    network: RoadNetwork,
    oracle: DistanceOracle,
    objective: ObjectiveConfig,
    rate_per_second: float,
    horizon_seconds: float,
    deadline_seconds: float,
    seed: int = 42,
) -> list[Request]:
    """A simpler homogeneous Poisson stream (used by tests and examples)."""
    rng = make_rng(seed)
    hotspots = HotspotModel(network=network, rng=make_rng(seed + 1))
    requests: list[Request] = []
    window = on_grid(deadline_seconds, "deadline window")
    clock = 0.0
    index = 0
    while True:
        clock += float(rng.exponential(1.0 / rate_per_second))
        if clock > horizon_seconds:
            break
        origin, destination = hotspots.sample_pair()
        direct = oracle.distance(origin, destination)
        release = on_grid(clock, "release time")
        requests.append(
            Request(
                id=index,
                origin=origin,
                destination=destination,
                release_time=release,
                deadline=release + window,
                penalty=objective.penalty_for(direct),
                capacity=sample_request_capacity(rng),
            )
        )
        index += 1
    return requests
