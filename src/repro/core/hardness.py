"""Executable versions of the hardness constructions (Section 3.3, Lemmas 1-3).

The paper proves that no online algorithm — deterministic or randomised — has a
constant competitive ratio for the URPSM problem or its special cases. The
proofs build adversarial input distributions on an undirected cycle graph:

* **Lemma 1** (maximise served requests): a single request released at time
  ``|V|`` with a uniformly random origin, destination equal to the origin, and
  an arbitrarily small service window. The offline optimum always serves it;
  an online algorithm whose worker sits at a fixed point serves it with
  probability at most ``2 / |V|``.
* **Lemma 2** (maximise revenue): as Lemma 1 but the destination is the
  antipodal vertex, so rejecting costs ``c_r * |V| / 2`` while the optimal
  travel cost is at most ``c_w * |V|``.
* **Lemma 3** (minimise distance, serve all): as Lemma 1 with infinite penalty.

These constructions are exposed as instance generators plus
:func:`optimal_cost`, the clairvoyant optimum of one instance;
``examples/hardness_demo.py`` estimates the expected cost ratio
``E[ALG] / E[OPT]`` of a dispatcher from them as a function of ``|V|`` — the
ratio must grow without bound, which is what ``tests/core/test_hardness.py``
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.instance import URPSMInstance
from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.core.types import Request, Worker
from repro.network.generators import cycle_network
from repro.network.oracle import DistanceOracle

# One cycle edge costs exactly one second of travel so that |V| doubles as the
# time horizon used in the lemma statements.
_EDGE_METRES = 10.0
_EDGE_SPEED = 10.0


@dataclass(frozen=True)
class HardnessInstanceSpec:
    """Parameters of one adversarial draw."""

    lemma: int
    num_vertices: int
    epsilon: float = 0.5
    worker_capacity: int = 2
    fare_per_second: float = 4.0
    worker_cost_per_second: float = 1.0


def _base_network_and_worker(spec: HardnessInstanceSpec):
    network = cycle_network(spec.num_vertices, edge_metres=_EDGE_METRES, speed=_EDGE_SPEED)
    oracle = DistanceOracle(network)
    worker = Worker(id=0, initial_location=0, capacity=spec.worker_capacity)
    return network, oracle, worker


def lemma1_instance(spec: HardnessInstanceSpec, rng: np.random.Generator) -> URPSMInstance:
    """One draw of the Lemma 1 distribution (maximise served requests)."""
    network, oracle, worker = _base_network_and_worker(spec)
    release = float(spec.num_vertices)
    origin = int(rng.integers(spec.num_vertices))
    request = Request(
        id=0,
        origin=origin,
        destination=origin,
        release_time=release,
        deadline=release + spec.epsilon,
        penalty=1.0,
        capacity=1,
    )
    objective = ObjectiveConfig(alpha=0.0, penalty_policy=PenaltyPolicy.FIXED, penalty_value=1.0)
    return URPSMInstance(
        network=network,
        oracle=oracle,
        workers=[worker],
        requests=[request],
        objective=objective,
        name=f"lemma1-V{spec.num_vertices}",
    )


def lemma2_instance(spec: HardnessInstanceSpec, rng: np.random.Generator) -> URPSMInstance:
    """One draw of the Lemma 2 distribution (maximise platform revenue)."""
    network, oracle, worker = _base_network_and_worker(spec)
    release = float(spec.num_vertices)
    origin = int(rng.integers(spec.num_vertices))
    destination = (origin + spec.num_vertices // 2) % spec.num_vertices
    direct = oracle.distance(origin, destination)
    request = Request(
        id=0,
        origin=origin,
        destination=destination,
        release_time=release,
        deadline=release + direct + spec.epsilon,
        penalty=spec.fare_per_second * direct,
        capacity=1,
    )
    objective = ObjectiveConfig(
        alpha=spec.worker_cost_per_second,
        penalty_policy=PenaltyPolicy.PROPORTIONAL,
        penalty_value=spec.fare_per_second,
    )
    return URPSMInstance(
        network=network,
        oracle=oracle,
        workers=[worker],
        requests=[request],
        objective=objective,
        name=f"lemma2-V{spec.num_vertices}",
    )


def lemma3_instance(spec: HardnessInstanceSpec, rng: np.random.Generator) -> URPSMInstance:
    """One draw of the Lemma 3 distribution (minimise distance, serve all).

    The "infinite" penalty is represented by a large finite surrogate so that
    the empirical ratio stays numerically meaningful; the surrogate grows with
    ``|V|`` which preserves the unbounded-ratio conclusion.
    """
    network, oracle, worker = _base_network_and_worker(spec)
    release = float(spec.num_vertices)
    origin = int(rng.integers(spec.num_vertices))
    surrogate_penalty = float(spec.num_vertices**2)
    request = Request(
        id=0,
        origin=origin,
        destination=origin,
        release_time=release,
        deadline=release + spec.epsilon,
        penalty=surrogate_penalty,
        capacity=1,
    )
    objective = ObjectiveConfig(
        alpha=1.0, penalty_policy=PenaltyPolicy.FIXED, penalty_value=surrogate_penalty
    )
    return URPSMInstance(
        network=network,
        oracle=oracle,
        workers=[worker],
        requests=[request],
        objective=objective,
        name=f"lemma3-V{spec.num_vertices}",
    )


_GENERATORS: dict[int, Callable[[HardnessInstanceSpec, np.random.Generator], URPSMInstance]] = {
    1: lemma1_instance,
    2: lemma2_instance,
    3: lemma3_instance,
}


def adversarial_instance(
    spec: HardnessInstanceSpec, rng: np.random.Generator
) -> URPSMInstance:
    """One draw of the distribution of the requested lemma."""
    try:
        generator = _GENERATORS[spec.lemma]
    except KeyError as exc:
        raise ValueError(f"unknown lemma {spec.lemma}; expected 1, 2 or 3") from exc
    return generator(spec, rng)


def optimal_cost(instance: URPSMInstance) -> float:
    """Offline-optimal unified cost for the single-request adversarial instances.

    The omniscient adversary-optimal strategy pre-positions the worker at the
    (not yet revealed) origin during the ``|V|``-second warm-up, so it pays only
    the travel cost ``alpha * (dis(o_w, o_r) + dis(o_r, d_r))``, never the
    penalty. Moving to any vertex takes at most ``|V| / 2 <= |V|`` seconds, so
    the pre-positioning always completes in time.
    """
    request = instance.requests[0]
    worker = instance.workers[0]
    reach = instance.oracle.distance(worker.initial_location, request.origin)
    direct = instance.oracle.distance(request.origin, request.destination)
    return instance.objective.alpha * (reach + direct)
