#!/usr/bin/env python3
"""Empirical demonstration of the hardness results (Section 3.3, Lemmas 1-3).

The paper proves that no online algorithm — deterministic or randomised — has a
constant competitive ratio for URPSM or its special cases, using adversarial
request distributions on a cycle graph. This example *runs* those
constructions: for growing cycle sizes ``|V|`` it draws many instances, runs a
real dispatcher (pruneGreedyDP), and reports the empirical ratio between the
algorithm's expected unified cost and the clairvoyant optimum. The ratio grows
with ``|V|``, exactly as the lemmas predict.

Run with::

    python examples/hardness_demo.py [--sizes 8 16 32 64] [--trials 40]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.hardness import HardnessInstanceSpec, adversarial_instance, optimal_cost
from repro.core.instance import URPSMInstance
from repro.dispatch import DispatcherConfig, PruneGreedyDP
from repro.service import MatchingService
from repro.utils.rng import make_rng

LEMMA_LABELS = {
    1: "Lemma 1: maximise served requests (alpha=0, p_r=1)",
    2: "Lemma 2: maximise revenue (alpha=c_w, p_r=c_r*dis)",
    3: "Lemma 3: minimise distance, serve all (alpha=1, p_r~inf)",
}


@dataclass
class HardnessEstimate:
    """Empirical competitive-ratio estimate for one lemma and one |V|."""

    lemma: int
    num_vertices: int
    trials: int
    mean_algorithm_cost: float
    mean_optimal_cost: float
    unserved_fraction: float

    @property
    def ratio(self) -> float:
        """``E[ALG] / E[OPT]`` (``inf`` when the optimum costs zero but ALG does not)."""
        if self.mean_optimal_cost <= 0.0:
            return float("inf") if self.mean_algorithm_cost > 0 else 1.0
        return self.mean_algorithm_cost / self.mean_optimal_cost


def estimate_competitive_ratio(
    lemma: int,
    num_vertices: int,
    run_algorithm: Callable[[URPSMInstance], tuple[float, int]],
    trials: int = 30,
    seed: int = 2018,
) -> HardnessEstimate:
    """Estimate ``E[ALG] / E[OPT]`` over ``trials`` draws of the lemma's distribution.

    Args:
        lemma: 1, 2 or 3.
        num_vertices: cycle size |V| (even values match the paper's construction).
        run_algorithm: callable returning ``(unified_cost, served_count)`` for an
            instance — typically a thin wrapper around the simulator.
        trials: number of independent draws.
        seed: RNG seed.
    """
    rng = make_rng(seed)
    spec = HardnessInstanceSpec(lemma=lemma, num_vertices=num_vertices)
    algorithm_costs: list[float] = []
    optimal_costs: list[float] = []
    unserved = 0
    for _ in range(trials):
        instance = adversarial_instance(spec, rng)
        cost, served = run_algorithm(instance)
        algorithm_costs.append(cost)
        optimal_costs.append(optimal_cost(instance))
        if served == 0:
            unserved += 1
    return HardnessEstimate(
        lemma=lemma,
        num_vertices=num_vertices,
        trials=trials,
        mean_algorithm_cost=float(np.mean(algorithm_costs)),
        mean_optimal_cost=float(np.mean(optimal_costs)),
        unserved_fraction=unserved / trials,
    )


def run_dispatcher(instance):
    """Run pruneGreedyDP on one adversarial instance; return (cost, served)."""
    result = MatchingService(
        instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=50.0))
    ).replay()
    return result.unified_cost, result.served_requests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="*", default=[8, 16, 32, 64])
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--lemmas", type=int, nargs="*", default=[1, 2, 3])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI smoke runs")
    args = parser.parse_args()
    if args.smoke:
        args.sizes, args.trials = [8, 16], 6

    for lemma in args.lemmas:
        print(f"\n{LEMMA_LABELS[lemma]}")
        print(f"{'|V|':>6s}  {'E[ALG]':>12s}  {'E[OPT]':>12s}  {'ratio':>10s}  {'unserved':>9s}")
        for size in args.sizes:
            estimate = estimate_competitive_ratio(
                lemma, size, run_dispatcher, trials=args.trials, seed=args.seed
            )
            ratio = estimate.ratio
            ratio_text = f"{ratio:10.2f}" if ratio != float("inf") else "       inf"
            print(f"{size:>6d}  {estimate.mean_algorithm_cost:>12.2f}  "
                  f"{estimate.mean_optimal_cost:>12.2f}  {ratio_text}  "
                  f"{estimate.unserved_fraction:>9.1%}")
        print("-> the ratio keeps growing with |V|: no constant competitive ratio exists.")


if __name__ == "__main__":
    main()
