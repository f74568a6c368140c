"""Experiment configuration: the paper's parameter grid (Table 5) and scaled presets.

The paper sweeps five parameters around a bold default (Table 5):

==============================  ===============================  =========
Parameter                       Values                           Default
==============================  ===============================  =========
Grid size ``g`` (km)            1, 2, 3, 4, 5                    2
Deadline ``e_r`` (min)          5, 10, 15, 20, 25                10
Worker capacity ``K_w``         3, 4, 6, 10, 20                  4
Weight ``alpha``                1                                1
Penalty ``p_r`` (x dis(o,d))    Chengdu: 2,5,10,20,30            10
                                NYC: 10,20,30,40,50
Fleet size ``|W|``              Chengdu: 2k,5k,10k,20k,30k       10k
                                NYC: 10k,20k,30k,40k,50k         30k
==============================  ===============================  =========

The synthetic cities are far smaller than the real datasets, so fleet sizes are
scaled down proportionally while keeping the 1:2.5 ratio between the two cities
and the relative spread of each sweep. Three scale presets are provided:
``tiny`` (unit/integration tests), ``small`` (the paper-claims gate,
``tools/check_paper_claims.py``) and ``medium`` (longer stand-alone runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.scenarios import ScenarioConfig

# Paper sweep values (Table 5).
PAPER_GRID_KM = [1.0, 2.0, 3.0, 4.0, 5.0]
PAPER_DEADLINE_MINUTES = [5.0, 10.0, 15.0, 20.0, 25.0]
PAPER_WORKER_CAPACITY = [3, 4, 6, 10, 20]
PAPER_PENALTY_FACTORS = {
    "chengdu-like": [2.0, 5.0, 10.0, 20.0, 30.0],
    "nyc-like": [10.0, 20.0, 30.0, 40.0, 50.0],
}
PAPER_WORKER_COUNTS = {
    "chengdu-like": [2_000, 5_000, 10_000, 20_000, 30_000],
    "nyc-like": [10_000, 20_000, 30_000, 40_000, 50_000],
}
PAPER_DEFAULTS = {
    "grid_km": 2.0,
    "deadline_minutes": 10.0,
    "worker_capacity": 4,
    "alpha": 1.0,
    "penalty_factor": 10.0,
}

#: Algorithms compared in every figure of Section 6.
PAPER_ALGORITHMS = ["tshare", "kinetic", "pruneGreedyDP", "batch", "GreedyDP"]


@dataclass(frozen=True)
class ScalePreset:
    """How much to shrink the paper's workload for a given running-time budget."""

    name: str
    requests: dict[str, int]
    workers: dict[str, list[int]]
    default_workers: dict[str, int]

    def worker_sweep(self, city: str) -> list[int]:
        """Fleet-size sweep for ``city`` under this preset."""
        return self.workers[city]


SCALES: dict[str, ScalePreset] = {
    "tiny": ScalePreset(
        name="tiny",
        requests={"chengdu-like": 80, "nyc-like": 100, "small-grid": 60, "random": 60},
        workers={
            "chengdu-like": [5, 10, 15, 20, 30],
            "nyc-like": [10, 15, 20, 30, 40],
            "small-grid": [4, 8, 12, 16, 20],
            "random": [4, 8, 12, 16, 20],
        },
        default_workers={"chengdu-like": 15, "nyc-like": 20, "small-grid": 10, "random": 10},
    ),
    "small": ScalePreset(
        name="small",
        requests={"chengdu-like": 250, "nyc-like": 300, "small-grid": 150, "random": 150},
        workers={
            "chengdu-like": [10, 20, 40, 60, 80],
            "nyc-like": [20, 40, 60, 80, 100],
            "small-grid": [10, 20, 30, 40, 50],
            "random": [10, 20, 30, 40, 50],
        },
        default_workers={"chengdu-like": 40, "nyc-like": 60, "small-grid": 30, "random": 30},
    ),
    "medium": ScalePreset(
        name="medium",
        requests={"chengdu-like": 1200, "nyc-like": 2000, "small-grid": 500, "random": 500},
        workers={
            "chengdu-like": [40, 100, 200, 400, 600],
            "nyc-like": [100, 200, 300, 400, 500],
            "small-grid": [20, 40, 80, 120, 160],
            "random": [20, 40, 80, 120, 160],
        },
        default_workers={"chengdu-like": 200, "nyc-like": 300, "small-grid": 80, "random": 80},
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete experiment: cities, algorithms, scale and base scenario knobs."""

    cities: tuple[str, ...] = ("chengdu-like", "nyc-like")
    algorithms: tuple[str, ...] = tuple(PAPER_ALGORITHMS)
    scale: str = "small"
    seed: int = 2018
    grid_km: float = PAPER_DEFAULTS["grid_km"]
    deadline_minutes: float = PAPER_DEFAULTS["deadline_minutes"]
    worker_capacity: int = PAPER_DEFAULTS["worker_capacity"]
    penalty_factor: float = PAPER_DEFAULTS["penalty_factor"]
    alpha: float = PAPER_DEFAULTS["alpha"]

    def preset(self) -> ScalePreset:
        """The scale preset named by :attr:`scale`."""
        return SCALES[self.scale]

    def base_scenario(self, city: str) -> ScenarioConfig:
        """Default (Table 5 bold) scenario for ``city`` at the configured scale."""
        preset = self.preset()
        return ScenarioConfig(
            city=city,
            num_workers=preset.default_workers[city],
            num_requests=preset.requests[city],
            worker_capacity=self.worker_capacity,
            deadline_minutes=self.deadline_minutes,
            penalty_factor=self.penalty_factor,
            alpha=self.alpha,
            grid_km=self.grid_km,
            seed=self.seed,
        )

    # ------------------------------------------------------------- sweeps

    def worker_sweep(self, city: str) -> list[int]:
        """Fleet sizes swept in Figure 3 for ``city``."""
        return self.preset().worker_sweep(city)

    def capacity_sweep(self) -> list[int]:
        """Worker capacities swept in Figure 4."""
        return list(PAPER_WORKER_CAPACITY)

    def grid_sweep(self) -> list[float]:
        """Grid sizes (km) swept in Figure 5."""
        return list(PAPER_GRID_KM)

    def deadline_sweep(self) -> list[float]:
        """Deadlines (minutes) swept in Figure 6."""
        return list(PAPER_DEADLINE_MINUTES)

    def penalty_sweep(self, city: str) -> list[float]:
        """Penalty factors swept in Figure 7 for ``city``."""
        return list(PAPER_PENALTY_FACTORS.get(city, PAPER_PENALTY_FACTORS["chengdu-like"]))
