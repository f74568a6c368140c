"""Property-based invariants of full simulation runs.

Whatever (small) random scenario and algorithm are drawn, a simulation run must
preserve the accounting identities of the URPSM model:

* every request gets exactly one outcome (served xor rejected);
* the unified cost decomposes as ``alpha * travel + sum of rejected penalties``;
* no served request misses its deadline;
* travelled cost is non-negative and zero when nothing is served;
* the event kernel decides what the seed's request loop decides.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.service import MatchingService
from repro.workloads.scenarios import ScenarioConfig, build_instance, build_network, make_oracle
from tests.simulation.seed_loop import run_seed_loop

_BASE = ScenarioConfig(city="small-grid", seed=29)
_NETWORK = build_network(_BASE)
_ORACLE = make_oracle(_NETWORK, _BASE)

_ALGORITHMS = ["pruneGreedyDP", "GreedyDP", "tshare", "batch", "nearest"]

_SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def scenario_runs(draw):
    algorithm = draw(st.sampled_from(_ALGORITHMS))
    config = _BASE.with_overrides(
        num_workers=draw(st.integers(min_value=2, max_value=10)),
        num_requests=draw(st.integers(min_value=5, max_value=40)),
        deadline_minutes=draw(st.sampled_from([5.0, 10.0, 20.0])),
        penalty_factor=draw(st.sampled_from([2.0, 10.0, 30.0])),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    return algorithm, config


class TestSimulationInvariants:
    @given(scenario_runs())
    @_SETTINGS
    def test_accounting_identities(self, scenario):
        algorithm, config = scenario
        instance = build_instance(config, network=_NETWORK, oracle=_ORACLE)
        dispatcher = make_dispatcher(
            algorithm, DispatcherConfig(grid_cell_metres=config.grid_km * 1000.0)
        )
        result = MatchingService(instance, dispatcher).replay()

        assert result.total_requests == config.num_requests
        assert result.served_requests + result.rejected_requests == result.total_requests
        assert 0.0 <= result.served_rate <= 1.0
        assert result.total_travel_cost >= 0.0
        assert result.unified_cost == pytest.approx(
            result.alpha * result.total_travel_cost + result.total_penalty, rel=1e-9, abs=1e-6
        )
        assert result.deadline_violations == 0
        if result.served_requests == 0:
            assert result.total_travel_cost == 0.0

    @given(scenario_runs())
    @_SETTINGS
    def test_kernel_matches_the_seed_loop(self, scenario):
        """Lazy advancement through the route table's window decides exactly
        what the seed's walk of every worker at every release decides."""
        algorithm, config = scenario
        results = []
        for run in (lambda i, d: MatchingService(i, d).replay(), run_seed_loop):
            instance = build_instance(config, network=_NETWORK, oracle=_ORACLE)
            dispatcher = make_dispatcher(
                algorithm, DispatcherConfig(grid_cell_metres=config.grid_km * 1000.0)
            )
            results.append(run(instance, dispatcher))
        kernel, seed = results
        assert kernel.served_requests == seed.served_requests
        assert kernel.rejected_requests == seed.rejected_requests
        assert kernel.unified_cost == seed.unified_cost
        assert kernel.total_travel_cost == seed.total_travel_cost
