"""Tests of the bundled real-map fixture (``tests/fixtures/riverton.geojson``).

Riverton is the repo's stand-in for a real OSM extract: WGS84 LineStrings
with ``highway`` classes, mixed ``maxspeed`` spellings, sub-metre endpoint
noise and disconnected stubs. These tests pin the properties the rest of
the suite (and the warm-replay tests of the artifact store) relies on.
"""

import pytest

from repro.artifacts import network_content_hash
from repro.ingest import RIVERTON_FIXTURE, fixture_path, ingest_file, load_geojson_network
from repro.network.backends import APSP_VERTEX_LIMIT


@pytest.fixture(scope="module")
def riverton():
    return load_geojson_network(fixture_path(RIVERTON_FIXTURE), name="riverton")


class TestRivertonFixture:
    def test_size_in_spec_range(self, riverton):
        network, _ = riverton
        # ISSUE: a small real network, ~1-2k edges, and small enough that the
        # auto backend policy can still pick dense APSP in tests
        assert 1000 <= network.num_edges <= 2000
        assert network.num_vertices <= APSP_VERTEX_LIMIT

    def test_normalisation_really_happened(self, riverton):
        network, report = riverton
        assert "equirectangular" in report.projection
        assert report.components > 1          # the disconnected service stubs
        assert report.dropped_vertices > 0    # ... were dropped
        assert report.snapped_nodes < report.raw_points  # noisy endpoints unified
        assert sorted(network.vertices()) == list(range(network.num_vertices))

    def test_road_classes_and_speeds(self, riverton):
        network, report = riverton
        assert set(report.road_classes) >= {"primary", "secondary", "residential"}
        speeds = {edge.speed for edge in network.edges()}
        assert len(speeds) > 3  # class defaults plus assorted maxspeed tags

    def test_length_invariant(self, riverton):
        network, _ = riverton
        for edge in network.edges():
            assert edge.length >= network.euclidean(edge.u, edge.v) - 1e-9
        network.validate()

    def test_ingestion_is_deterministic(self, riverton):
        network, _ = riverton
        again, _ = ingest_file(fixture_path(RIVERTON_FIXTURE), name="riverton")
        assert network_content_hash(again) == network_content_hash(network)

    def test_registry_city_matches_direct_ingest(self, riverton):
        from repro.workloads.scenarios import ScenarioConfig, build_network

        network, _ = riverton
        registry = build_network(ScenarioConfig(city="riverton"))
        assert network_content_hash(registry) == network_content_hash(network)

    def test_file_city_matches_registry(self, riverton):
        from repro.workloads.scenarios import ScenarioConfig, build_network

        network, _ = riverton
        by_path = build_network(
            ScenarioConfig(city=f"file:{fixture_path(RIVERTON_FIXTURE)}")
        )
        assert network_content_hash(by_path) == network_content_hash(network)

    def test_fixture_generator_is_reproducible(self, riverton, tmp_path):
        """Re-running tools/make_riverton_fixture.py reproduces the bytes."""
        import subprocess
        import sys

        from repro.ingest.fixtures import _REPO_ROOT

        out = tmp_path / "riverton.geojson"
        subprocess.run(
            [sys.executable, str(_REPO_ROOT / "tools" / "make_riverton_fixture.py"), str(out)],
            check=True,
            capture_output=True,
        )
        assert out.read_bytes() == fixture_path(RIVERTON_FIXTURE).read_bytes()
