"""Tests of content hashing and the preprocessing artifact store.

A warm-loaded backend must never buy a behaviour change: it answers a query
battery (:class:`TestBitwiseEquality`) and replays a full workload
(:class:`TestWarmReplay`) exactly as the fresh build it was saved from.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.artifacts import ArtifactStore, network_content_hash
from repro.artifacts.store import FORMAT_VERSION
from repro.cli import main
from repro.core.timegrid import TIME_QUANTUM
from repro.dispatch import DispatcherConfig
from repro.dispatch.greedy_dp import PruneGreedyDP
from repro.exceptions import ArtifactError, ConfigurationError
from repro.network.backends import BACKEND_NAMES
from repro.network.generators import grid_city, random_geometric_city
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.service import MatchingService
from repro.utils.geometry import Point
from repro.workloads.scenarios import ScenarioConfig, build_instance, build_network
from tests.network.reference import table_seconds


#: ``network_content_hash`` of the ``city`` fixture as it was before edge costs
#: went onto the time grid (plain ``length / speed`` costs).
_PRE_GRID_HASH = "5f6a322aa54dcf44eaa4374934a8d1f6bf6f7080bd5952ee678d957ab74fa9b1"


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=6, columns=6, removed_block_fraction=0.1, seed=7)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def rebuilt(network, *, scale_coords=None, scale_speed=None):
    """Copy ``network``, optionally contracting geometry or scaling speeds.

    Coordinates may only shrink (``scale_coords <= 1``): that perturbs the
    hashed geometry while keeping every edge length >= the straight line.
    """
    result = RoadNetwork(name=network.name)
    for vertex in sorted(network.vertices()):
        point = network.coordinates(vertex)
        if scale_coords is not None:
            point = Point(point.x * scale_coords, point.y * scale_coords)
        result.add_vertex(vertex, point)
    for edge in network.edges():
        result.add_edge(
            edge.u,
            edge.v,
            length=edge.length,
            speed=edge.speed * (scale_speed or 1.0),
            road_class=edge.road_class,
        )
    return result


class TestContentHash:
    def test_deterministic(self, city):
        assert network_content_hash(city) == network_content_hash(city)
        assert network_content_hash(rebuilt(city)) == network_content_hash(city)

    def test_same_generator_same_hash(self):
        a = random_geometric_city(num_vertices=50, seed=3)
        b = random_geometric_city(num_vertices=50, seed=3)
        assert network_content_hash(a) == network_content_hash(b)

    def test_seed_changes_hash(self):
        a = random_geometric_city(num_vertices=50, seed=3)
        b = random_geometric_city(num_vertices=50, seed=4)
        assert network_content_hash(a) != network_content_hash(b)

    def test_geometry_changes_hash(self, city):
        contracted = rebuilt(city, scale_coords=0.999)
        assert network_content_hash(contracted) != network_content_hash(city)

    def test_cost_changes_hash(self, city):
        slower = rebuilt(city, scale_speed=0.5)
        assert network_content_hash(slower) != network_content_hash(city)

    def test_name_does_not_change_hash(self, city):
        renamed = rebuilt(city)
        renamed.name = "something-else"
        assert network_content_hash(renamed) == network_content_hash(city)


class TestStoreBasics:
    def test_round_trip_all_backends(self, city, store):
        content_hash = network_content_hash(city)
        for name in BACKEND_NAMES:
            assert not store.has(content_hash, name)
            fresh = DistanceOracle(city, backend=name)
            path = store.save_backend(city, fresh.backend, content_hash=content_hash)
            assert path.exists()
            assert store.has(content_hash, name)
            loaded = store.load_backend(name, city, content_hash=content_hash)
            assert loaded is not None
            assert loaded.name == name

    def test_load_missing_returns_none(self, city, store):
        assert store.load_backend("ch", city) is None

    def test_dijkstra_not_persistable(self, city, store):
        # the same error type and text make_backend and DistanceOracle raise
        with pytest.raises(ConfigurationError, match="unknown distance backend 'dijkstra'"):
            store.artifact_path(network_content_hash(city), "dijkstra")

    def test_entries_lists_manifests(self, city, store):
        assert store.entries() == []
        fresh = DistanceOracle(city, backend="ch")
        store.save_backend(city, fresh.backend)
        (entry,) = store.entries()
        assert entry["content_hash"] == network_content_hash(city)
        assert entry["format_version"] == FORMAT_VERSION
        assert "ch" in entry["backends"]
        assert entry["network"]["num_vertices"] == city.num_vertices

    def test_short_hash_rejected(self, store):
        with pytest.raises(ArtifactError, match="malformed content hash"):
            store.entry_dir("ab")


class TestBitwiseEquality:
    """A loaded backend must answer exactly as the fresh build would."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_loaded_matches_fresh_bitwise(self, city, store, name):
        fresh = DistanceOracle(city, backend=name)
        store.save_backend(city, fresh.backend)
        warm = DistanceOracle(city, backend=name, artifact_dir=store.root)
        assert warm.artifact_loaded
        vertices = sorted(city.vertices())
        rng = np.random.default_rng(2018)
        us = [vertices[i] for i in rng.integers(0, len(vertices), size=100)]
        vs = [vertices[i] for i in rng.integers(0, len(vertices), size=100)]
        # np.array_equal, not allclose: the store promises bit identity
        assert np.array_equal(fresh.distance_pairs(us, vs), warm.distance_pairs(us, vs))
        assert np.array_equal(
            fresh.distances_many(us[0], vs), warm.distances_many(us[0], vs)
        )


class TestValidation:
    def setup_entry(self, city, store, name="ch"):
        fresh = DistanceOracle(city, backend=name)
        content_hash = network_content_hash(city)
        store.save_backend(city, fresh.backend, content_hash=content_hash)
        return content_hash

    def test_version_mismatch(self, city, store):
        content_hash = self.setup_entry(city, store)
        manifest_file = store.manifest_path(content_hash)
        manifest = json.loads(manifest_file.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format version"):
            store.load_backend("ch", city, content_hash=content_hash)

    def test_hash_mismatch(self, city, store):
        content_hash = self.setup_entry(city, store)
        manifest_file = store.manifest_path(content_hash)
        manifest = json.loads(manifest_file.read_text())
        manifest["content_hash"] = "0" * 64
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="content hash mismatch"):
            store.load_backend("ch", city, content_hash=content_hash)

    def test_missing_manifest(self, city, store):
        content_hash = self.setup_entry(city, store)
        store.manifest_path(content_hash).unlink()
        with pytest.raises(ArtifactError, match="manifest missing"):
            store.load_backend("ch", city, content_hash=content_hash)

    def test_wrong_network_shape(self, city, store):
        content_hash = self.setup_entry(city, store)
        other = grid_city(rows=4, columns=4, removed_block_fraction=0.0, seed=7)
        # force the lookup to the existing entry: same key, different network
        with pytest.raises(ArtifactError, match="vertices"):
            store.load_backend("ch", other, content_hash=content_hash)

    def test_corrupt_npz(self, city, store):
        content_hash = self.setup_entry(city, store)
        store.artifact_path(content_hash, "ch").write_bytes(b"not an npz file")
        with pytest.raises(ArtifactError, match="cannot read artifact"):
            store.load_backend("ch", city, content_hash=content_hash)

    def test_load_or_build_recovers_from_corruption(self, city, store):
        content_hash = self.setup_entry(city, store)
        store.artifact_path(content_hash, "ch").write_bytes(b"garbage")
        backend, loaded = store.load_or_build("ch", city, content_hash=content_hash)
        assert not loaded  # rebuilt, not served from the corrupt file
        backend2, loaded2 = store.load_or_build("ch", city, content_hash=content_hash)
        assert loaded2  # the rebuild overwrote the corrupt artifact

    def rewrite_array(self, store, content_hash, name, key, change):
        """Rewrite one array of a saved artifact through ``change``."""
        path = store.artifact_path(content_hash, name)
        with np.load(path) as archive:
            arrays = {item: archive[item] for item in archive.files}
        arrays[key] = change(arrays[key])
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    @pytest.mark.parametrize(
        "name, key, change, message",
        [
            ("apsp", "matrix", lambda a: a * TIME_QUANTUM, "'matrix' is float64, expected int32"),
            ("apsp", "vertex_ids", lambda a: a.astype(np.int32), "'vertex_ids' is int32"),
            ("apsp", "matrix", lambda a: a - 1, "'matrix' has cells outside"),
            ("apsp", "matrix", lambda a: np.where(a == a.max(), UNREACHABLE_TICKS + 1, a),
             "'matrix' has cells outside"),
            ("apsp", "matrix", lambda a: a + 1, "'matrix' has a nonzero diagonal"),
            ("ch", "rank", lambda a: a.astype(np.int32), "'rank' is int32, expected int64"),
            ("ch", "up_indptr", lambda a: a.astype(np.float64), "'up_indptr' is float64"),
            ("ch", "up_indices", lambda a: a.astype(np.int32), "'up_indices' is int32"),
            ("ch", "up_costs", lambda a: a.astype(np.float32), "'up_costs' is float32"),
            ("ch", "meta", lambda a: a.astype(np.int32), "'meta' is int32"),
        ],
        ids=["matrix-float64", "vertex_ids-int32", "matrix-negative", "matrix-past-sentinel",
             "matrix-diagonal", "rank", "up_indptr", "up_indices", "up_costs", "meta"],
    )
    def test_a_bad_array_fails_typed_and_rebuilds(self, city, store, name, key, change, message):
        content_hash = self.setup_entry(city, store, name)
        self.rewrite_array(store, content_hash, name, key, change)
        with pytest.raises(ArtifactError, match=message):
            store.load_backend(name, city, content_hash=content_hash)
        _, loaded = store.load_or_build(name, city, content_hash=content_hash)
        assert not loaded
        assert store.load_backend(name, city, content_hash=content_hash) is not None

    def test_a_format_version_1_entry_misses_and_rebuilds(self, city, store):
        # a version 1 entry: the float64 seconds table, under its old manifest
        content_hash = self.setup_entry(city, store, "apsp")
        self.rewrite_array(store, content_hash, "apsp", "matrix", table_seconds)
        manifest_file = store.manifest_path(content_hash)
        manifest = json.loads(manifest_file.read_text())
        manifest["format_version"] = 1
        manifest_file.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format version 1, expected 2"):
            store.load_backend("apsp", city, content_hash=content_hash)
        backend, loaded = store.load_or_build("apsp", city, content_hash=content_hash)
        assert not loaded
        assert backend.matrix.dtype == np.int32
        assert store.entries()[0]["format_version"] == FORMAT_VERSION == 2
        assert store.load_backend("apsp", city, content_hash=content_hash) is not None


class TestOracleIntegration:
    def test_miss_then_hit(self, city, store):
        first = DistanceOracle(city, backend="ch", artifact_dir=store.root)
        assert not first.artifact_loaded  # cold: built and saved
        second = DistanceOracle(city, backend="ch", artifact_dir=store.root)
        assert second.artifact_loaded  # warm: loaded
        assert first.content_hash == second.content_hash == network_content_hash(city)

    def test_a_store_written_before_the_time_grid_misses_and_rebuilds(self, city, store):
        # the entry a pre-grid build left behind, under its content hash then
        old = DistanceOracle(city, backend="ch").backend
        store.save_backend(city, old, content_hash=_PRE_GRID_HASH)
        assert network_content_hash(city) != _PRE_GRID_HASH
        cold = DistanceOracle(city, backend="ch", artifact_dir=store.root)
        assert not cold.artifact_loaded
        hashes = {entry["content_hash"] for entry in store.entries()}
        assert hashes == {_PRE_GRID_HASH, cold.content_hash}
        assert DistanceOracle(city, backend="ch", artifact_dir=store.root).artifact_loaded

    def test_no_store_no_hash(self, city):
        oracle = DistanceOracle(city, backend="ch")
        assert oracle.artifact_store is None
        assert oracle.content_hash is None
        assert not oracle.artifact_loaded

    def test_auto_keeps_apsp_on_small_cities(self, city, store):
        # a cached ch artifact does not displace the size policy's pick
        DistanceOracle(city, backend="ch", artifact_dir=store.root)
        auto = DistanceOracle(city, backend="auto", artifact_dir=store.root)
        assert auto.backend.name == "apsp"


def write_entry_with_hub_labels(city, store):
    """An entry as stores that also persisted hub labels wrote it: the apsp
    and ch artifacts, a ``hub_labels.npz`` beside them and a manifest that
    lists all three."""
    content_hash = network_content_hash(city)
    for name in ("apsp", "ch"):
        store.save_backend(city, DistanceOracle(city, backend=name).backend, content_hash)
    entry = store.entry_dir(content_hash)
    n = city.num_vertices
    with open(entry / "hub_labels.npz", "wb") as handle:
        np.savez_compressed(
            handle,
            indptr=np.arange(n + 1, dtype=np.int64),
            hubs=np.arange(n, dtype=np.int64),
            dists=np.zeros(n, dtype=np.float64),
            order=np.arange(n, dtype=np.int64),
        )
    manifest_file = store.manifest_path(content_hash)
    manifest = json.loads(manifest_file.read_text())
    manifest["backends"]["hub_labels"] = {"file": "hub_labels.npz", "build_seconds": 1.5}
    manifest_file.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return content_hash


class TestStoresWithHubLabels:
    """Entries written while the store also persisted hub labels keep
    serving their apsp and ch artifacts; the leftover file is never read."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_loads_warm_and_bit_identical(self, city, store, name):
        write_entry_with_hub_labels(city, store)
        warm = DistanceOracle(city, backend=name, artifact_dir=store.root)
        assert warm.artifact_loaded
        fresh = DistanceOracle(city, backend=name)
        vertices = sorted(city.vertices())
        assert np.array_equal(
            fresh.distances_many(vertices[0], vertices), warm.distances_many(vertices[0], vertices)
        )

    def test_entry_is_listed(self, city, store, capsys):
        content_hash = write_entry_with_hub_labels(city, store)
        (entry,) = store.entries()
        assert entry["content_hash"] == content_hash
        assert set(entry["backends"]) == {"apsp", "ch", "hub_labels"}
        assert main(["preprocess", "--artifact-dir", str(store.root), "--list"]) == 0
        listing = capsys.readouterr().out
        assert content_hash[:12] in listing
        assert "    ch: built in" in listing

    def test_hub_labels_rejected_as_without_a_store(self, city, store):
        write_entry_with_hub_labels(city, store)
        with pytest.raises(ValueError) as without_store:
            DistanceOracle(city, backend="hub_labels")
        with pytest.raises(ValueError) as with_store:
            DistanceOracle(city, backend="hub_labels", artifact_dir=store.root)
        assert str(with_store.value) == str(without_store.value)
        assert "unknown distance backend" in str(with_store.value)

    def test_saving_keeps_the_leftover_record(self, city, store):
        content_hash = write_entry_with_hub_labels(city, store)
        store.save_backend(city, DistanceOracle(city, backend="ch").backend, content_hash)
        manifest = json.loads(store.manifest_path(content_hash).read_text())
        assert set(manifest["backends"]) == {"apsp", "ch", "hub_labels"}


@pytest.fixture(scope="module")
def riverton_workload():
    config = ScenarioConfig(city="riverton", num_workers=40, num_requests=120, seed=2018)
    network = build_network(config)
    # one workload, generated without preprocessing, replayed under every oracle
    canonical = build_instance(config, network=network, oracle=DistanceOracle(network))
    return config, canonical


def replay_outcome(config, canonical, oracle):
    instance = dataclasses.replace(canonical, oracle=oracle)
    dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=config.grid_km * 1000.0))
    result = MatchingService(instance, dispatcher).replay()
    return (
        result.served_requests,
        result.unified_cost,
        result.mean_wait_seconds,
        result.mean_detour_ratio,
    )


class TestWarmReplay:
    """A full pruneGreedyDP replay on the riverton real map is identical
    under the fresh build and under the backend loaded from the store."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_fresh_and_warm_replays_agree(self, riverton_workload, store, name):
        config, canonical = riverton_workload
        fresh = DistanceOracle(canonical.network, backend=name)
        store.save_backend(canonical.network, fresh.backend)
        warm = DistanceOracle(canonical.network, backend=name, artifact_dir=store.root)
        assert warm.artifact_loaded
        outcome = replay_outcome(config, canonical, fresh)
        assert outcome[0] > 0
        assert replay_outcome(config, canonical, warm) == outcome
