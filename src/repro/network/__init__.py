"""Road-network substrate: graph model, shortest paths, distance backends, oracle, generators."""

from repro.network.backends import (
    BACKEND_NAMES,
    APSPBackend,
    CHBackend,
    DistanceBackend,
    make_backend,
    select_backend_name,
)
from repro.network.cache import CacheStatistics, LRUCache
from repro.network.ch import ContractionHierarchy, build_contraction_hierarchy
from repro.network.generators import (
    cycle_network,
    grid_city,
    random_geometric_city,
    ring_radial_city,
)
from repro.network.graph import (
    CSRAdjacency,
    Edge,
    EdgeMutation,
    RoadNetwork,
    Vertex,
    connected_components,
)
from repro.network.io import load_network, network_from_dict, network_to_dict, save_network
from repro.network.oracle import DistanceOracle, OracleCounters
from repro.network.shortest_path import bidirectional_dijkstra

__all__ = [
    "BACKEND_NAMES",
    "APSPBackend",
    "CHBackend",
    "ContractionHierarchy",
    "DistanceBackend",
    "build_contraction_hierarchy",
    "make_backend",
    "select_backend_name",
    "CacheStatistics",
    "LRUCache",
    "cycle_network",
    "grid_city",
    "random_geometric_city",
    "ring_radial_city",
    "CSRAdjacency",
    "Edge",
    "EdgeMutation",
    "RoadNetwork",
    "Vertex",
    "connected_components",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "save_network",
    "DistanceOracle",
    "OracleCounters",
    "bidirectional_dijkstra",
]
