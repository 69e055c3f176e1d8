"""Mobile CQ server substrate: input queue, server, base stations."""

from repro.server.base_station import (
    BYTES_PER_REGION,
    UDP_PAYLOAD_BYTES,
    BaseStation,
    mean_broadcast_bytes,
    mean_regions_per_station,
    place_density_dependent_stations,
    place_uniform_stations,
)
from repro.server.core import LiraCore, SystemStats
from repro.server.cq_server import LoadMeasurement, MobileCQServer, UpdateMessage
from repro.server.node_engine import (
    NODE_ENGINES,
    ObjectNodeEngine,
    StationAssigner,
    VectorNodeEngine,
)
from repro.server.protocol import (
    BaseStationNetwork,
    MobileNode,
    RegionSubset,
)
from repro.server.queue import ArrayBoundedQueue, BoundedQueue
from repro.server.sharded import LiraShard, RebalanceReport, ShardedLiraSystem
from repro.server.sharding import ShardRouter, hrw_shards
from repro.server.system import LiraSystem

__all__ = [
    "ArrayBoundedQueue",
    "BaseStationNetwork",
    "LiraCore",
    "LiraShard",
    "LiraSystem",
    "RebalanceReport",
    "ShardRouter",
    "ShardedLiraSystem",
    "MobileNode",
    "NODE_ENGINES",
    "ObjectNodeEngine",
    "RegionSubset",
    "StationAssigner",
    "SystemStats",
    "VectorNodeEngine",
    "BYTES_PER_REGION",
    "BaseStation",
    "BoundedQueue",
    "LoadMeasurement",
    "MobileCQServer",
    "UDP_PAYLOAD_BYTES",
    "UpdateMessage",
    "hrw_shards",
    "mean_broadcast_bytes",
    "mean_regions_per_station",
    "place_density_dependent_stations",
    "place_uniform_stations",
]
