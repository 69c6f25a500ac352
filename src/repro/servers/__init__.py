"""The parameter-server tier: replication, Byzantine servers, sharding.

The paper assumes a single reliable parameter server (footnote 2).  This
package drops that assumption along the ByzSGD/Garfield axis: the server
is a :class:`ReplicatedServerGroup` of ``num_servers`` replicas of which
up to ``byzantine_servers`` broadcast corrupted parameters (crafted by a
registered :class:`ServerAttack`), workers defend with a coordinate-wise
median over replica broadcasts, and ``num_shards`` splits aggregation
across coordinate slices.  The degenerate cell ``num_servers=1,
byzantine_servers=0, num_shards=1`` is bit-for-bit the single-server
engine.
"""

from repro.servers.attacks import (
    RandomNoiseBroadcastAttack,
    ServerAttack,
    ServerAttackContext,
    SignFlipBroadcastAttack,
    StaleReplayBroadcastAttack,
)
from repro.servers.registry import (
    available_server_attacks,
    make_server_attack,
    register_server_attack,
    server_attack_factory,
)
from repro.servers.replication import ReplicatedServerGroup, replica_view
from repro.servers.sharding import ShardedAggregator, shard_bounds

__all__ = [
    "ServerAttack",
    "ServerAttackContext",
    "SignFlipBroadcastAttack",
    "StaleReplayBroadcastAttack",
    "RandomNoiseBroadcastAttack",
    "register_server_attack",
    "available_server_attacks",
    "server_attack_factory",
    "make_server_attack",
    "ReplicatedServerGroup",
    "replica_view",
    "ShardedAggregator",
    "shard_bounds",
]
