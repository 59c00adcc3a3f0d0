"""Sharded graph backend: K edge-disjoint partitions, one store each.

The scaling layer above the paper's single-disk storage scheme: a
network is cut into ``K`` edge-disjoint shards
(:mod:`repro.shard.partition`), each shard pages its induced subgraph
through a private disk store, LRU buffer and cost tracker
(:mod:`repro.shard.store`), and the cut edges are served from an
in-memory boundary-vertex table.  The sharded store's adjacency reads
stitch the two back into the unsharded lists, so the facades
(:mod:`repro.shard.db`) run the paper's algorithms unchanged over the
standard network views: answers are identical to the unsharded
databases while I/O decomposes into per-shard counters -- and the
batch engine routes queries to their home shards and executes
independent shards on its worker pool.
"""

from repro.shard.db import ShardedDatabase, ShardedDirectedDatabase
from repro.shard.partition import ShardPlan, cut_digraph, cut_graph
from repro.shard.store import (
    DirectedGraphShard,
    GraphShard,
    ShardedDiGraphStore,
    ShardedGraphStore,
)

__all__ = [
    "DirectedGraphShard",
    "GraphShard",
    "ShardPlan",
    "ShardedDatabase",
    "ShardedDiGraphStore",
    "ShardedDirectedDatabase",
    "ShardedGraphStore",
    "cut_digraph",
    "cut_graph",
]
