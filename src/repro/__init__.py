"""repro: Reverse nearest neighbors in large graphs.

A faithful, self-contained reproduction of

    M. L. Yiu, D. Papadias, N. Mamoulis, Y. Tao,
    "Reverse Nearest Neighbors in Large Graphs",
    ICDE 2005 (extended version: IEEE TKDE 18(4), 2006).

The package implements the paper's disk-based graph storage scheme, the
eager / lazy / eager-M / lazy-EP RkNN algorithms, bichromatic and
continuous variants, unrestricted networks with data points on edges,
K-NN materialization with update maintenance, the data-set generators
used by the evaluation, and a benchmark harness that regenerates every
table and figure of the paper's experimental study.

Beyond the paper's core, the library also ships the substrates and
comparators its related-work section describes: a shortest-path stack
(:mod:`repro.paths`: Dijkstra, A*, bidirectional search, ALT
landmarks), network Voronoi diagrams with an NVD-based RNN competitor
(:mod:`repro.voronoi`), HEPV-style hierarchical partial materialization
(:mod:`repro.hier`), a VP-tree metric-index RNN comparator
(:mod:`repro.metric`), continuous RkNN monitoring over update streams
(:mod:`repro.streams`), and the cost/selectivity models plus a
calibrating planner the paper's conclusion calls for
(:mod:`repro.analytics`).  For scale-out, :mod:`repro.shard` cuts the
network into K edge-disjoint storage shards behind
:class:`ShardedDatabase` / :class:`ShardedDirectedDatabase` facades
that answer every query identically to the single-store databases
while the batch engine executes independent shards concurrently.  For
raw speed, :mod:`repro.compact` flattens the network into CSR arrays
behind :class:`CompactDatabase` / :class:`CompactDirectedDatabase`
facades -- the memory-resident fast path serving the same answers with
zero page I/O.  Every backend can additionally preprocess the network
into an ALT landmark distance oracle (:mod:`repro.oracle`,
``db.build_oracle()``): triangle-inequality bounds the expansion loops
consult to skip provably irrelevant work, cutting expanded-edge counts
and I/O while answers stay bitwise identical.  The serving tier
(:mod:`repro.serve`) exposes any backend over TCP: an asyncio server
micro-batches JSON query requests through the engine, sheds load
beyond its admission bound with explicit ``overloaded`` responses, and
applies each mutation between batches, in order with the queries on
its connection, so no response ever mixes update generations.

Quickstart::

    from repro import GraphDatabase, NodePointSet

    edges = [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 4.0), (3, 0, 3.0)]
    db = GraphDatabase.from_edges(edges, points=NodePointSet({7: 0, 8: 2}))
    print(db.rknn(query=1, k=1).points)
"""

from repro.api import GraphDatabase
from repro.api_directed import DirectedGraphDatabase
from repro.compact import CompactDatabase, CompactDirectedDatabase
from repro.core.result import KnnResult, RnnResult, UpdateResult
from repro.engine import BatchResult, QueryEngine, QuerySpec
from repro.errors import (
    GraphError,
    MaterializationError,
    PointError,
    QueryError,
    ReproError,
    StorageError,
)
from repro.graph.graph import Graph
from repro.graph.digraph import DiGraph
from repro.graph.builder import GraphBuilder
from repro.core.result import OracleResult
from repro.oracle import DistanceOracle, LandmarkStore, LowerBoundProvider
from repro.points.points import EdgePointSet, NodePointSet, PointSet
from repro.qlang import compile_text, execute, parse
from repro.serve import RknnServer, ServeClient, serve_in_thread
from repro.shard import ShardedDatabase, ShardedDirectedDatabase
from repro.storage.stats import CostModel, CostTracker

__version__ = "1.0.0"

__all__ = [
    "BatchResult",
    "CompactDatabase",
    "CompactDirectedDatabase",
    "CostModel",
    "CostTracker",
    "DiGraph",
    "DistanceOracle",
    "DirectedGraphDatabase",
    "EdgePointSet",
    "Graph",
    "GraphBuilder",
    "GraphDatabase",
    "GraphError",
    "KnnResult",
    "LandmarkStore",
    "LowerBoundProvider",
    "MaterializationError",
    "NodePointSet",
    "OracleResult",
    "PointError",
    "PointSet",
    "QueryEngine",
    "QueryError",
    "QuerySpec",
    "ReproError",
    "RknnServer",
    "RnnResult",
    "ServeClient",
    "ShardedDatabase",
    "ShardedDirectedDatabase",
    "StorageError",
    "UpdateResult",
    "__version__",
    "compile_text",
    "execute",
    "parse",
    "serve_in_thread",
]
