"""A symmetric digraph answers like its undirected graph.

An undirected edge is an arc in both directions, so each directed
facade over ``DiGraph.from_undirected(g)`` must agree with
``GraphDatabase(g)``: the same RkNN answers and the same K-NN list
distances, before and after point updates.  This is what lets one set
of probes and K-NN list routines serve both directions.
"""

import random

import pytest

from repro import DiGraph, GraphDatabase, NodePointSet
from repro.api_directed import DirectedGraphDatabase
from repro.compact.db import CompactDirectedDatabase
from repro.graph.graph import Graph
from repro.shard.db import ShardedDirectedDatabase

DIRECTED_FACADES = {
    "disk": DirectedGraphDatabase,
    "sharded": lambda graph, points: ShardedDirectedDatabase(
        graph, points, num_shards=3
    ),
    "compact": CompactDirectedDatabase,
}


def random_case(seed):
    """A connected random graph (tied weights included) with node points."""
    rng = random.Random(seed)
    n = rng.randint(10, 24)
    edges = {}
    for v in range(1, n):  # a random spanning tree keeps the graph connected
        edges[(rng.randrange(v), v)] = float(rng.randint(1, 6))
    for _ in range(n):
        u, v = sorted(rng.sample(range(n), 2))
        edges.setdefault((u, v), rng.choice([1.0, 2.0, 2.5, 4.0, 7.0]))
    graph = Graph(n, [(u, v, w) for (u, v), w in edges.items()])
    nodes = rng.sample(range(n), max(4, n // 3))
    return rng, graph, NodePointSet(dict(enumerate(nodes)))


def list_distances(db):
    return [[dist for _, dist in db.materialized.get(node)]
            for node in range(db.graph.num_nodes)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("facade", sorted(DIRECTED_FACADES))
def test_symmetric_digraph_answers_like_undirected(facade, seed):
    rng, graph, points = random_case(seed)
    undirected = GraphDatabase(graph, points)
    directed = DIRECTED_FACADES[facade](DiGraph.from_undirected(graph), points)
    both = (undirected, directed)
    for db in both:
        db.materialize(4)
    for node in range(graph.num_nodes):
        for k in (1, 2, 3):
            for method in ("eager", "eager-m"):
                assert (directed.rknn(node, k, method).points
                        == undirected.rknn(node, k, method).points)
    assert list_distances(directed) == list_distances(undirected)

    free = [v for v in range(graph.num_nodes) if points.point_at(v) is None]
    new_node, new_pid = rng.choice(free), max(points.ids()) + 1
    for db in both:
        db.insert_point(new_pid, new_node)
    assert list_distances(directed) == list_distances(undirected)

    victim = rng.choice(sorted(points.ids()))
    for db in both:
        db.delete_point(victim)
    assert list_distances(directed) == list_distances(undirected)
