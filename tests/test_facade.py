"""Input rules every facade shares, checked over all six databases.

The disk, sharded and compact databases (undirected and directed)
inherit their query and update methods from :mod:`repro.facade`, so
one rule holds for all six: a point on a node outside the graph is
refused with :class:`~repro.errors.PointError` before anything is
written, and a query location that is not a node id is a
:class:`~repro.errors.QueryError`.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    DirectedGraphDatabase,
    EdgePointSet,
    GraphDatabase,
    NodePointSet,
    ShardedDatabase,
    ShardedDirectedDatabase,
)
from repro.engine.spec import QuerySpec
from repro.errors import PointError, QueryError
from repro.graph.digraph import DiGraph
from tests.conftest import build_random_graph

NUM_NODES = 20

#: The six public databases over one network (undirected or directed).
FACADES = {
    "disk": lambda graph, digraph, points: GraphDatabase(graph, points),
    "sharded": lambda graph, digraph, points: ShardedDatabase(
        graph, points, num_shards=2),
    "compact": lambda graph, digraph, points: CompactDatabase(graph, points),
    "directed-disk": lambda graph, digraph, points: DirectedGraphDatabase(
        digraph, points),
    "directed-sharded": lambda graph, digraph, points: ShardedDirectedDatabase(
        digraph, points, num_shards=2),
    "directed-compact": lambda graph, digraph, points: CompactDirectedDatabase(
        digraph, points),
}


@pytest.fixture(scope="module")
def network():
    graph = build_random_graph(random.Random(7), NUM_NODES, NUM_NODES // 2)
    arcs = [arc for u, v, w in graph.edges() for arc in ((u, v, w), (v, u, w + 1))]
    digraph = DiGraph.from_arcs(arcs, num_nodes=NUM_NODES)
    return graph, digraph, NodePointSet({0: 1, 1: 5, 2: 9, 3: 14})


def build(name, network):
    return FACADES[name](*network)


@pytest.mark.parametrize("node", [999, -1])
@pytest.mark.parametrize("name", sorted(FACADES))
def test_insert_point_rejects_unknown_node(name, node, network):
    db = build(name, network)
    points, generation = db.points, db.generation
    stamp = getattr(db, "stamp", None)
    with pytest.raises(PointError, match=f"point 9 lies on unknown node {node}"):
        db.insert_point(9, node)
    assert db.points is points
    assert db.generation == generation
    assert getattr(db, "stamp", None) == stamp


@pytest.mark.parametrize("name", sorted(FACADES))
def test_insert_point_rejects_non_node_location(name, network):
    db = build(name, network)
    with pytest.raises(QueryError, match="node-id"):
        db.insert_point(9, 2.0)
    assert 9 not in db.points


def test_compact_batch_kernel_survives_rejected_insert(network):
    graph, _, points = network
    db = CompactDatabase(graph, points)
    with pytest.raises(PointError):
        db.insert_point(9, NUM_NODES + 5)
    specs = [QuerySpec("rknn", query=q, k=2) for q in range(0, NUM_NODES, 3)]
    scalar = [db.rknn(spec.query, 2).points for spec in specs]
    assert [result.points for result in db.batch_rknn(specs)] == scalar
    outcome = db.engine(cache_entries=0).run_batch(specs)
    assert [result.points for result in outcome.results] == scalar


@pytest.mark.parametrize("name", sorted(FACADES))
def test_non_integer_query_nodes_raise_query_error(name, network):
    db = build(name, network)
    calls = {
        "rknn(2.0)": lambda: db.rknn(2.0),
        "rknn('2')": lambda: db.rknn("2"),
        "knn(2.0)": lambda: db.knn(2.0),
        "range_nn(2.0)": lambda: db.range_nn(2.0, 1, 5.0),
    }
    if not name.startswith("directed"):
        calls["continuous_rknn([2, '3'])"] = (
            lambda: db.continuous_rknn([2, "3"])
        )
    for label, call in calls.items():
        with pytest.raises(QueryError):
            call()
        assert db.generation == 0, label


def test_unrestricted_disk_keeps_edge_location_queries(network):
    graph, _, _ = network
    u, v, weight = next(iter(graph.edges()))
    u, v = min(u, v), max(u, v)
    db = GraphDatabase(graph, EdgePointSet({0: (u, v, weight / 2)}))
    assert db.rknn((u, v, weight / 4)).points == (0,)
    assert db.knn((u, v, 0.0)).neighbors == ((0, weight / 2),)
    for bad in ("2", (u, v), (u, v, "x"), 2.0):
        with pytest.raises(QueryError):
            db.rknn(bad)
