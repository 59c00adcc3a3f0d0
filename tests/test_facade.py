"""Rules every facade shares, checked over all six databases.

The disk, sharded and compact databases (undirected and directed)
inherit their constructors' point rules, their query and update
methods and their clones from :mod:`repro.facade`, so one rule holds
for all six: a point on a node outside the graph is refused with
:class:`~repro.errors.PointError` (at construction, or before anything
is written), edge-resident points are a
:class:`~repro.errors.QueryError` wherever the storage pages no
edge-point file, and so is a query location that is not a node id.  A
clone answers from the state at clone time, and ``clear_buffer()``
cold-starts every query alike.
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


def make_network(rng, num_nodes=NUM_NODES):
    """A random graph and the digraph of its edges in both directions,
    one unit longer backward."""
    graph = build_random_graph(rng, num_nodes, num_nodes // 2)
    arcs = [arc for u, v, w in graph.edges() for arc in ((u, v, w), (v, u, w + 1))]
    return graph, DiGraph.from_arcs(arcs, num_nodes=num_nodes)


@pytest.fixture(scope="module")
def network():
    return (*make_network(random.Random(7)), NodePointSet({0: 1, 1: 5, 2: 9, 3: 14}))


def build(name, network):
    return FACADES[name](*network)


@pytest.mark.parametrize("node", [NUM_NODES + 5, -1])
@pytest.mark.parametrize("name", sorted(FACADES))
def test_constructor_rejects_unknown_node(name, node, network):
    graph, digraph, _ = network
    with pytest.raises(PointError, match=f"point 1 lies on unknown node {node}"):
        FACADES[name](graph, digraph, NodePointSet({0: 3, 1: node}))


@pytest.mark.parametrize("name", sorted(set(FACADES) - {"disk"}))
def test_restricted_facades_reject_edge_points(name, network):
    graph, digraph, _ = network
    u, v, weight = next(iter(graph.edges()))
    points = EdgePointSet({0: (min(u, v), max(u, v), weight / 2)})
    with pytest.raises(QueryError, match="restricted"):
        FACADES[name](graph, digraph, points)


@pytest.mark.parametrize("name", sorted(FACADES))
def test_clone_answers_from_state_at_clone_time(name):
    for seed in range(6):
        rng = random.Random(seed)
        graph, digraph = make_network(rng)
        nodes = rng.sample(range(NUM_NODES), 8)
        db = FACADES[name](graph, digraph, NodePointSet(dict(enumerate(nodes[:6]))))
        db.materialize(4)
        clone = db.read_clone()
        queries = range(0, NUM_NODES, 3)
        before = [clone.rknn(q, 2, "eager-m").points for q in queries]
        db.insert_point(100, nodes[6])
        db.insert_point(101, nodes[7])
        clone.clear_buffer()
        assert [clone.rknn(q, 2, "eager-m").points for q in queries] == before


def test_unrestricted_clone_keeps_its_edge_point_file(network):
    graph, _, _ = network
    (a, b, wa), (c, d, wc) = [(min(u, v), max(u, v), w)
                              for u, v, w in list(graph.edges())[:2]]
    db = GraphDatabase(graph, EdgePointSet({0: (a, b, wa / 2)}))
    clone = db.read_clone()
    before = [clone.knn(node, 2).neighbors for node in (a, c)]
    db.insert_point(1, (c, d, wc / 2))
    db.delete_point(0)
    clone.clear_buffer()
    assert [clone.knn(node, 2).neighbors for node in (a, c)] == before


@pytest.mark.parametrize("name", ["disk", "sharded"])
def test_clone_reads_its_label_file_through_its_own_buffer(name, network):
    db = build(name, network)
    db.build_oracle(2)
    clone = db.read_clone()
    before = db.tracker.snapshot()
    clone.oracle_store.get(0)
    assert clone.tracker.page_reads == 1
    assert db.tracker.diff(before).page_reads == 0


@pytest.mark.parametrize("name", sorted(FACADES))
def test_cold_runs_charge_equal_page_reads(name):
    graph, digraph = make_network(random.Random(3), num_nodes=200)
    nodes = random.Random(4).sample(range(200), 20)
    db = FACADES[name](graph, digraph, NodePointSet(dict(enumerate(nodes))))
    db.materialize(4)
    reads = []
    for _ in range(3):
        db.clear_buffer()
        reads.append(db.rknn(nodes[0], 2, "eager-m").counters.page_reads)
    assert reads == [reads[0]] * 3


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
