"""Unit surface of the vectorized batch RkNN kernel.

The randomized differential layers live in ``tests/conformance`` and
``tests/compact/test_batch_kernel_properties.py``; this module pins
the deterministic surface: validation parity with the scalar facade,
the numpy-free scalar fallback, oracle-filtered batches, the engine's
dispatch rules, and the zero-copy view plumbing (CSR ``flat()``
views, oracle label matrix) the kernel rides on.
"""

import random

import pytest

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    NodePointSet,
    QuerySpec,
)
from repro.compact.batch import numpy_available
from repro.datasets.grid import generate_grid
from repro.datasets.workload import place_node_points
from repro.engine.planner import kernel_batch_kinds
from repro.errors import QueryError
from repro.graph.digraph import DiGraph


@pytest.fixture(scope="module")
def undirected():
    graph = generate_grid(100, average_degree=4.0, seed=3)
    points = place_node_points(graph, 0.1, seed=4)
    return graph, points


@pytest.fixture(scope="module")
def directed():
    rng = random.Random(11)
    arcs = [(i, (i + 1) % 30, float(rng.randint(1, 9))) for i in range(30)]
    arcs += [(rng.randrange(30), rng.randrange(30), float(rng.randint(1, 9)))
             for _ in range(60)]
    arcs = list({(u, v): (u, v, w) for u, v, w in arcs if u != v}.values())
    graph = DiGraph.from_arcs(arcs, num_nodes=30)
    points = NodePointSet({pid: node for pid, node in
                           enumerate(rng.sample(range(30), 6))})
    return graph, points


def _specs(queries, k=2, method="eager"):
    return [QuerySpec("rknn", query=q, k=k, method=method) for q in queries]


def _points_of(results):
    return [result.points for result in results]


def test_batch_matches_scalar_with_oracle(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    db.build_oracle(4, seed=0)
    specs = _specs((3, 17, 42, 66, 91)) + [
        QuerySpec("rknn", query=25, k=1, method="lazy",
                  exclude=frozenset({0})),
    ]
    scalar = [db.rknn(s.query, s.k, method=s.method, exclude=s.exclude).points
              for s in specs]
    assert _points_of(db.batch_rknn(specs)) == scalar


def test_batch_serves_continuous_specs(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    route = [0]
    for _ in range(3):
        route.append(graph.neighbors(route[-1])[0][0])
    specs = _specs((3, 17)) + [
        QuerySpec("continuous", route=tuple(route), k=1, method="eager"),
    ]
    expected = [
        db.rknn(3, 2).points,
        db.rknn(17, 2).points,
        db.continuous_rknn(route, 1).points,
    ]
    assert _points_of(db.batch_rknn(specs)) == expected


def test_empty_batch_returns_empty_tuple(undirected):
    graph, points = undirected
    assert CompactDatabase(graph, points).batch_rknn([]) == ()


def test_empty_point_set_yields_empty_answers(undirected):
    graph, _ = undirected
    db = CompactDatabase(graph, NodePointSet({}))
    results = db.batch_rknn(_specs((3, 17)))
    assert _points_of(results) == [(), ()]


def test_unsupported_kind_rejected(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="serves kinds"):
        db.batch_rknn([QuerySpec("knn", query=3, k=1)])


def test_unknown_method_rejected(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="unknown method"):
        db.batch_rknn([QuerySpec("rknn", query=3, k=1, method="bogus")])


def test_out_of_range_query_rejected(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="out of range"):
        db.batch_rknn(_specs((3, 4000)))


def test_eager_m_requires_materialization(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    with pytest.raises(QueryError, match="materialize"):
        db.batch_rknn(_specs((3, 17), method="eager-m"))


def test_eager_m_capacity_enforced(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    db.materialize(2)
    with pytest.raises(QueryError, match="materialized capacity"):
        db.batch_rknn(_specs((3, 17), k=3, method="eager-m"))


def test_scalar_fallback_without_numpy(undirected, monkeypatch):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    specs = _specs((3, 17, 42))
    vectorized = _points_of(db.batch_rknn(specs))
    monkeypatch.setattr("repro.compact.db.numpy_available", lambda: False)
    fallback = db.batch_rknn(specs)
    assert _points_of(fallback) == vectorized
    assert all(result.io == 0 for result in fallback)


def test_directed_batch_matches_scalar(directed):
    graph, points = directed
    db = CompactDirectedDatabase(graph, points)
    db.materialize(2)
    specs = []
    for query in (0, 7, 19, 23):
        for method in ("eager", "eager-m", "naive"):
            specs.append(QuerySpec("rknn", query=query, k=2, method=method))
    scalar = [db.rknn(s.query, s.k, method=s.method).points for s in specs]
    assert _points_of(db.batch_rknn(specs)) == scalar


def test_directed_validation_and_fallback(directed, monkeypatch):
    graph, points = directed
    db = CompactDirectedDatabase(graph, points)
    with pytest.raises(QueryError, match="serves kinds"):
        db.batch_rknn([QuerySpec("knn", query=0, k=1)])
    db.materialize(1)
    with pytest.raises(QueryError, match="materialized capacity"):
        db.batch_rknn(_specs((0, 7), k=2, method="eager-m"))
    assert db.batch_rknn([]) == ()

    specs = _specs((0, 7, 19))
    vectorized = _points_of(db.batch_rknn(specs))
    monkeypatch.setattr("repro.compact.db.numpy_available", lambda: False)
    assert _points_of(db.batch_rknn(specs)) == vectorized


def test_engine_dispatch_rules(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    specs = _specs((3, 17, 42, 66))

    baseline = [db.rknn(s.query, s.k, method=s.method).points for s in specs]
    for batch_kernel in (True, False):
        engine = db.engine(batch_kernel=batch_kernel, cache_entries=0)
        outcome = engine.run_batch(specs)
        assert _points_of(outcome.results) == baseline

    # a single batchable spec takes the scalar path (no kernel overhead)
    solo = db.engine(cache_entries=0).run_batch(specs[:1])
    assert _points_of(solo.results) == baseline[:1]


@pytest.mark.parametrize("landmarks", [2, 3, 4])
def test_oracle_degraded_by_edge_deletion_keeps_batch_answers(landmarks):
    """After delete_edge + compact the oracle survives lower-only; its
    stale labels must not feed the kernel's upper-bound row filter."""
    path = [(i, i + 1, 1.0) for i in range(10)]
    points = {1: 0, 2: 10}
    db = CompactDatabase.from_edges(path + [(0, 10, 1.0)],
                                    NodePointSet(points))
    db.build_oracle(landmarks)
    db.delete_edge(0, 10)
    db.compact()
    specs = _specs((3, 7), k=1)
    rebuilt = CompactDatabase.from_edges(path, NodePointSet(points))
    expected = [rebuilt.rknn(s.query, s.k).points for s in specs]
    assert expected == [(1, 2), (1, 2)]
    assert _points_of(db.batch_rknn(specs)) == expected
    assert _points_of(db.engine().run_batch(specs).results) == expected
    assert [db.rknn(s.query, s.k).points for s in specs] == expected


def test_kernel_batch_kinds_advertisement(undirected):
    graph, points = undirected
    from repro import GraphDatabase

    compact = CompactDatabase(graph, points)
    assert kernel_batch_kinds(compact) == ("rknn", "continuous",
                                           "aggregate_nn")
    assert kernel_batch_kinds(GraphDatabase(graph, points)) == ()

    directed_graph = DiGraph.from_arcs([(0, 1, 1.0), (1, 0, 2.0)],
                                       num_nodes=2)
    directed_db = CompactDirectedDatabase(directed_graph, NodePointSet({}))
    assert kernel_batch_kinds(directed_db) == ("rknn", "aggregate_nn")


def test_csr_flat_views_are_memoized(undirected, directed):
    graph, points = undirected
    csr = CompactDatabase(graph, points).store.csr
    assert csr.flat() is csr.flat()
    offsets, targets, weights = csr.flat()
    assert len(offsets) == graph.num_nodes + 1
    assert len(targets) == len(weights) == int(offsets[-1])

    dgraph, dpoints = directed
    dcsr = CompactDirectedDatabase(dgraph, dpoints).store.csr
    assert dcsr.out_flat() is dcsr.out_flat()
    assert dcsr.in_flat() is dcsr.in_flat()
    out_offsets, _, _ = dcsr.out_flat()
    in_offsets, _, _ = dcsr.in_flat()
    assert int(out_offsets[-1]) == int(in_offsets[-1]) == dgraph.num_arcs


def test_oracle_labels_matrix_view(undirected):
    graph, points = undirected
    db = CompactDatabase(graph, points)
    db.build_oracle(4, seed=0)
    matrix = db.oracle.labels_matrix()
    assert matrix is db.oracle.labels_matrix()
    assert matrix.shape == (graph.num_nodes, db.oracle.num_landmarks)
    assert not matrix.flags.writeable
    assert tuple(matrix[5]) == db.oracle.label(5)


def test_numpy_reported_available():
    assert numpy_available()
