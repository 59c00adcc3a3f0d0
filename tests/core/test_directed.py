"""Tests for the directed-network extension (paper Section 7)."""

import random

import pytest

from repro import DiGraph, DirectedGraphDatabase, NodePointSet, QueryError
from repro.core.directed import brute_force_directed_rknn
from repro.core.nn import range_nn, verify
from repro.graph.graph import Graph

METHODS = ("eager", "eager-m", "naive")


def random_digraph(rng, num_nodes, extra_arcs):
    """A digraph with a directed cycle backbone (keeps it strongly
    connected) plus random extra arcs."""
    arcs = {}
    for node in range(num_nodes):
        arcs[(node, (node + 1) % num_nodes)] = float(rng.randint(1, 9))
    for _ in range(extra_arcs):
        u, v = rng.sample(range(num_nodes), 2)
        if (u, v) not in arcs:
            arcs[(u, v)] = float(rng.randint(1, 9))
    return DiGraph(num_nodes, [(u, v, w) for (u, v), w in arcs.items()])


@pytest.fixture
def one_way_ring():
    """Four nodes on a one-way ring: 0 -> 1 -> 2 -> 3 -> 0 (weight 1)."""
    return DiGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])


class TestDiGraph:
    def test_basic_accessors(self, one_way_ring):
        g = one_way_ring
        assert g.num_nodes == 4
        assert g.num_arcs == 4
        assert g.out_neighbors(0) == [(1, 1.0)]
        assert g.in_neighbors(0) == [(3, 1.0)]
        assert g.weight(0, 1) == 1.0
        assert not g.has_arc(1, 0)

    def test_asymmetric_rejects_duplicate_not_reverse(self):
        DiGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])  # both directions fine
        with pytest.raises(Exception):
            DiGraph(2, [(0, 1, 1.0), (0, 1, 2.0)])

    def test_from_undirected(self, path_graph):
        g = DiGraph.from_undirected(path_graph)
        assert g.num_arcs == 2 * path_graph.num_edges
        assert g.weight(0, 1) == g.weight(1, 0)

    def test_reverse(self, one_way_ring):
        rev = one_way_ring.reverse()
        assert rev.has_arc(1, 0)
        assert not rev.has_arc(0, 1)

    def test_strong_connectivity(self, one_way_ring):
        assert one_way_ring.is_strongly_connected()
        dag = DiGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert not dag.is_strongly_connected()

    def test_reachable_from(self):
        dag = DiGraph(4, [(0, 1, 1.0), (1, 2, 1.0)])
        assert dag.reachable_from(0) == {0, 1, 2}
        assert dag.reachable_from(3) == {3}


class TestDirectedPrimitives:
    @pytest.fixture
    def db(self, one_way_ring):
        return DirectedGraphDatabase(one_way_ring, NodePointSet({10: 1, 11: 3}))

    def test_forward_knn_follows_arc_direction(self, db):
        # from node 0: point 10 (node 1) at 1, point 11 (node 3) at 3
        assert db.knn(0, 2).neighbors == ((10, 1.0), (11, 3.0))
        # from node 2: point 11 at 1, point 10 at 3 (around the ring)
        assert db.knn(2, 2).neighbors == ((11, 1.0), (10, 3.0))

    def test_range_nn_strict(self, db):
        assert range_nn(db.view, 0, 2, 1.0) == []
        assert range_nn(db.view, 0, 2, 1.5) == [(10, 1.0)]

    def test_verify_uses_forward_distance(self, db):
        # point 10 at node 1; query at node 2: d(10 -> 2) = 1 while the
        # other point is at d(10 -> 3) = 2: the query wins
        assert verify(db.view, 10, 1, (2,), bound=1.0)
        # query at node 0: d(10 -> 0) = 3 > d(10 -> 3) = 2: it loses
        assert not verify(db.view, 10, 1, (0,), bound=3.0)


class TestDirectedRknn:
    def test_one_way_asymmetry(self, one_way_ring):
        db = DirectedGraphDatabase(one_way_ring, NodePointSet({10: 1, 11: 3}))
        # query at node 2: 10 reaches it in 1 (vs 2 to the other point),
        # 11 needs 3 (vs 2 to reach 10): only 10 qualifies
        want = brute_force_directed_rknn(db.graph, db.points, 2, 1)
        assert want == [10]
        db.materialize(2)
        for method in METHODS:
            assert list(db.rknn(2, 1, method=method).points) == want

    def test_direction_matters(self):
        # undirected reading of the same network gives a different answer
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]
        directed = DirectedGraphDatabase(
            DiGraph(4, arcs), NodePointSet({10: 1, 11: 3})
        )
        undirected = Graph(4, arcs)
        from repro import GraphDatabase
        from repro.core.baseline import brute_force_rknn

        undirected_db = GraphDatabase(undirected, NodePointSet({10: 1, 11: 3}))
        d_result = list(directed.rknn(2, 1).points)
        u_result = list(undirected_db.rknn(2, 1).points)
        assert d_result == [10]
        assert u_result == brute_force_rknn(undirected, undirected_db.points, 2, 1)
        assert d_result != u_result

    def test_unreachable_points_never_qualify(self):
        dag = DiGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        db = DirectedGraphDatabase(dag, NodePointSet({10: 2}))
        # point 10 at the sink cannot reach node 0
        assert db.rknn(0, 1).points == ()
        # but the query at the sink is reachable from the point upstream
        db2 = DirectedGraphDatabase(dag, NodePointSet({10: 0}))
        assert db2.rknn(2, 1).points == (10,)

    def test_k2(self, one_way_ring):
        db = DirectedGraphDatabase(one_way_ring, NodePointSet({10: 1, 11: 3}))
        db.materialize(3)
        want = brute_force_directed_rknn(db.graph, db.points, 2, 2)
        for method in METHODS:
            assert list(db.rknn(2, 2, method=method).points) == want

    def test_validation(self, one_way_ring):
        db = DirectedGraphDatabase(one_way_ring, NodePointSet({10: 1}))
        with pytest.raises(QueryError):
            db.rknn(0, 1, method="lazy")  # not available on digraphs
        with pytest.raises(QueryError):
            db.rknn(0, 0)
        with pytest.raises(QueryError):
            db.rknn(99, 1)
        with pytest.raises(QueryError):
            db.rknn(0, 1, method="eager-m")  # not materialized

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle_randomized(self, seed):
        rng = random.Random(seed)
        graph = random_digraph(rng, rng.randint(4, 20), rng.randint(0, 25))
        count = rng.randint(1, graph.num_nodes // 2)
        nodes = rng.sample(range(graph.num_nodes), count)
        points = NodePointSet({100 + i: node for i, node in enumerate(nodes)})
        db = DirectedGraphDatabase(graph, points)
        k = rng.randint(1, 3)
        db.materialize(k + 1)
        query = rng.randrange(graph.num_nodes)
        exclude = frozenset()
        coincident = points.point_at(query)
        if coincident is not None and rng.random() < 0.5:
            exclude = frozenset({coincident})
        want = brute_force_directed_rknn(graph, points, query, k, exclude)
        for method in METHODS:
            got = list(db.rknn(query, k, method=method, exclude=exclude).points)
            assert got == want, (seed, method)

    def test_eager_prunes_vs_naive(self):
        rng = random.Random(99)
        graph = random_digraph(rng, 300, 900)
        nodes = rng.sample(range(300), 30)
        points = NodePointSet({100 + i: node for i, node in enumerate(nodes)})
        db = DirectedGraphDatabase(graph, points)
        db.reset_stats()
        db.rknn(0, 1, method="eager")
        eager_visited = db.tracker.nodes_visited
        db.reset_stats()
        db.rknn(0, 1, method="naive")
        naive_visited = db.tracker.nodes_visited
        # naive sweeps the whole backward-reachable set; eager prunes
        assert naive_visited >= 300


class TestDirectedMaterializationMaintenance:
    def reference_lists(self, graph, points, capacity):
        import heapq

        lists = {}
        # forward distances from every node via per-point backward search
        per_point = {}
        for pid, node in points.items():
            dists = {}
            heap = [(0.0, node)]
            while heap:
                dist, current = heapq.heappop(heap)
                if current in dists:
                    continue
                dists[current] = dist
                for nbr, weight in graph.in_neighbors(current):
                    if nbr not in dists:
                        heapq.heappush(heap, (dist + weight, nbr))
            per_point[pid] = dists
        for node in graph.nodes():
            ranked = sorted(
                (dists[node], pid)
                for pid, dists in per_point.items()
                if node in dists
            )
            lists[node] = [(pid, dist) for dist, pid in ranked[:capacity]]
        return lists

    def assert_equivalent(self, db, want):
        for node in db.graph.nodes():
            got = [d for _, d in db.materialized.get(node)]
            expected = [d for _, d in want[node]]
            assert got == pytest.approx(expected), node

    def test_all_nn_matches_reference(self):
        rng = random.Random(5)
        graph = random_digraph(rng, 15, 20)
        points = NodePointSet({100: 0, 101: 7, 102: 11})
        db = DirectedGraphDatabase(graph, points)
        db.materialize(2)
        self.assert_equivalent(db, self.reference_lists(graph, points, 2))

    @pytest.mark.parametrize("seed", range(8))
    def test_insert_equals_rebuild(self, seed):
        rng = random.Random(seed + 50)
        graph = random_digraph(rng, rng.randint(6, 16), rng.randint(0, 20))
        nodes = rng.sample(range(graph.num_nodes), 3)
        points = NodePointSet({100: nodes[0], 101: nodes[1]})
        db = DirectedGraphDatabase(graph, points)
        db.materialize(2)
        db.insert_point(102, nodes[2])
        want = self.reference_lists(
            graph, NodePointSet({100: nodes[0], 101: nodes[1], 102: nodes[2]}), 2
        )
        self.assert_equivalent(db, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_delete_equals_rebuild(self, seed):
        rng = random.Random(seed + 90)
        graph = random_digraph(rng, rng.randint(6, 16), rng.randint(0, 20))
        count = rng.randint(2, graph.num_nodes // 2)
        nodes = rng.sample(range(graph.num_nodes), count)
        points = NodePointSet({100 + i: node for i, node in enumerate(nodes)})
        db = DirectedGraphDatabase(graph, points)
        db.materialize(2)
        victim = 100 + rng.randrange(count)
        db.delete_point(victim)
        want = self.reference_lists(graph, points.without_point(victim), 2)
        self.assert_equivalent(db, want)
