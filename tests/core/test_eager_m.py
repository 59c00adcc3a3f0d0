"""Unit tests for eager-M (materialized K-NN lists)."""

import random

import pytest

from repro import GraphDatabase, NodePointSet, QueryError
from repro.core.baseline import brute_force_rknn
from repro.core.eager import eager_rknn
from repro.core.eager import eager_m_rknn
from tests.conftest import build_random_graph


@pytest.fixture
def mat_db(p2p_graph, p2p_points):
    db = GraphDatabase(p2p_graph, p2p_points)
    db.materialize(3)
    return db


class TestEagerMBasics:
    def test_running_example(self, mat_db):
        assert eager_m_rknn(mat_db.view, mat_db.materialized, 2, 1) == [1, 2, 3]

    def test_empty_result(self, mat_db):
        assert eager_m_rknn(mat_db.view, mat_db.materialized, 4, 1) == []

    def test_k2(self, mat_db):
        assert eager_m_rknn(mat_db.view, mat_db.materialized, 4, 2) == [1]

    def test_k_beyond_capacity_rejected(self, mat_db):
        with pytest.raises(QueryError):
            eager_m_rknn(mat_db.view, mat_db.materialized, 4, 9)

    def test_agrees_with_eager_everywhere(self, mat_db):
        for query in range(mat_db.graph.num_nodes):
            for k in (1, 2):
                assert eager_m_rknn(
                    mat_db.view, mat_db.materialized, query, k
                ) == eager_rknn(mat_db.view, query, k)

    def test_exclusion_with_spare_capacity(self, path_graph):
        # K = k + 1 leaves room for the excluded point in the lists
        db = GraphDatabase(path_graph, NodePointSet({10: 2, 11: 4}))
        db.materialize(2)
        assert eager_m_rknn(db.view, db.materialized, 2, 1, exclude={10}) == [11]


class TestEagerMShortcut:
    def test_avoids_verification_expansions(self, p2p_graph, p2p_points):
        plain = GraphDatabase(p2p_graph, p2p_points)
        eager_rknn(plain.view, 2, 1)
        plain_visited = plain.tracker.nodes_visited

        mat = GraphDatabase(p2p_graph, p2p_points)
        mat.materialize(2)
        mat.reset_stats()
        eager_m_rknn(mat.view, mat.materialized, 2, 1)
        assert mat.tracker.nodes_visited < plain_visited

    def test_reads_knn_pages(self, mat_db):
        mat_db.reset_stats()
        mat_db.clear_buffer()
        eager_m_rknn(mat_db.view, mat_db.materialized, 4, 1)
        assert mat_db.tracker.page_reads > 0


class TestEagerMRandomized:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed + 3000)
        graph = build_random_graph(rng, rng.randint(5, 28), rng.randint(0, 22))
        count = rng.randint(1, graph.num_nodes // 2)
        nodes = rng.sample(range(graph.num_nodes), count)
        points = NodePointSet({100 + i: node for i, node in enumerate(nodes)})
        db = GraphDatabase(graph, points)
        k = rng.randint(1, 3)
        db.materialize(k + 1)
        query = rng.randrange(graph.num_nodes)
        exclude = frozenset()
        coincident = points.point_at(query)
        if coincident is not None and rng.random() < 0.5:
            exclude = frozenset({coincident})
        got = eager_m_rknn(db.view, db.materialized, query, k, exclude)
        assert got == brute_force_rknn(graph, points, query, k, exclude)
