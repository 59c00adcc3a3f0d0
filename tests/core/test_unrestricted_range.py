"""Range-NN at edge locations on unrestricted networks.

``range_nn`` and the engine's ``range`` probe (which also restricts
``rknn`` and ``bichromatic`` answers ``within`` a distance) take an edge
location as ``knn`` does: the answer is ``knn`` over every point, cut
to distances strictly below the radius and to ``k`` points.  Offsets
are multiples of 0.5 on integer weights, so every distance is exact.
"""

import random

import pytest

from repro import EdgePointSet, GraphDatabase, QuerySpec
from tests.conftest import build_random_graph


def _edge_locations(rng, graph):
    """A function drawing random edge locations of ``graph``."""
    edges = sorted(graph.edges())

    def draw():
        u, v, weight = rng.choice(edges)
        return (u, v, rng.randint(0, int(2 * weight)) / 2)

    return draw


@pytest.mark.parametrize("seed", range(20))
def test_range_at_edge_locations_is_cut_knn(seed):
    rng = random.Random(seed)
    graph = build_random_graph(rng, rng.randint(10, 20), 8, int_weights=True)
    draw = _edge_locations(rng, graph)
    db = GraphDatabase(graph, EdgePointSet(
        {pid: draw() for pid in range(rng.randint(4, 9))}))
    db.attach_reference(EdgePointSet(
        {100 + i: draw() for i in range(rng.randint(2, 4))}))
    engine = db.engine()
    for _ in range(5):
        loc = draw()
        k = rng.randint(1, 4)
        radius = float(rng.randint(1, 12))
        ranked = db.knn(loc, len(db.points)).neighbors
        want = tuple((pid, dist) for pid, dist in ranked if dist < radius)[:k]
        close = {pid for pid, dist in ranked if dist < radius}
        assert db.range_nn(loc, k, radius).neighbors == want
        specs = [
            QuerySpec("range", query=loc, k=k, radius=radius),
            QuerySpec("rknn", query=loc, k=k, within=radius),
            QuerySpec("bichromatic", query=loc, k=k, within=radius),
        ]
        probe, rknn, bichromatic = engine.run_batch(specs).results
        assert probe.neighbors == want
        assert rknn.points == tuple(
            pid for pid in db.rknn(loc, k).points if pid in close)
        assert bichromatic.points == tuple(
            pid for pid in db.bichromatic_rknn(loc, k).points if pid in close)
