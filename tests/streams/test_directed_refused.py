"""Standing queries refuse directed databases before writing anything.

A monitor's distance fields hold ``d(q, n)`` and its membership rule
reads them as ``d(n, q)``; on a directed network the two differ, so
both monitors raise :class:`~repro.errors.QueryError` up front instead
of materializing K-NN lists nobody could read.
"""

import pytest

from repro import DiGraph, DirectedGraphDatabase, NodePointSet, QueryError
from repro.serve import ServeClient, serve_in_thread
from repro.streams.monitor import BichromaticRnnMonitor, RnnMonitor


@pytest.fixture
def directed_db():
    """Four nodes on a one-way ring with two points."""
    ring = DiGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    return DirectedGraphDatabase(ring, NodePointSet({10: 1, 11: 3}))


@pytest.mark.parametrize("monitor", [RnnMonitor, BichromaticRnnMonitor])
def test_monitor_refuses_directed_database(directed_db, monitor):
    with pytest.raises(QueryError, match="undirected networks"):
        monitor(directed_db, {0: 0, 1: 2}, k=1)
    assert directed_db.materialized is None
    assert directed_db.generation == 0


def test_subscribe_to_directed_server_names_the_limitation(directed_db):
    with serve_in_thread(directed_db) as handle:
        with ServeClient(handle.host, handle.port) as client:
            ack = client.subscribe({0: 0}, k=1)
            answer = client.rknn(2, k=1)
    assert ack["status"] == "error"
    assert "undirected networks" in ack["error"]
    assert "d(q, n) = d(n, q)" in ack["error"]
    assert answer["status"] == "ok"
    assert directed_db.materialized is None
