"""Standing queries refuse a network that an edge write has changed.

A monitor's distance fields (and :class:`RnnMonitor`'s K-NN radii)
describe the network at registration.  An edge write on a compact
database replaces its adjacency store, so from then on both monitors
raise :class:`~repro.errors.QueryError` from ``insert``, ``delete`` and
``refresh`` before writing anything.  Point writes and a point-only
``compact()`` keep the store, and the monitors keep serving.
"""

import pytest

from repro import CompactDatabase, Graph, NodePointSet, QueryError
from repro.streams.monitor import BichromaticRnnMonitor, RnnMonitor


@pytest.mark.parametrize("monitor_class", [RnnMonitor, BichromaticRnnMonitor])
def test_monitor_refuses_network_changed_by_edge_write(monitor_class):
    ring = Graph(6, [(i, (i + 1) % 6, 1.0 + i) for i in range(6)])
    db = CompactDatabase(ring, NodePointSet({10: 1, 11: 4}))
    monitor = monitor_class(db, {0: 0, 1: 3}, k=1)
    store = db.disk
    monitor.insert(12, 2)
    db.insert_point(13, 5)
    monitor.refresh()
    assert db.compact().affected_nodes == 2
    assert db.disk is store
    monitor.delete(13)

    db.insert_edge(0, 3, 0.5)
    points, stamp = db.points, db.stamp
    calls = {
        "refresh": monitor.refresh,
        "insert": lambda: monitor.insert(14, 5),
        "delete": lambda: monitor.delete(12),
    }
    for label, call in calls.items():
        with pytest.raises(QueryError, match="edge write"):
            call()
        assert db.points is points, label
        assert db.stamp == stamp, label
