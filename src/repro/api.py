"""Public facade: :class:`GraphDatabase`.

A :class:`GraphDatabase` owns the full storage stack of the paper's
architecture -- disk-paged adjacency lists, the (optional) edge-point
file, the shared LRU buffer, optional materialized K-NN lists -- and
exposes the query algorithms behind a small, cost-accounted API::

    from repro import GraphDatabase, NodePointSet

    db = GraphDatabase.from_edges(edges, points=NodePointSet({0: 5, 1: 9}))
    result = db.rknn(query=7, k=2, method="eager")
    print(result.points, result.io, result.cpu_seconds)

Every query method returns a result object carrying the exact counter
diff for that call, which is what the benchmark harness aggregates into
the paper's tables and figures.  The query surface itself is
:class:`~repro.facade.UndirectedFacade`; this module holds the disk
storage under it.
"""

from __future__ import annotations

import copy
from typing import AbstractSet, Sequence

from repro.core import baseline
from repro.core.in_route import RouteStop, in_route_knn
from repro.core.result import KnnResult
from repro.errors import QueryError
from repro.facade import _EMPTY, METHODS, Location, UndirectedFacade
from repro.graph.graph import Graph
from repro.graph.partition import bfs_order, hilbert_order
from repro.points.points import EdgePointSet, NodePointSet, PointSet
from repro.storage.buffer import BufferManager, rebuffered
from repro.storage.disk import DiskGraph, EdgePointStore
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker

__all__ = ["DEFAULT_BUFFER_PAGES", "GraphDatabase", "Location", "METHODS"]

#: Default LRU buffer of the paper's evaluation: 1 MB = 256 pages of 4 KB.
DEFAULT_BUFFER_PAGES = 256


class GraphDatabase(UndirectedFacade):
    """Disk-based graph database answering (reverse) NN queries.

    Parameters
    ----------
    graph:
        The network.  It is paged out to the simulated disk at
        construction; queries only touch the disk representation.
    points:
        The data set P: a :class:`NodePointSet` (restricted network) or
        an :class:`EdgePointSet` (unrestricted network).  ``None``
        creates an empty restricted network.
    page_size / buffer_pages:
        Storage parameters; defaults match the paper (4 KB pages,
        256-page LRU buffer).
    node_order:
        Page-packing order.  ``"bfs"`` (default) packs topologically,
        ``"hilbert"`` packs spatially (requires coordinates).
    """

    def __init__(
        self,
        graph: Graph,
        points: PointSet | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        node_order: str = "bfs",
    ):
        if points is None:
            points = NodePointSet({})
        points.validate(graph)
        self._init_state(graph, points)
        self.page_size = page_size
        self.buffer = BufferManager(buffer_pages, self.tracker)
        if node_order == "bfs":
            self._order = bfs_order(graph)
        elif node_order == "hilbert":
            self._order = hilbert_order(graph)
        else:
            raise QueryError(f"unknown node_order {node_order!r}")
        point_nodes = frozenset(
            node for _, node in points.items()
        ) if isinstance(points, NodePointSet) else frozenset()
        self.disk = DiskGraph(
            graph,
            self.buffer,
            page_size=page_size,
            order=self._order,
            point_nodes=point_nodes,
        )
        if isinstance(points, EdgePointSet):
            self._edge_store = self._edge_points(points)
        self._rebuild_view()

    # -- storage ------------------------------------------------------------

    def _paging(self):
        return self.buffer, self._order

    def _edge_points(self, points: EdgePointSet) -> EdgePointStore:
        """Page an unrestricted point set into its own point file."""
        return EdgePointStore(
            self.graph, points, self.buffer,
            page_size=self.page_size, order=self._order,
        )

    def read_clone(self) -> "GraphDatabase":
        """A read-only session sharing this database's disk images.

        The clone references the same serialized pages (and the same
        in-memory graph and point sets) but owns a private buffer and
        cost tracker, so concurrent read-only queries on different
        clones never race on LRU state or counters.  The clone starts
        cold; its tracker starts at zero.

        Clones are for *reading*: running updates through a clone is
        unsupported (the mutated pages would be shared with the parent
        while the point indexes diverged).
        """
        clone = copy.copy(self)
        clone.tracker = CostTracker()
        clone.buffer = BufferManager(self.buffer.capacity_pages, clone.tracker)
        clone.disk = rebuffered(self.disk, clone.buffer)
        clone._edge_store = rebuffered(self._edge_store, clone.buffer)
        clone._ref_edge_store = rebuffered(self._ref_edge_store, clone.buffer)
        clone._rebuffer_lists(clone.buffer)
        clone._rebind_views()
        return clone

    def clear_buffer(self) -> None:
        """Drop every buffered page (cold-start the next query)."""
        self.buffer.clear()

    # -- disk-only queries ----------------------------------------------------

    def in_route_knn(
        self,
        route: Sequence[int],
        k: int = 1,
        exclude: AbstractSet[int] = _EMPTY,
    ) -> tuple[list[RouteStop], KnnResult]:
        """The k nearest points of *every* node on a route ([16]).

        Unlike :meth:`continuous_rknn` (the union of reverse results),
        this is the forward in-route NN query: each route node gets its
        own kNN list.  Restricted networks only.  Returns the per-node
        lists plus an aggregate cost record.
        """
        if not self.restricted:
            raise QueryError("in-route queries require a restricted network")
        stops, diff = self._measure(
            lambda: in_route_knn(self.view, route, k, exclude)
        )
        cost = KnnResult((), diff.io_operations, diff.cpu_seconds, diff)
        return stops, cost

    def network_distance(self, loc1: Location, loc2: Location) -> float:
        """Exact network distance between two locations (uncharged;
        computed on the in-memory graph, intended for examples/tests)."""
        return baseline.location_distance(self.graph, loc1, loc2)
