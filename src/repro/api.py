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

from typing import AbstractSet, Sequence

from repro.core import baseline
from repro.core.in_route import RouteStop, in_route_knn
from repro.core.result import KnnResult
from repro.errors import QueryError
from repro.facade import _EMPTY, METHODS, Location, UndirectedFacade
from repro.graph.graph import Graph
from repro.graph.partition import packing_order
from repro.points.points import EdgePointSet, PointSet
from repro.storage.buffer import DEFAULT_BUFFER_PAGES, BufferManager, rebuffered
from repro.storage.disk import DiskGraph, EdgePointStore
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["DEFAULT_BUFFER_PAGES", "GraphDatabase", "Location", "METHODS"]


class _DiskStorage:
    """Storage plumbing shared by both disk facades.

    One LRU buffer fronts the paged adjacency file and every side file
    (K-NN lists, edge points, landmark labels), all packed in one node
    order -- the paper's single 1 MB buffer (Section 6).
    """

    def _init_paging(self, page_size: int, buffer_pages: int, order) -> None:
        """Set up the page size, the buffer and the packing ``order``."""
        self.page_size = page_size
        self.buffer = BufferManager(buffer_pages, self.tracker)
        self._order = order

    def _paging(self):
        return self.buffer, self._order

    def _clone_storage(self) -> None:
        """A cold buffer of the clone's own, in front of the shared
        adjacency pages and the clone's copies of the side files."""
        self.buffer = BufferManager(self.buffer.capacity_pages, self.tracker)
        self.disk = rebuffered(self.disk, self.buffer)
        self._rebuffer_side_files(self.buffer)

    def clear_buffer(self) -> None:
        """Drop every buffered page (cold-start the next query)."""
        self.buffer.clear()


class GraphDatabase(_DiskStorage, UndirectedFacade):
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
        self._init_state(graph, points)
        self._init_paging(page_size, buffer_pages, packing_order(graph, node_order))
        self.disk = DiskGraph(
            graph,
            self.buffer,
            page_size=page_size,
            order=self._order,
            point_nodes=frozenset(
                node for _, node in self.points.items()
            ) if self.restricted else frozenset(),
        )
        if not self.restricted:
            self._edge_store = self._edge_points(self.points)
        self._rebuild_view()

    # -- storage ------------------------------------------------------------

    def _edge_points(self, points: EdgePointSet) -> EdgePointStore:
        """Page an unrestricted point set into its own point file."""
        return EdgePointStore(
            self.graph, points, self.buffer,
            page_size=self.page_size, order=self._order,
        )

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
