"""Public facade for directed networks: :class:`DirectedGraphDatabase`.

The directed extension of the paper (its Section 7 future-work item):
reverse nearest neighbors on graphs with asymmetric distances, e.g.
road maps with one-way streets.  The query surface is
:class:`~repro.facade.DirectedFacade` (monochromatic RkNN with
``eager`` / ``eager-m`` / ``naive``, forward kNN, materialization with
update maintenance); this module holds the disk storage under it::

    from repro import DirectedGraphDatabase, NodePointSet

    db = DirectedGraphDatabase.from_arcs(
        [(0, 1, 2.0), (1, 0, 5.0), (1, 2, 1.0)],
        points=NodePointSet({10: 0, 11: 2}),
    )
    db.rknn(query=1, k=1)
"""

from __future__ import annotations

from repro.api import _DiskStorage
from repro.facade import DIRECTED_METHODS as METHODS, DirectedFacade
from repro.graph.digraph import DiGraph
from repro.points.points import NodePointSet
from repro.storage.buffer import DEFAULT_BUFFER_PAGES
from repro.storage.disk_directed import DiskDiGraph, weak_bfs_order
from repro.storage.page import DEFAULT_PAGE_SIZE

__all__ = ["DEFAULT_BUFFER_PAGES", "DirectedGraphDatabase", "METHODS"]


class DirectedGraphDatabase(_DiskStorage, DirectedFacade):
    """Disk-based directed graph database answering RkNN queries."""

    def __init__(
        self,
        graph: DiGraph,
        points: NodePointSet | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ):
        self._init_state(graph, points)
        self._init_paging(page_size, buffer_pages, weak_bfs_order(graph))
        self.disk = DiskDiGraph(
            graph,
            self.buffer,
            page_size=page_size,
            order=self._order,
            point_nodes=frozenset(node for _, node in self.points.items()),
        )
        self._rebuild_view()
