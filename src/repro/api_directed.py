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

import copy

from repro.errors import QueryError
from repro.facade import DIRECTED_METHODS as METHODS, DirectedFacade
from repro.graph.digraph import DiGraph
from repro.points.points import NodePointSet
from repro.storage.buffer import BufferManager, rebuffered
from repro.storage.disk_directed import DiskDiGraph, weak_bfs_order
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker

__all__ = ["DEFAULT_BUFFER_PAGES", "DirectedGraphDatabase", "METHODS"]

DEFAULT_BUFFER_PAGES = 256


class DirectedGraphDatabase(DirectedFacade):
    """Disk-based directed graph database answering RkNN queries."""

    def __init__(
        self,
        graph: DiGraph,
        points: NodePointSet | None = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ):
        if points is None:
            points = NodePointSet({})
        for pid, node in points.items():
            if not 0 <= node < graph.num_nodes:
                raise QueryError(f"point {pid} lies on unknown node {node}")
        self._init_state(graph, points)
        self.page_size = page_size
        self.buffer = BufferManager(buffer_pages, self.tracker)
        self._order = weak_bfs_order(graph)
        self.disk = DiskDiGraph(
            graph,
            self.buffer,
            page_size=page_size,
            order=self._order,
            point_nodes=frozenset(node for _, node in points.items()),
        )
        self._rebuild_view()

    # -- storage ------------------------------------------------------------

    def _paging(self):
        return self.buffer, self._order

    def read_clone(self) -> "DirectedGraphDatabase":
        """A read-only session with a private buffer and tracker.

        Shares the serialized adjacency pages of both direction files;
        see :meth:`repro.api.GraphDatabase.read_clone` for the contract
        (read-only use, cold private buffer, zeroed tracker).
        """
        clone = copy.copy(self)
        clone.tracker = CostTracker()
        clone.buffer = BufferManager(self.buffer.capacity_pages, clone.tracker)
        clone.disk = rebuffered(self.disk, clone.buffer)
        clone._rebuffer_lists(clone.buffer)
        clone._rebuild_view()
        return clone

    def clear_buffer(self) -> None:
        """Drop every buffered page (cold-start the next query)."""
        self.buffer.clear()
