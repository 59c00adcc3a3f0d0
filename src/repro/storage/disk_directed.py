"""Disk-resident storage for directed networks.

A directed network needs *two* adjacency files: the query algorithms
expand backwards from the query over incoming arcs (ordering nodes by
their distance **to** the query) and probe forwards over outgoing arcs
(distances **from** a node).  Each file is a
:class:`~repro.storage.disk.DiskGraph` over one direction's adjacency
lists -- the same page format and topology-aware packing as the
undirected store -- and both read through the database's LRU buffer
under their own file tags; reads from either are charged I/O.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace
from typing import Sequence

from repro.errors import StorageError
from repro.graph.digraph import DiGraph
from repro.storage.buffer import BufferManager
from repro.storage.disk import DiskGraph
from repro.storage.page import DEFAULT_PAGE_SIZE


def weak_bfs_order(graph: DiGraph, seed: int = 0) -> list[int]:
    """BFS order over the *weak* (direction-blind) adjacency.

    Packing by weak connectivity keeps both expansion directions local,
    since forward and backward traversals cross the same regions.
    """
    n = graph.num_nodes
    order: list[int] = []
    seen = [False] * n
    starts = [seed] + [v for v in range(n) if v != seed]
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nbr, _ in graph.out_neighbors(node):
                if not seen[nbr]:
                    seen[nbr] = True
                    queue.append(nbr)
            for nbr, _ in graph.in_neighbors(node):
                if not seen[nbr]:
                    seen[nbr] = True
                    queue.append(nbr)
    return order


class DiskDiGraph:
    """Paged forward + backward adjacency files of a directed network."""

    _instances = 0

    def __init__(
        self,
        graph: DiGraph,
        buffer: BufferManager,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        order: Sequence[int] | None = None,
        point_nodes: frozenset[int] = frozenset(),
    ):
        DiskDiGraph._instances += 1
        tag = f"dg{DiskDiGraph._instances}"
        self.num_nodes = graph.num_nodes
        self.num_arcs = graph.num_arcs
        if order is None:
            order = weak_bfs_order(graph)
        if sorted(order) != list(range(graph.num_nodes)):
            raise StorageError("page order must cover every node exactly once")
        files = []
        for suffix, neighbors, degree in (
            ("fwd", graph.out_neighbors, graph.out_degree),
            ("rev", graph.in_neighbors, graph.in_degree),
        ):
            # the graph's own lists in one direction, paged as a
            # DiskGraph pages an undirected graph's adjacency
            direction = SimpleNamespace(
                num_nodes=graph.num_nodes, num_edges=graph.num_arcs,
                neighbors=neighbors, degree=degree,
            )
            disk = DiskGraph(direction, buffer, page_size=page_size,
                             order=order, point_nodes=point_nodes)
            disk.FILE_TAG = f"{tag}:{suffix}"  # both files share the buffer
            files.append(disk)
        self._forward, self._backward = files

    @property
    def num_pages(self) -> int:
        """Pages in the forward and backward files together."""
        return self._forward.num_pages + self._backward.num_pages

    def page_of(self, node: int) -> int:
        """Forward-file page holding ``node`` (free index look-up).

        Exposed for locality-aware batch planning: queries whose nodes
        share a forward page hit the same buffer frame.
        """
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self._forward.page_of(node)

    def out_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Outgoing arcs of ``node`` (charged read of the forward file)."""
        return self._forward.neighbors(node)

    def in_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Incoming arcs of ``node`` (charged read of the backward file)."""
        return self._backward.neighbors(node)
