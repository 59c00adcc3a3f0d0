"""Memory-resident stores over the CSR kernels.

These classes give the CSR kernels the *store protocol* the rest of
the system consumes -- ``neighbors`` / ``out_neighbors`` /
``in_neighbors``, ``num_nodes``, ``page_of`` -- so the existing
:class:`~repro.core.network.NetworkView` and
:class:`~repro.core.directed.DirectedView` (and through them every
query algorithm) run over a compact store unchanged.

Reads are **free**: there are no pages, no buffer and no charged I/O.
The ``page_of`` index survives as a locality *rank* (the position of a
node in the packing order the disk layout would have used), so the
batch planner's page-adjacency ordering keeps working and orders
compact batches the same way it orders disk batches.

:class:`MemoryKnnStore` is the in-memory counterpart of
:class:`~repro.storage.disk.KnnListStore`: the same ``get`` / ``put``
/ ``capacity`` surface consumed by
:class:`~repro.core.materialize.MaterializedKNN`, without pages or
charging, so ``eager-m`` and its update maintenance run unchanged.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

from repro.compact.csr import CSRDiGraph, CSRGraph
from repro.errors import StorageError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.partition import bfs_order
from repro.storage.disk_directed import weak_bfs_order


def _disk_pack_order(pages: Sequence[bytes]) -> list[int]:
    """The node order a paged adjacency file actually uses: page
    sequence first, in-page record order second."""
    from repro.storage.page import decode_adjacency_page

    order: list[int] = []
    for payload in pages:
        order.extend(record.node for record in decode_adjacency_page(payload))
    return order


def _rank_of(order: Sequence[int], num_nodes: int) -> list[int]:
    """Invert a packing order into a node -> rank table."""
    if sorted(order) != list(range(num_nodes)):
        raise StorageError("packing order must cover every node exactly once")
    rank = [0] * num_nodes
    for position, node in enumerate(order):
        rank[node] = position
    return rank


class CompactGraphStore:
    """CSR-backed drop-in for :class:`~repro.storage.disk.DiskGraph`.

    Parameters
    ----------
    graph:
        The network to flatten (adjacency order is preserved, so
        results match the disk store exactly).
    order:
        Packing order used only as the planner's locality rank;
        defaults to the same BFS order the disk layout uses.
    csr:
        A prebuilt kernel (skips flattening ``graph``).
    """

    def __init__(
        self,
        graph: Graph | None = None,
        *,
        order: Sequence[int] | None = None,
        csr: CSRGraph | None = None,
    ):
        if csr is None:
            if graph is None:
                raise StorageError("CompactGraphStore needs a graph or a csr")
            csr = CSRGraph.from_graph(graph)
        self.csr = csr
        self.num_nodes = csr.num_nodes
        self.num_edges = csr.num_edges
        if order is None:
            order = bfs_order(graph) if graph is not None else range(self.num_nodes)
        self._rank = _rank_of(list(order), self.num_nodes)

    @classmethod
    def from_disk(cls, disk, order: Sequence[int] | None = None) -> "CompactGraphStore":
        """Load an existing :class:`~repro.storage.disk.DiskGraph`.

        Pages are decoded uncharged; the disk's own packing order
        (page sequence, then in-page record order) seeds the locality
        rank unless ``order`` overrides it.
        """
        csr = CSRGraph.from_disk_graph(disk)
        if order is None:
            order = _disk_pack_order(disk._pages)
        return cls(order=order, csr=csr)

    @property
    def num_pages(self) -> int:
        """Always 0: the compact store is memory-resident."""
        return 0

    def page_of(self, node: int) -> int:
        """Locality rank of ``node`` (free look-up; no real pages).

        Preserves the planner's page-adjacency ordering: nodes that
        would have shared a disk page get adjacent ranks.
        """
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self._rank[node]

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Adjacency list of ``node``; a free flat-array read."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self.csr.neighbors(node)


class CompactDiGraphStore:
    """CSR-backed drop-in for
    :class:`~repro.storage.disk_directed.DiskDiGraph`."""

    def __init__(
        self,
        graph: DiGraph | None = None,
        *,
        order: Sequence[int] | None = None,
        csr: CSRDiGraph | None = None,
    ):
        if csr is None:
            if graph is None:
                raise StorageError("CompactDiGraphStore needs a graph or a csr")
            csr = CSRDiGraph.from_digraph(graph)
        self.csr = csr
        self.num_nodes = csr.num_nodes
        self.num_arcs = csr.num_arcs
        if order is None:
            order = (
                weak_bfs_order(graph) if graph is not None
                else range(self.num_nodes)
            )
        self._rank = _rank_of(list(order), self.num_nodes)

    @classmethod
    def from_disk(cls, disk, order: Sequence[int] | None = None) -> "CompactDiGraphStore":
        """Load an existing paged directed store, decoding pages uncharged.

        The forward file's packing order (page sequence, then in-page
        record order) seeds the locality rank.
        """
        csr = CSRDiGraph.from_disk_digraph(disk)
        if order is None:
            order = _disk_pack_order(disk._forward._pages)
        return cls(order=order, csr=csr)

    @property
    def num_pages(self) -> int:
        """Always 0: the compact store is memory-resident."""
        return 0

    def page_of(self, node: int) -> int:
        """Locality rank of ``node`` (free look-up; no real pages)."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self._rank[node]

    def out_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Outgoing arcs of ``node``; a free flat-array read."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self.csr.out_neighbors(node)

    def in_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Incoming arcs of ``node``; a free flat-array read."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self.csr.in_neighbors(node)


class MemoryKnnStore:
    """In-memory materialized K-NN lists (uncharged ``get``/``put``).

    The same record protocol as
    :class:`~repro.storage.disk.KnnListStore` -- fixed ``capacity``,
    per-node entry tuples in ascending distance order -- minus the
    pages and the charging, so
    :class:`~repro.core.materialize.MaterializedKNN` maintenance runs
    unchanged over it.  :meth:`share` hands a session the same table,
    copied on write.
    """

    def __init__(
        self,
        num_nodes: int,
        capacity: int,
        lists: Mapping[int, Sequence[tuple[int, float]]] | None = None,
    ):
        if capacity < 1:
            raise StorageError(f"K must be >= 1, got {capacity}")
        self.capacity = capacity
        self.num_nodes = num_nodes
        lists = lists or {}
        self._lists: list[tuple[tuple[int, float], ...]] = [
            tuple((int(pid), float(dist)) for pid, dist in lists.get(v, ()))
            for v in range(num_nodes)
        ]
        # another store may read _lists: copy before the next put
        self._shared = False

    def share(self) -> "MemoryKnnStore":
        """A second store over the same list table, in constant time;
        whichever of the two writes first copies the table."""
        self._shared = True
        return copy.copy(self)

    def get(self, node: int) -> tuple[tuple[int, float], ...]:
        """Materialized list of ``node`` (free read)."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self._lists[node]

    def put(self, node: int, entries: Sequence[tuple[int, float]]) -> None:
        """Replace ``node``'s list (free write; copies a shared table
        first)."""
        if len(entries) > self.capacity:
            raise StorageError(
                f"list for node {node} has {len(entries)} entries, "
                f"capacity is {self.capacity}"
            )
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        if self._shared:
            self._lists = list(self._lists)
            self._shared = False
        self._lists[node] = tuple(
            (int(pid), float(dist)) for pid, dist in entries
        )
