"""Disk-resident stores for the network, edge points and K-NN lists.

This module implements the paper's storage architecture (Section 3.1,
Fig. 3b and Section 5.2, Fig. 14b):

* :class:`DiskGraph` -- a file of adjacency lists, grouped into pages by
  a topology-aware node order, behind an in-memory index on node id;
* :class:`EdgePointStore` -- the separate data-point file of an
  unrestricted network, with per-edge point records;
* :class:`KnnListStore` -- the materialized K-NN lists of Section 4.1,
  with fixed-capacity records so maintenance can rewrite them in place.

All stores serialize to real byte pages and perform logical reads
through a shared :class:`~repro.storage.buffer.BufferManager`, which is
where I/O accounting happens.  The "disk" itself is an in-process list
of page images; the paper's reported costs are likewise *charged* I/O
(10 ms per fault), so this simulation reproduces the same measurements
without physical hardware.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.errors import StorageError
from repro.graph.graph import Graph, edge_key
from repro.graph.partition import bfs_order, partition_nodes
from repro.points.points import EdgePointSet
from repro.storage.buffer import BufferManager
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    AdjacencyRecord,
    EdgePointRecord,
    KnnRecord,
    adjacency_record_size,
    decode_adjacency_page,
    decode_edge_point_page,
    decode_knn_page,
    edge_record_size,
    encode_adjacency_page,
    encode_edge_point_page,
    encode_knn_page,
    knn_record_size,
    pack_records,
)


def _span(payload: bytes, page_size: int) -> int:
    """Physical page slots occupied by a payload (>= 1)."""
    return max(1, math.ceil(len(payload) / page_size))


class DiskGraph:
    """The paper's adjacency-list file plus in-memory node index.

    The index maps a node id to its page and data-point flag, so index
    look-ups are free; fetching the adjacency list itself goes through
    the buffer and may fault.  ``graph`` needs only ``num_nodes``,
    ``num_edges``, ``degree`` and ``neighbors``:
    :class:`~repro.storage.disk_directed.DiskDiGraph` pages each
    direction of a directed network through one.
    """

    FILE_TAG = "adj"

    def __init__(
        self,
        graph: Graph,
        buffer: BufferManager,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        order: Sequence[int] | None = None,
        point_nodes: frozenset[int] = frozenset(),
    ):
        self.page_size = page_size
        self.buffer = buffer
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        if order is None:
            order = bfs_order(graph)
        sizes = [adjacency_record_size(graph.degree(v)) for v in range(graph.num_nodes)]
        node_pages = partition_nodes(order, sizes, page_size=page_size)
        self._pages: list[bytes] = []
        self._spans: list[int] = []
        self._page_of: list[int] = [-1] * graph.num_nodes
        for page_no, nodes in enumerate(node_pages):
            records = [
                AdjacencyRecord(
                    node=v,
                    has_point=v in point_nodes,
                    neighbors=tuple(graph.neighbors(v)),
                )
                for v in nodes
            ]
            payload = encode_adjacency_page(records)
            self._pages.append(payload)
            self._spans.append(_span(payload, page_size))
            for v in nodes:
                self._page_of[v] = page_no
        if any(p < 0 for p in self._page_of):
            raise StorageError("page order does not cover every node")

    @property
    def num_pages(self) -> int:
        """Pages in the adjacency file."""
        return len(self._pages)

    def page_of(self, node: int) -> int:
        """Page number holding ``node``'s adjacency list (index look-up)."""
        return self._page_of[node]

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Adjacency list of ``node``; a logical read through the buffer."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        page_no = self._page_of[node]
        page = self.buffer.get(
            (self.FILE_TAG, page_no),
            lambda: self._load_page(page_no),
            span=self._spans[page_no],
        )
        return page[node].neighbors

    def _load_page(self, page_no: int) -> dict[int, AdjacencyRecord]:
        records = decode_adjacency_page(self._pages[page_no])
        return {rec.node: rec for rec in records}


class EdgePointStore:
    """The separate point file of an unrestricted network (Fig. 14b).

    Only edges that carry points have a record; the in-memory edge index
    answers "edge has no points" for free, while reading an edge's point
    list is a charged logical read.  Point insertions and deletions
    rewrite the affected page (one charged write).

    Each store instance gets a distinct file tag so several point files
    (e.g. the P and Q sets of a bichromatic query) can share one buffer
    without their pages aliasing.  ``points`` must already be valid on
    ``graph``: the facades check a point set before paging it.
    """

    _instances = 0

    def __init__(
        self,
        graph: Graph,
        points: EdgePointSet,
        buffer: BufferManager,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        order: Sequence[int] | None = None,
    ):
        EdgePointStore._instances += 1
        self.FILE_TAG = f"ep{EdgePointStore._instances}"
        self.page_size = page_size
        self.buffer = buffer
        self._graph = graph
        if order is None:
            order = bfs_order(graph)
        rank = {node: i for i, node in enumerate(order)}
        edges = sorted(
            points.edges_with_points(),
            key=lambda edge: (rank[edge[0]], rank[edge[1]]),
        )
        records = [
            EdgePointRecord(u, v, tuple(points.points_on(u, v))) for u, v in edges
        ]
        sizes = [edge_record_size(len(rec.points)) for rec in records]
        pages = pack_records(sizes, page_size=page_size) if records else []
        self._pages: list[bytes] = []
        self._spans: list[int] = []
        self._page_of: dict[tuple[int, int], int] = {}
        for page_no, indices in enumerate(pages):
            recs = [records[i] for i in indices]
            payload = encode_edge_point_page(recs)
            self._pages.append(payload)
            self._spans.append(_span(payload, page_size))
            for rec in recs:
                self._page_of[(rec.u, rec.v)] = page_no

    @property
    def num_pages(self) -> int:
        """Pages in the point file."""
        return len(self._pages)

    def points_on(self, u: int, v: int) -> tuple[tuple[int, float], ...]:
        """Points on edge ``(u, v)`` as ``(pid, offset-from-min-endpoint)``."""
        key = edge_key(u, v)
        page_no = self._page_of.get(key)
        if page_no is None:
            return ()
        page = self.buffer.get(
            (self.FILE_TAG, page_no),
            lambda: self._load_page(page_no),
            span=self._spans[page_no],
        )
        record = page.get(key)
        return record.points if record is not None else ()

    def insert_point(self, pid: int, u: int, v: int, pos: float) -> None:
        """Add a point to an edge record, creating the record if needed."""
        key = edge_key(u, v)
        if pos < 0 or pos > self._graph.weight(u, v):
            raise StorageError(f"offset {pos} outside edge ({u}, {v})")
        page_no = self._page_of.get(key)
        if page_no is None:
            # place the new record on the last page (or a fresh one)
            page_no = len(self._pages) - 1 if self._pages else self._new_page()
            self._page_of[key] = page_no
        page = self._load_page(page_no)
        record = page.get(key, EdgePointRecord(key[0], key[1], ()))
        if any(existing == pid for existing, _ in record.points):
            raise StorageError(f"point {pid} already on edge {key}")
        new_points = tuple(sorted(record.points + ((pid, float(pos)),),
                                  key=lambda item: (item[1], item[0])))
        page[key] = EdgePointRecord(key[0], key[1], new_points)
        self._write_page(page_no, page)

    def delete_point(self, pid: int, u: int, v: int) -> None:
        """Remove a point from an edge record."""
        key = edge_key(u, v)
        page_no = self._page_of.get(key)
        if page_no is None:
            raise StorageError(f"edge {key} has no points")
        page = self._load_page(page_no)
        record = page.get(key)
        if record is None or all(existing != pid for existing, _ in record.points):
            raise StorageError(f"point {pid} not on edge {key}")
        new_points = tuple(p for p in record.points if p[0] != pid)
        if new_points:
            page[key] = EdgePointRecord(key[0], key[1], new_points)
        else:
            del page[key]
            del self._page_of[key]
        self._write_page(page_no, page)

    def _new_page(self) -> int:
        self._pages.append(encode_edge_point_page([]))
        self._spans.append(1)
        return len(self._pages) - 1

    def _load_page(self, page_no: int) -> dict[tuple[int, int], EdgePointRecord]:
        records = decode_edge_point_page(self._pages[page_no])
        return {(rec.u, rec.v): rec for rec in records}

    def _write_page(
        self, page_no: int, page: Mapping[tuple[int, int], EdgePointRecord]
    ) -> None:
        payload = encode_edge_point_page(list(page.values()))
        self._pages[page_no] = payload
        self._spans[page_no] = _span(payload, self.page_size)
        self.buffer.tracker.page_writes += self._spans[page_no]
        self.buffer.put((self.FILE_TAG, page_no), dict(page), span=self._spans[page_no])


class KnnListStore:
    """Disk-paged materialized K-NN lists (paper Section 4.1).

    Every node owns a fixed-capacity record of up to ``K`` entries
    ``(point id, network distance)`` in ascending distance order, so the
    space overhead is ``O(K |V|)`` as in the paper.  Reads are charged
    through the buffer; updates rewrite the record's page in place and
    charge one write.

    Each store instance gets a distinct file tag so several K-NN files
    (e.g. lists over P and over a reference set Q) can share one buffer
    without their pages aliasing.
    """

    _instances = 0

    def __init__(
        self,
        num_nodes: int,
        capacity: int,
        lists: Mapping[int, Sequence[tuple[int, float]]],
        buffer: BufferManager,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        order: Sequence[int] | None = None,
    ):
        if capacity < 1:
            raise StorageError(f"K must be >= 1, got {capacity}")
        KnnListStore._instances += 1
        self.FILE_TAG = f"knn{KnnListStore._instances}"
        self.capacity = capacity
        self.page_size = page_size
        self.buffer = buffer
        self.num_nodes = num_nodes
        record = knn_record_size(capacity)
        if order is None:
            order = range(num_nodes)
        sizes = [record] * num_nodes
        node_pages = partition_nodes(list(order), sizes, page_size=page_size)
        self._pages: list[bytes] = []
        self._spans: list[int] = []
        self._page_of: list[int] = [-1] * num_nodes
        for page_no, nodes in enumerate(node_pages):
            records = [
                KnnRecord(v, tuple(lists.get(v, ())), capacity) for v in nodes
            ]
            payload = encode_knn_page(records)
            self._pages.append(payload)
            self._spans.append(_span(payload, page_size))
            for v in nodes:
                self._page_of[v] = page_no

    @property
    def num_pages(self) -> int:
        """Pages in the K-NN list file."""
        return len(self._pages)

    def get(self, node: int) -> tuple[tuple[int, float], ...]:
        """Materialized list of ``node``; a charged logical read."""
        page_no = self._page_of[node]
        page = self.buffer.get(
            (self.FILE_TAG, page_no),
            lambda: self._load_page(page_no),
            span=self._spans[page_no],
        )
        return page[node]

    def put(self, node: int, entries: Sequence[tuple[int, float]]) -> None:
        """Rewrite ``node``'s list in place (one charged page write)."""
        if len(entries) > self.capacity:
            raise StorageError(
                f"list for node {node} has {len(entries)} entries, "
                f"capacity is {self.capacity}"
            )
        page_no = self._page_of[node]
        page = dict(self._load_page(page_no))
        page[node] = tuple((int(pid), float(dist)) for pid, dist in entries)
        records = [KnnRecord(v, lst, self.capacity) for v, lst in page.items()]
        payload = encode_knn_page(records)
        self._pages[page_no] = payload
        self._spans[page_no] = _span(payload, self.page_size)
        self.buffer.tracker.page_writes += self._spans[page_no]
        self.buffer.put((self.FILE_TAG, page_no), page, span=self._spans[page_no])

    def _load_page(self, page_no: int) -> dict[int, tuple[tuple[int, float], ...]]:
        records = decode_knn_page(self._pages[page_no], self.capacity)
        return {rec.node: rec.entries for rec in records}
