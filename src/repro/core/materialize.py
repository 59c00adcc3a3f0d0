"""Materialized K-NN lists: construction and maintenance (Section 4.1).

Full materialization of all pairwise distances needs ``|V|(|V|-1)/2``
entries; the paper instead stores, for every node, its ``K`` nearest
data points, where ``K`` bounds the ``k`` of any future query.  The
lists are built by the single-pass **all-NN** algorithm (Fig. 8) in
``O(K |E| log(K |E|))`` and kept up to date under point insertions and
deletions (Fig. 10), both implemented here.

Everything is expressed over *seeds* ``(node, point, distance)`` so the
same code serves restricted networks (one seed: the point's node at
distance 0) and unrestricted ones (two seeds: the edge endpoints at
their direct offsets).

A list holds distances *from* its node, ``d(n -> x)``.  A point's
distance reaches ``n`` from a node ``m`` that ``n`` has an arc to
(``d(n -> x) = w(n, m) + d(m -> x)``), so every expansion here relaxes
along the view's ``in_neighbors``; the delete's refill seeds follow
``neighbors``.  On an undirected view both are the adjacency list; on a
:class:`~repro.core.directed.DirectedView` the same code maintains the
directed network's forward lists.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import AbstractSet, Iterable, Sequence

from repro.core.network import NetworkView, offset_from
from repro.core.pq import CountingHeap
from repro.errors import MaterializationError, QueryError
from repro.storage.disk import KnnListStore

Seed = tuple[int, int, float]  # (node, point id, initial distance)


def all_nn(
    view: NetworkView,
    capacity: int,
    seeds: Iterable[Seed],
) -> dict[int, list[tuple[int, float]]]:
    """Compute the ``capacity`` nearest data points of every node.

    A single heap expands all points simultaneously (paper Fig. 8): an
    entry ``(d, node, point)`` means the point reaches the node at
    distance ``d``.  A node that already completed its list, or that
    the same point already visited, is ignored.  Each edge enters the
    heap at most ``capacity`` times per direction.  The expansion runs
    backwards, along in-arcs (the adjacency list when undirected).
    """
    if capacity < 1:
        raise MaterializationError(f"K must be >= 1, got {capacity}")
    heap = CountingHeap(view.tracker)
    for node, pid, dist in seeds:
        heap.push(dist, (node, pid))
    lists: dict[int, list[tuple[int, float]]] = {}
    closed: set[tuple[int, int]] = set()
    while heap:
        dist, (node, pid) = heap.pop()
        if (node, pid) in closed:
            continue
        closed.add((node, pid))
        entries = lists.setdefault(node, [])
        if len(entries) >= capacity:
            continue
        entries.append((pid, dist))
        neighbors = view.in_neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if (nbr, pid) not in closed and len(lists.get(nbr, ())) < capacity:
                heap.push(dist + weight, (nbr, pid))
    return lists


def kth_other(
    entries: Sequence[tuple[int, float]],
    capacity: int,
    pid: int,
    k: int,
    exclude: AbstractSet[int],
) -> float | None:
    """Distance of the k-th point other than ``pid`` in a node's list.

    ``inf`` when a list below capacity holds fewer than k others (the
    list is not truncated, so fewer than k others exist in the whole
    reachable network); ``None`` when a full list hides the k-th other.
    """
    others = [dist for other, dist in entries if other != pid and other not in exclude]
    if len(others) >= k:
        return others[k - 1]
    if len(entries) < capacity:
        return math.inf
    return None


class MaterializedKNN:
    """Disk-backed materialized K-NN lists with update maintenance."""

    def __init__(self, store: KnnListStore):
        self.store = store

    @property
    def capacity(self) -> int:
        """The lists' capacity ``K`` (the largest servable ``k``)."""
        return self.store.capacity

    def check_capacity(self, k: int) -> None:
        """Refuse a query whose ``k`` exceeds the lists' capacity."""
        if k > self.capacity:
            raise QueryError(f"k={k} exceeds the materialized capacity K={self.capacity}")

    def get(self, node: int) -> tuple[tuple[int, float], ...]:
        """Materialized list of ``node`` (charged read)."""
        return self.store.get(node)

    # -- maintenance -----------------------------------------------------

    def insert(self, view: NetworkView, pid: int, seeds: Iterable[tuple[int, float]]) -> int:
        """Propagate a new data point into the lists (Section 4.1).

        ``seeds`` are ``(node, distance)`` pairs locating the point.
        Expansion stops at nodes whose K-th neighbor is at least as
        close as the new point (ties keep the incumbent, matching the
        paper's insertion example).  Returns the number of updated nodes.
        """
        heap = CountingHeap(view.tracker)
        for node, dist in seeds:
            heap.push(dist, node)
        visited: set[int] = set()
        updated = 0
        while heap:
            dist, node = heap.pop()
            if node in visited:
                continue
            visited.add(node)
            view.tracker.nodes_visited += 1
            entries = list(self.store.get(node))
            if any(existing == pid for existing, _ in entries):
                raise MaterializationError(f"point {pid} already materialized")
            if len(entries) >= self.capacity and dist >= entries[-1][1]:
                continue  # the point does not improve this node's list
            insort(entries, (pid, dist), key=lambda item: item[1])
            del entries[self.capacity:]
            self.store.put(node, entries)
            updated += 1
            neighbors = view.in_neighbors(node)
            view.tracker.edges_expanded += len(neighbors)
            for nbr, weight in neighbors:
                if nbr not in visited:
                    heap.push(dist + weight, nbr)
        return updated

    def delete(self, view: NetworkView, pid: int, seeds: Iterable[tuple[int, float]]) -> int:
        """Remove a data point and repair every influenced list (Fig. 10).

        Step 1 expands around the deleted point, removing it from the
        lists of all *affected* nodes; the expansion stops at *border*
        nodes (whose lists do not change).  Step 2 refills the affected
        lists by a constrained expansion seeded with the border nodes'
        entries, the affected nodes' surviving entries and, on an
        unrestricted network, the points on their incident edges: a
        border's entries reach an affected node over its out-arc to the
        border, and refilled entries relay back along in-arcs.  Returns
        the number of affected nodes.
        """
        capacity = self.capacity
        # ---- step 1: find affected nodes, drop the deleted point --------
        heap = CountingHeap(view.tracker)
        for node, dist in seeds:
            heap.push(dist, node)
        visited: set[int] = set()
        affected: dict[int, list[tuple[int, float]]] = {}
        while heap:
            dist, node = heap.pop()
            if node in visited:
                continue
            visited.add(node)
            view.tracker.nodes_visited += 1
            entries = list(self.store.get(node))
            survivors = [entry for entry in entries if entry[0] != pid]
            if len(survivors) == len(entries):
                continue  # border node: list unchanged, do not expand
            affected[node] = survivors
            neighbors = view.in_neighbors(node)
            view.tracker.edges_expanded += len(neighbors)
            for nbr, weight in neighbors:
                if nbr not in visited:
                    heap.push(dist + weight, nbr)

        # ---- step 2: refill the affected lists ---------------------------
        refill = CountingHeap(view.tracker)
        for node, survivors in affected.items():
            for other, dist in survivors:
                refill.push(dist, (node, other))
            neighbors = view.neighbors(node)
            view.tracker.edges_expanded += len(neighbors)
            for nbr, weight in neighbors:
                if not view.restricted and view.has_points_on(node, nbr):
                    # a point on an incident edge may be in neither
                    # endpoint's full list, so it seeds the refill too
                    for other, pos in view.edge_points(node, nbr):
                        refill.push(offset_from(node, nbr, weight, pos), (node, other))
                if nbr in affected:
                    continue
                for other, dist in self.store.get(nbr):
                    if other != pid:
                        refill.push(dist + weight, (node, other))
        closed: set[tuple[int, int]] = set()
        while refill:
            dist, (node, other) = refill.pop()
            if (node, other) in closed:
                continue
            closed.add((node, other))
            entries = affected[node]
            known = any(existing == other for existing, _ in entries)
            if not known:
                if len(entries) >= capacity:
                    continue  # full again: farther candidates are dominated
                entries.append((other, dist))
            neighbors = view.in_neighbors(node)
            view.tracker.edges_expanded += len(neighbors)
            for nbr, weight in neighbors:
                if nbr in affected and (nbr, other) not in closed:
                    refill.push(dist + weight, (nbr, other))
        for node, entries in affected.items():
            self.store.put(node, entries)
        return len(affected)
