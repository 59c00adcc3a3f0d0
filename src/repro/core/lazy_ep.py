"""Lazy-EP: lazy evaluation with extended pruning (Section 4.2, Fig. 13).

Lazy may expand far past regions that discovered points have already
disqualified (Fig. 12).  Lazy-EP fixes this by running a second heap
``H'`` in parallel: every discovered point becomes a source in ``H'``,
which computes point-to-node distances in the same ascending order as
the main expansion.  ``H'`` is advanced whenever its top distance is
smaller than the last distance de-heaped from the main heap ``H``, so
by the time a node comes up in ``H`` its k nearest *discovered* points
are known, and Lemma 1 prunes it immediately when the k-th of them is
strictly closer than the query.

:class:`ParallelExpansion` is that second heap for both network kinds:
the unrestricted lazy-EP of :mod:`repro.core.unrestricted` hands it a
function that locates a point on its edge.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import AbstractSet, Callable, Iterable

from repro.core.network import NetworkView
from repro.core.nn import verify
from repro.core.numeric import strictly_less, tie_threshold
from repro.core.pq import CountingHeap

_EMPTY: frozenset[int] = frozenset()


def lazy_ep_rknn(
    view: NetworkView,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Monochromatic RkNN of a query located on ``query_node``."""
    return lazy_ep(view, [query_node], k, exclude)


class ParallelExpansion:
    """The second heap ``H'`` expanding discovered points in parallel.

    ``locate(pid)`` gives the ``(node, offset)`` seeds of a point: its
    node at offset 0 on a restricted network, its edge's endpoints on an
    unrestricted one.  A point is located only when ``H'`` first sees
    it, since locating an edge point reads adjacency.
    """

    def __init__(
        self,
        view: NetworkView,
        k: int,
        locate: Callable[[int], Iterable[tuple[int, float]]],
    ):
        self.view = view
        self.k = k
        self.locate = locate
        self.heap = CountingHeap(view.tracker)
        self.closed: set[tuple[int, int]] = set()  # (node, point)
        # node -> ascending (distance, point) of discovered points (<= k kept)
        self.knn_dists: dict[int, list[tuple[float, int]]] = {}
        self.discovered: set[int] = set()

    def add_point(self, pid: int) -> None:
        """Register a point the *main* expansion discovered.

        Only main-discovered points seed ``H'``: they have already been
        checked for result membership, so Lemma 1 pruning based on them
        never hides an unverified answer, and ``H'``'s work stays
        bounded by the main expansion's reach (no discovery cascade).
        """
        if pid not in self.discovered:
            self.discovered.add(pid)
            for node, offset in self.locate(pid):
                self.heap.push(offset, (node, pid))

    def advance(self, limit: float) -> None:
        """Process every ``H'`` entry with distance strictly below ``limit``.

        Entries are *not* globally ascending over time (a point
        discovered late re-seeds ``H'`` at distance 0), so the per-node
        lists use sorted insertion and evict their largest entry when a
        closer point arrives.
        """
        heap = self.heap
        while heap and heap.peek_distance() < limit:
            dist, (node, pid) = heap.pop()
            if (node, pid) in self.closed:
                continue
            self.closed.add((node, pid))
            dists = self.knn_dists.setdefault(node, [])
            if len(dists) >= self.k and dist >= dists[-1][0]:
                continue  # k discovered points at least as close: dominated
            insort(dists, (dist, pid))
            del dists[self.k:]
            neighbors = self.view.neighbors(node)
            self.view.tracker.edges_expanded += len(neighbors)
            for nbr, weight in neighbors:
                if (nbr, pid) in self.closed:
                    continue
                nbr_dists = self.knn_dists.get(nbr)
                reach = dist + weight
                if nbr_dists and len(nbr_dists) >= self.k and reach >= nbr_dists[-1][0]:
                    continue
                heap.push(reach, (nbr, pid))

    def kth_dist(self, node: int) -> float:
        """Distance of the node's k-th discovered point (inf if unknown)."""
        dists = self.knn_dists.get(node)
        if dists is None or len(dists) < self.k:
            return math.inf
        return dists[self.k - 1][0]

    def strictly_closer(self, node: int, dist: float, skip_pid: int | None = None) -> int:
        """Discovered points strictly closer to ``node`` than ``dist``,
        not counting ``skip_pid`` (a point never competes with itself)."""
        dists = self.knn_dists.get(node)
        if not dists:
            return 0
        count = bisect_left(dists, (tie_threshold(dist), -1))
        if skip_pid is not None:
            count -= sum(1 for d, p in dists[:count] if p == skip_pid)
        return count


def lazy_ep(
    view: NetworkView,
    sources: Iterable[int],
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """RkNN of a query on every node of ``sources`` (a route query of
    Section 5.1 when there are several), by lazy-EP."""
    heap = CountingHeap(view.tracker)
    source_set = set(sources)
    for node in source_set:
        heap.push(0.0, node)
    parallel = ParallelExpansion(view, k, lambda pid: ((view.node_of(pid), 0.0),))
    visited: set[int] = set()
    checked: set[int] = set()
    result: list[int] = []

    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        view.tracker.nodes_visited += 1
        parallel.advance(dist)
        pid = view.point_at(node)
        if pid is not None and pid not in exclude and pid not in checked:
            checked.add(pid)
            # If k other discovered points are strictly closer to this
            # node than the query, p (at distance 0 from the node) has k
            # points strictly closer than d(p, q): no verification needed.
            if parallel.strictly_closer(node, dist, skip_pid=pid) < k:
                if verify(view, pid, k, source_set, dist, exclude):
                    result.append(pid)
            parallel.add_point(pid)
            # fold the just-discovered point (distance 0 from this node)
            # into the knn lists before the prune test below
            parallel.advance(dist)
        if strictly_less(parallel.kth_dist(node), dist):
            continue  # Lemma 1: k discovered points strictly closer than q
        neighbors = view.neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in visited:
                heap.push(dist + weight, nbr)
    return sorted(result)
