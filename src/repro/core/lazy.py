"""The lazy RkNN algorithm (paper Section 3.3, Figs. 5-7).

Lazy expands the network around the query without per-node probes and
defers all pruning to the moment a data point is discovered.  The
verification query of a discovered point ``p`` doubles as the pruning
device: every node it visits that is closer to ``p`` than to the query
gets its counter incremented, and once a node's counter reaches ``k``
it is closed for the main expansion -- including retroactively, by
removing the heap entries the node had inserted (the paper's hash table
of heap-entry pointers, here :class:`~repro.core.pq.InvalidatableHeap`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import AbstractSet, Iterable

from repro.core.network import NetworkView
from repro.core.numeric import inflate_bound, strictly_less
from repro.core.pq import CountingHeap, InvalidatableHeap

_EMPTY: frozenset[int] = frozenset()


def lazy_rknn(
    view: NetworkView,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Monochromatic RkNN of a query located on ``query_node``."""
    return lazy(view, [query_node], k, exclude)


class _LazyState:
    """Bookkeeping shared between the main expansion and verifications."""

    def __init__(self, view: NetworkView, k: int):
        self.view = view
        self.k = k
        self.heap: InvalidatableHeap = InvalidatableHeap(view.tracker)
        # de-heaped node -> distance from the query at processing time
        self.processed: dict[int, float] = {}
        # node -> ids of heap entries inserted while processing it
        self.entries_of: dict[int, list[int]] = {}
        # node -> number of data points known to be strictly closer than q
        self.count: dict[int, int] = {}

    def bump_count(self, node: int) -> None:
        """Register one more point strictly closer to ``node`` than the
        query; on reaching ``k``, retro-actively invalidate the heap
        entries the node inserted (paper Fig. 7, line 11)."""
        new_count = self.count.get(node, 0) + 1
        self.count[node] = new_count
        if new_count == self.k:
            for entry_id in self.entries_of.pop(node, ()):
                self.heap.invalidate(entry_id)


def lazy(
    view: NetworkView,
    sources: Iterable[int],
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """RkNN of a query on every node of ``sources`` (a route query of
    Section 5.1 when there are several), by lazy evaluation."""
    state = _LazyState(view, k)
    source_set = set(sources)
    for node in source_set:
        state.heap.push(0.0, node)
    checked: set[int] = set()
    result: list[int] = []

    while state.heap:
        dist, _, node = state.heap.pop()
        if node in state.processed:
            continue
        state.processed[node] = dist
        view.tracker.nodes_visited += 1
        if state.count.get(node, 0) >= k:
            # Already closer to k data points than to the query: by
            # Lemma 1 the node leads nowhere, and a point residing here
            # cannot qualify either.
            continue
        pid = view.point_at(node)
        if pid is not None and pid not in exclude and pid not in checked:
            checked.add(pid)
            # The node was de-heaped, so dist is (an upper bound of, and
            # for never-invalidated regions exactly) d(p, q).
            if _lazy_verify(state, pid, node, dist, source_set, exclude):
                result.append(pid)
            if state.count.get(node, 0) >= k:
                continue
        entry_ids: list[int] = []
        neighbors = view.neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in state.processed:
                entry_ids.append(state.heap.push(dist + weight, nbr))
        if entry_ids:
            state.entries_of[node] = entry_ids
    return sorted(result)


def _lazy_verify(
    state: _LazyState,
    pid: int,
    point_node: int,
    dist_pq: float,
    targets: set[int],
    exclude: AbstractSet[int],
) -> bool:
    """Verification query of ``p`` with pruning side effects.

    Expands around ``p`` with range ``d(p, q)``.  Visited nodes that are
    *strictly* closer to ``p`` than to the query have their counters
    bumped:

    * nodes not yet processed by the main expansion satisfy
      ``d(n, p) < d(p, q) <= d(n, q)`` whenever ``d(n, p) < d(p, q)``
      strictly (the main expansion has already advanced past d(p, q));
    * processed nodes are compared against their recorded distance.

    Returns ``True`` iff a target (query/route) node is reached before
    ``k`` data points strictly closer to ``p``.
    """
    view = state.view
    view.tracker.verifications += 1
    heap = CountingHeap(view.tracker)
    heap.push(0.0, point_node)
    limit = inflate_bound(dist_pq)
    visited: set[int] = set()
    point_dists: list[float] = []
    success = False
    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        if dist > limit:
            break
        visited.add(node)
        view.tracker.nodes_visited += 1
        strictly_closer = bisect_left(point_dists, dist)
        if node in targets:
            success = strictly_closer < state.k
            break
        if strictly_closer >= state.k:
            break
        # pruning side effect (Lemma 1 via the discovered point)
        processed_dist = state.processed.get(node)
        if processed_dist is None:
            if strictly_less(dist, dist_pq):
                state.bump_count(node)
        elif strictly_less(dist, processed_dist):
            state.bump_count(node)
        other = view.point_at(node)
        if other is not None and other != pid and other not in exclude:
            insort(point_dists, dist)
        neighbors = view.neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in visited:
                ndist = dist + weight
                if ndist <= limit:
                    heap.push(ndist, nbr)
    return success
