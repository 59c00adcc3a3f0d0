"""Bichromatic RkNN queries on restricted networks (Section 5.1).

``bRkNN(q)`` returns the data points ``p`` in P for which the query is
among the k nearest *reference* points (set Q) of ``p``.  The paper
reduces this to the monochromatic machinery run over Q: a node ``n``
qualifies when the query is among the k Q-nearest-neighbors of ``n``,
and the result is the P points residing on qualifying nodes.

Key simplification exploited by :func:`bichromatic_eager`: the main
expansion knows the exact distance ``d(n, q)`` when ``n`` is de-heaped,
so the same range-NN probe that implements the Lemma 1 prune *is* the
qualification test -- fewer than k Q-points strictly closer means the
node qualifies, no verification phase needed.  Eager-M is the same loop
handed K-NN lists materialized over Q: a node's list answers the test
unless it is full and ends strictly below ``d(n, q)``.
"""

from __future__ import annotations

from typing import AbstractSet

from repro.core.lazy import _LazyState, _lazy_verify
from repro.core.materialize import MaterializedKNN
from repro.core.network import NetworkView
from repro.core.nn import range_nn
from repro.core.numeric import strictly_less
from repro.core.pq import CountingHeap

_EMPTY: frozenset[int] = frozenset()


def bichromatic_eager(
    data_view: NetworkView,
    ref_view: NetworkView,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
    lists: MaterializedKNN | None = None,
) -> list[int]:
    """Bichromatic RkNN by eager expansion over the reference set;
    eager-M when given K-NN ``lists`` materialized *over Q*.

    ``exclude`` removes reference (Q) points for the query's duration.
    """
    if lists is not None:
        lists.check_capacity(k)
    heap = CountingHeap(ref_view.tracker)
    heap.push(0.0, query_node)
    visited: set[int] = set()
    result: list[int] = []
    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        ref_view.tracker.nodes_visited += 1
        if not _qualifies(ref_view, lists, node, k, dist, exclude):
            # k reference points strictly closer than the query: the node
            # does not qualify and (Lemma 1) neither does anything beyond.
            continue
        pid = data_view.point_at(node)
        if pid is not None:
            result.append(pid)
        neighbors = ref_view.neighbors(node)
        ref_view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in visited:
                heap.push(dist + weight, nbr)
    return sorted(result)


def _qualifies(
    ref_view: NetworkView,
    lists: MaterializedKNN | None,
    node: int,
    k: int,
    dist: float,
    exclude: AbstractSet[int],
) -> bool:
    """Whether fewer than ``k`` reference points are strictly closer to
    ``node`` than ``dist``: by a range-NN probe, or from the node's list
    when one is given and covers every point below ``dist``."""
    if lists is not None:
        raw = lists.get(node)
        closer = [
            pdist for pid, pdist in raw
            if pid not in exclude and strictly_less(pdist, dist)
        ]
        if len(closer) >= k:
            return False
        if len(raw) < lists.capacity or not strictly_less(raw[-1][1], dist):
            return True  # the stored list covers everything below dist
        # Points beyond the K-th stored entry could still be strictly
        # closer than the query: fall back to an exact probe.
    return len(range_nn(ref_view, node, k, dist, exclude)) < k


def bichromatic_lazy(
    data_view: NetworkView,
    ref_view: NetworkView,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Bichromatic RkNN by lazy expansion over the reference set.

    Discovered reference points prune the traversal through the same
    counter/invalidation machinery as monochromatic lazy.  Because the
    counters can be incomplete when a node is de-heaped, each node that
    carries a P point is qualified with an exact range-NN probe.
    """
    state = _LazyState(ref_view, k)
    state.heap.push(0.0, query_node)
    targets = {query_node}
    checked: set[int] = set()
    result: list[int] = []
    while state.heap:
        dist, _, node = state.heap.pop()
        if node in state.processed:
            continue
        state.processed[node] = dist
        ref_view.tracker.nodes_visited += 1
        if state.count.get(node, 0) >= k:
            continue
        ref_pid = ref_view.point_at(node)
        if ref_pid is not None and ref_pid not in exclude and ref_pid not in checked:
            checked.add(ref_pid)
            # Pruning side effects only; reference points are not results.
            _lazy_verify(state, ref_pid, node, dist, targets, exclude)
            if state.count.get(node, 0) >= k:
                # The node itself is now known to be disqualified; its
                # data point (if any) fails too (the reference point is
                # strictly closer to it than the query, k times over).
                continue
        data_pid = data_view.point_at(node)
        if data_pid is not None and _qualifies(ref_view, None, node, k, dist, exclude):
            result.append(data_pid)
        entry_ids = []
        neighbors = ref_view.neighbors(node)
        ref_view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in state.processed:
                entry_ids.append(state.heap.push(dist + weight, nbr))
        if entry_ids:
            state.entries_of[node] = entry_ids
    return sorted(result)
