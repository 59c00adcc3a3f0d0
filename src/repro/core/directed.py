"""RkNN queries on directed networks (paper Section 7 future work).

In a directed network the distance is asymmetric, so
``RkNN(q) = {p | d(p -> q) <= d(p -> p_k(p))}`` with every distance
measured *from* the data point.  The undirected machinery adapts as
follows:

* the main traversal expands **backwards** from the query over incoming
  arcs, visiting nodes in ascending ``d(n -> q)`` -- the reverse
  expansion enumerates exactly the nodes that can reach the query;
* Lemma 1 becomes: if ``k`` points ``x`` satisfy
  ``d(n -> x) < d(n -> q)``, no point beyond ``n`` (whose shortest path
  to the query passes through ``n``) can be a reverse neighbor, because
  ``d(p -> x) <= d(p -> n) + d(n -> x) < d(p -> n) + d(n -> q) = d(p -> q)``.
  The prune test is a **forward** range-NN probe from ``n``.  One
  exception survives the argument: when the candidate beyond ``n`` *is*
  one of the ``k`` witnesses, that witness does not count against it (a
  point is never its own competitor), so the witnesses themselves are
  verified as candidates before the node is pruned -- exactly like the
  undirected eager algorithm, whose probes double as candidate
  discovery;
* verification expands **forwards** from a candidate point until the
  query is met, counting points that are strictly closer.

Candidates are the points residing on backward-visited nodes: a point
that cannot reach the query is never a reverse neighbor, and a point
whose node pops at an inflated distance (its true backward paths were
pruned) is disqualified by the directed Lemma 1, so the exact pop
distance ``d(p -> q)`` is available whenever it matters.

Unlike the undirected case, lazy evaluation does not transfer: a
verification discovers forward distances ``d(p -> m)``, which say
nothing about ``d(m -> p)``, so discovered points cannot prune the
backward traversal.  The module therefore provides ``eager``, eager-M
(eager's loop handed the forward K-NN lists: a node's list supplies
its witnesses, and a candidate's verification collapses to a single
list read) and the ``naive`` full backward sweep as the baseline.

Only those traversals are directed code.  An undirected edge is
an arc in both directions, so the forward probes are the shared ones of
:mod:`repro.core.nn` and the forward K-NN lists are built and
maintained by :mod:`repro.core.materialize`, both run over a
:class:`DirectedView`: its ``neighbors`` are out-arcs and its
``in_neighbors`` in-arcs.
"""

from __future__ import annotations

import math
from typing import AbstractSet

from repro.core.materialize import MaterializedKNN, kth_other
from repro.core.network import NetworkView
from repro.core.nn import range_nn, verify
from repro.core.numeric import strictly_less
from repro.core.pq import CountingHeap
from repro.errors import QueryError
from repro.points.points import NodePointSet

_EMPTY: frozenset[int] = frozenset()

#: Methods accepted by :func:`directed_rknn`.
METHODS = ("eager", "eager-m", "naive")


class DirectedView(NetworkView):
    """A :class:`~repro.core.network.NetworkView` whose out-arcs and
    in-arcs differ.

    ``neighbors`` are a node's out-arcs, so the shared probes
    (:func:`~repro.core.nn.knn`, :func:`~repro.core.nn.range_nn`,
    :func:`~repro.core.nn.verify`) measure forward distances
    ``d(n -> x)``; ``in_neighbors`` are its in-arcs, along which the
    backward traversals below and the K-NN list routines of
    :mod:`repro.core.materialize` relax.  Points live on nodes.
    """

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Out-arcs of ``node`` as ``(head, weight)`` pairs (charged)."""
        return self.disk.out_neighbors(node)

    def in_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """In-arcs of ``node`` as ``(tail, weight)`` pairs (charged)."""
        return self.disk.in_neighbors(node)


def directed_rknn(
    view: DirectedView,
    query_node: int,
    k: int = 1,
    method: str = "eager",
    materialized: MaterializedKNN | None = None,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Directed monochromatic RkNN of a query located on a node."""
    if method == "eager":
        return _directed_eager(view, query_node, k, exclude)
    if method == "eager-m":
        if materialized is None:
            raise QueryError(
                "method 'eager-m' needs materialized K-NN lists; call materialize() first"
            )
        return _directed_eager(view, query_node, k, exclude, materialized)
    if method == "naive":
        return _directed_naive(view, query_node, k, exclude)
    raise QueryError(f"unknown method {method!r}; choose one of {METHODS}")


def _directed_eager(
    view: DirectedView,
    query_node: int,
    k: int,
    exclude: AbstractSet[int],
    lists: MaterializedKNN | None = None,
) -> list[int]:
    """Directed eager; eager-M when given the forward K-NN ``lists``."""
    if lists is not None:
        lists.check_capacity(k)
    targets = (query_node,)
    heap = CountingHeap(view.tracker)
    heap.push(0.0, query_node)
    visited: set[int] = set()
    checked: set[int] = set()  # points already verified
    result: list[int] = []
    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        view.tracker.nodes_visited += 1
        raw = None if lists is None else lists.get(node)
        pid = view.point_at(node)
        if pid is not None and pid not in exclude and pid not in checked:
            checked.add(pid)
            # dist is d(p -> q) (exact whenever p can qualify).  The list
            # of p's node stores d(p -> x) exactly, so p qualifies iff
            # d(p -> q) <= t, the k-th other entry; a list that
            # exclusions leave short falls back to a verify query.
            threshold = None if raw is None else kth_other(raw, lists.capacity, pid, k, exclude)
            if threshold is None:
                qualified = verify(view, pid, k, targets, dist, exclude)
            else:
                qualified = not strictly_less(threshold, dist)
            if qualified:
                result.append(pid)
        if raw is None:
            closer = range_nn(view, node, k, dist, exclude)
        else:
            closer = [e for e in raw if e[0] not in exclude and strictly_less(e[1], dist)]
        if len(closer) >= k:
            # Directed Lemma 1: beyond this node, only the witnesses
            # themselves can still qualify (a point never counts
            # against itself) -- verify them, then prune.
            for wpid, _ in closer:
                if wpid not in checked:
                    checked.add(wpid)
                    if verify(view, wpid, k, targets,
                              _witness_bound(view, lists, wpid, k, exclude), exclude):
                        result.append(wpid)
            continue
        neighbors = view.in_neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in visited:
                heap.push(dist + weight, nbr)
    return sorted(result)


def _witness_bound(
    view: DirectedView,
    lists: MaterializedKNN | None,
    pid: int,
    k: int,
    exclude: AbstractSet[int],
) -> float:
    """An upper bound of the forward verification of a pruning witness
    (no ``d(p -> q)`` is known for it).

    The witness's own list yields the exact k-th-competitor distance;
    without lists, or with a truncated or exclusion-shortened list, the
    expansion is unbounded.
    """
    if lists is None:
        return math.inf
    raw = lists.get(view.node_of(pid))
    threshold = kth_other(raw, lists.capacity, pid, k, exclude)
    return math.inf if threshold is None else threshold


def _directed_naive(
    view: DirectedView,
    query_node: int,
    k: int,
    exclude: AbstractSet[int],
) -> list[int]:
    """Backward sweep without pruning: the directed baseline."""
    heap = CountingHeap(view.tracker)
    heap.push(0.0, query_node)
    visited: set[int] = set()
    result: list[int] = []
    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        view.tracker.nodes_visited += 1
        pid = view.point_at(node)
        if pid is not None and pid not in exclude:
            if verify(view, pid, k, (query_node,), dist, exclude):
                result.append(pid)
        neighbors = view.in_neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            if nbr not in visited:
                heap.push(dist + weight, nbr)
    return sorted(result)


def brute_force_directed_rknn(
    graph,
    points: NodePointSet,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Directed oracle: full forward Dijkstra per data point."""
    import heapq

    def forward_dists(source: int, cutoff: float) -> dict[int, float]:
        dists: dict[int, float] = {}
        heap = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node in dists or dist > cutoff:
                continue
            dists[node] = dist
            for nbr, weight in graph.out_neighbors(node):
                if nbr not in dists:
                    heapq.heappush(heap, (dist + weight, nbr))
        return dists

    result = []
    for pid, node in points.items():
        if pid in exclude:
            continue
        reach = forward_dists(node, math.inf)
        dist_pq = reach.get(query_node)
        if dist_pq is None:
            continue
        strictly_closer = 0
        for other, onode in points.items():
            if other == pid or other in exclude:
                continue
            dist = reach.get(onode)
            if dist is not None and dist < dist_pq:
                strictly_closer += 1
                if strictly_closer >= k:
                    break
        if strictly_closer < k:
            result.append(pid)
    return sorted(result)
