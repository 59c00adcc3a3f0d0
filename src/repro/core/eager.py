"""The eager RkNN algorithm (paper Section 3.2, Fig. 4) and eager-M
(Section 4.1), one loop.

Eager traverses the network around the query like Dijkstra, but applies
Lemma 1 at every de-heaped node *before* expanding it: a ``range-NN``
probe with range ``d(n, q)`` looks for data points strictly closer to
``n`` than the query.  If ``k`` such points exist the node cannot lead
to any further reverse neighbor, so its adjacency list is not expanded.
Every point the probes discover is verified once (is the query among
its k NNs?) and added to the result on success.

The algorithm performs many local expansions (one probe per visited
node), which is why the paper finds it CPU-heavy but I/O-light: probes
revisit pages that are almost always buffered.

Eager-M is the same loop handed the materialized K-NN lists: a node's
list replaces its probe, so the prune test and the candidate set come
for one logical read.  Verification is also short-circuited: for a
candidate ``p`` at node ``n'``, if the upper bound ``d(q, n) + d(n, p)``
of ``d(p, q)`` does not exceed the distance of the k-th *other* point in
``n'``'s list, ``p`` is a result without any expansion; only
inconclusive candidates fall back to a verify query.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable

from repro.core.materialize import MaterializedKNN, kth_other
from repro.core.network import NetworkView
from repro.core.nn import range_nn, verify
from repro.core.numeric import strictly_less
from repro.core.pq import CountingHeap

_EMPTY: frozenset[int] = frozenset()


def eager_rknn(
    view: NetworkView,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Monochromatic RkNN of a query located on ``query_node``.

    ``exclude`` removes data points from consideration for the duration
    of the query (used when the query is drawn from the data set and
    models a new arrival, as in the paper's workloads).
    """
    return eager(view, [query_node], k, exclude)


def eager_m_rknn(
    view: NetworkView,
    materialized: MaterializedKNN,
    query_node: int,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Monochromatic RkNN using materialized lists."""
    return eager(view, [query_node], k, exclude, materialized)


def eager(
    view: NetworkView,
    sources: Iterable[int],
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
    lists: MaterializedKNN | None = None,
) -> list[int]:
    """RkNN of a query on every node of ``sources`` (their union, as a
    route query of Section 5.1 asks), computed in a single expansion with
    the distance ``d(r, n) = min over sources``; eager-M when given the
    K-NN ``lists``."""
    if lists is not None:
        lists.check_capacity(k)
    heap = CountingHeap(view.tracker)
    source_set = set(sources)
    for node in source_set:
        heap.push(0.0, node)
    visited: set[int] = set()
    checked: set[int] = set()  # points already verified (or known results)
    result: list[int] = []

    # A data point on a source node is at distance 0 from the query, so
    # the query trivially is its nearest neighbor: no other point can be
    # strictly closer than 0.
    for node in source_set:
        pid = view.point_at(node)
        if pid is not None and pid not in exclude and pid not in checked:
            checked.add(pid)
            result.append(pid)

    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        view.tracker.nodes_visited += 1
        if lists is None:
            found = range_nn(view, node, k, dist, exclude)
        else:  # the (up to k) nearest listed points strictly closer than q
            found = [
                (pid, pdist) for pid, pdist in lists.get(node)
                if pid not in exclude and strictly_less(pdist, dist)
            ][:k]
        for pid, pdist in found:
            if pid in checked:
                continue
            checked.add(pid)
            # d(p, n) + d(n, q) upper-bounds d(p, q); verification stops
            # exactly when the query is met, so the bound is safe.
            bound = pdist + dist
            if lists is not None and _listed_result(view, lists, pid, k, bound, exclude):
                result.append(pid)
            elif verify(view, pid, k, source_set, bound, exclude):
                result.append(pid)
        if len(found) < k:
            # Lemma 1 does not apply: fewer than k points are strictly
            # closer to this node than the query, keep expanding.
            neighbors = view.neighbors(node)
            view.tracker.edges_expanded += len(neighbors)
            for nbr, weight in neighbors:
                if nbr not in visited:
                    heap.push(dist + weight, nbr)
    return sorted(result)


def _listed_result(
    view: NetworkView,
    lists: MaterializedKNN,
    pid: int,
    k: int,
    bound: float,
    exclude: AbstractSet[int],
) -> bool:
    """Whether the list of ``p``'s node proves ``p`` a result.

    ``bound`` upper-bounds ``d(p, q)``.  Let ``t`` be the distance of the
    k-th point other than ``p`` in that list.  When ``bound <= t`` the
    query is within ``p``'s k-th neighbor radius, so ``p`` qualifies
    without expansion; otherwise the outcome is unknown (``bound`` is
    only an upper bound) and the caller runs an exact verify query.
    """
    threshold = kth_other(lists.get(view.node_of(pid)), lists.capacity, pid, k, exclude)
    return threshold is not None and bound <= threshold
