"""RkNN processing in unrestricted networks (Section 5.2).

In an unrestricted network data points lie anywhere on edges, addressed
by ``<n_i, n_j, pos>`` triplets, and the query itself may be a node or
an edge position.  Distances combine node-mediated paths with the
*direct* same-edge segment (paper's ``d_L``), and the point file is a
separate paged store (Fig. 14b).

All four algorithms are provided.  The discovery of candidate points
differs from the paper's restricted setting in one deliberate way: in
addition to the range-NN probes, every non-pruned node scans the points
on its incident edges and submits them for verification.  This closes a
completeness gap of probe-only discovery -- a point just beyond a node
``n`` with ``d(n, p) >= d(n, q)`` is returned by no probe, yet can still
be a reverse neighbor (its shortest path to the query leaves through
``n``).  Since every node on a reverse neighbor's shortest path to the
query is unprunable under Lemma 1, scanning incident edges of non-pruned
nodes discovers every result; verification remains exact, so extra
candidates only cost work, never correctness.

Eager, lazy-EP and bichromatic eager share one query set-up
(``_QuerySpec``) and one relaxation step (``_relax``), which offers the
points on a node's incident edges.  Eager-M is eager's loop handed the
K-NN lists, and lazy-EP's second heap is the one
:class:`~repro.core.lazy_ep.ParallelExpansion`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import AbstractSet, Callable, Sequence

from repro.core.lazy import _LazyState
from repro.core.lazy_ep import ParallelExpansion
from repro.core.materialize import MaterializedKNN
from repro.core.network import NetworkView, offset_from
from repro.core.numeric import inflate_bound, strictly_less, tie_threshold
from repro.core.pq import CountingHeap
from repro.errors import QueryError
from repro.graph.graph import edge_key

_EMPTY: frozenset[int] = frozenset()

#: A location: a node id, or a canonical ``(u, v, pos)`` edge triplet.
Location = int | tuple[int, int, float]

_NODE = 0
_POINT = 1


# ---------------------------------------------------------------------------
# location helpers
# ---------------------------------------------------------------------------

def normalize_location(location: Location) -> Location:
    """Canonicalize an edge location to ``u < v`` with ``pos`` from ``u``."""
    if isinstance(location, int):
        return location
    u, v, pos = location
    if u == v:
        raise QueryError(f"location ({u}, {v}, {pos}) lies on a self-loop")
    if pos < 0:
        raise QueryError(f"negative edge offset {pos}")
    if (u, v) != edge_key(u, v):
        raise QueryError(
            f"pass edge locations in canonical order ({min(u, v)}, {max(u, v)}) "
            f"with the offset measured from node {min(u, v)}"
        )
    return (u, v, float(pos))


def location_seeds(view: NetworkView, location: Location) -> list[tuple[int, float]]:
    """Node seeds ``(node, offset)`` representing a location."""
    if isinstance(location, int):
        return [(location, 0.0)]
    u, v, pos = location
    weight = view.edge_weight(u, v)
    if pos > weight:
        raise QueryError(f"offset {pos} exceeds weight {weight} of edge ({u}, {v})")
    return [(u, pos), (v, weight - pos)]


def direct_distance(loc1: Location, loc2: Location) -> float | None:
    """Same-edge direct distance, or ``None`` for different edges/nodes."""
    if isinstance(loc1, int) or isinstance(loc2, int):
        return None
    if (loc1[0], loc1[1]) != (loc2[0], loc2[1]):
        return None
    return abs(loc1[2] - loc2[2])


# ---------------------------------------------------------------------------
# primitives: kNN / range-NN / verification
# ---------------------------------------------------------------------------

def unrestricted_range_nn(
    view: NetworkView,
    source: Location,
    k: int,
    radius: float,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[tuple[int, float]]:
    """``range-NN`` from a node or edge location over edge points (paper
    Section 5.2): up to ``k`` points strictly closer than ``radius``."""
    view.tracker.range_nn_calls += 1
    if k <= 0 or radius <= 0:
        return []
    return _expand_points(view, source, k, radius, exclude)


def unrestricted_knn(
    view: NetworkView,
    location: Location,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[tuple[int, float]]:
    """The k nearest edge points of an arbitrary location."""
    return _expand_points(view, location, k, math.inf, exclude)


def _expand_points(
    view: NetworkView,
    location: Location,
    k: int,
    radius: float,
    exclude: AbstractSet[int],
) -> list[tuple[int, float]]:
    """Up to ``k`` points strictly closer to ``location`` than ``radius``.

    The heap starts at the location's node seeds and at the points that
    share its edge (at their direct distance).  Points on the edges
    incident to a de-heaped node re-enter the heap as point entries, so
    points pop in ascending distance order and the same point
    discovered over two paths is reported once, at its true distance.
    """
    location = normalize_location(location)
    point_seeds: list[tuple[int, float]] = []
    if not isinstance(location, int):
        u, v, pos = location
        point_seeds = [(pid, abs(pos - ppos)) for pid, ppos in view.edge_points(u, v)
                       if pid not in exclude]
    heap = CountingHeap(view.tracker)
    for node, dist in location_seeds(view, location):
        heap.push(dist, (_NODE, node))
    for pid, dist in point_seeds:
        if dist < radius:
            heap.push(dist, (_POINT, pid))
    seen_nodes: set[int] = set()
    seen_points: set[int] = set()
    result: list[tuple[int, float]] = []
    while heap:
        dist, (kind, obj) = heap.pop()
        if not strictly_less(dist, radius):
            break
        if kind == _POINT:
            if obj in seen_points:
                continue
            seen_points.add(obj)
            result.append((obj, dist))
            if len(result) == k:
                break
            continue
        if obj in seen_nodes:
            continue
        seen_nodes.add(obj)
        view.tracker.nodes_visited += 1
        adjacency = view.neighbors(obj)
        view.tracker.edges_expanded += len(adjacency)
        for nbr, weight in adjacency:
            if view.has_points_on(obj, nbr):
                for pid, pos in view.edge_points(obj, nbr):
                    if pid in exclude or pid in seen_points:
                        continue
                    reach = dist + offset_from(obj, nbr, weight, pos)
                    if strictly_less(reach, radius):
                        heap.push(reach, (_POINT, pid))
            if nbr not in seen_nodes:
                ndist = dist + weight
                if strictly_less(ndist, radius):
                    heap.push(ndist, (_NODE, nbr))
    return result


def unrestricted_verify(
    view: NetworkView,
    count_view: NetworkView,
    p_loc: Location,
    skip_pid: int | None,
    k: int,
    target_nodes: AbstractSet[int],
    target_loc: Location | None,
    bound: float,
    exclude: AbstractSet[int] = _EMPTY,
    on_visit: Callable[[int, float], None] | None = None,
) -> bool:
    """Exact verification: is the query among the k NNs of a point?

    Expands around ``p_loc``; ``count_view`` supplies the points that
    compete with the query (equal to ``view`` for monochromatic, the
    reference view for bichromatic queries).  The query is "met" when a
    ``target_node`` is de-heaped, when an endpoint of ``target_loc``
    tightens the node-mediated bound, or via the same-edge direct
    segment; the smallest of these is the exact ``d(p, q)``.  ``bound``
    is any upper bound of ``d(p, q)``.  ``on_visit`` is the lazy
    algorithm's counting hook, called for every node the verification
    de-heaps.

    Returns ``True`` iff fewer than ``k`` counted points lie strictly
    closer to ``p`` than the query.
    """
    view.tracker.verifications += 1
    bound = inflate_bound(bound)  # survive fp noise when d(p, q) == bound
    p_loc = normalize_location(p_loc)
    best_q = math.inf
    if target_loc is not None:
        target_loc = normalize_location(target_loc)
        direct = direct_distance(p_loc, target_loc)
        if direct is not None:
            best_q = direct
        target_u, target_v, target_pos = target_loc
        target_weight = view.edge_weight(target_u, target_v)
    heap = CountingHeap(view.tracker)
    for node, offset in location_seeds(view, p_loc):
        heap.push(offset, (_NODE, node))
    if not isinstance(p_loc, int):
        u, v, pos = p_loc
        for pid, ppos in count_view.edge_points(u, v):
            if pid != skip_pid and pid not in exclude:
                heap.push(abs(pos - ppos), (_POINT, pid))
    seen_nodes: set[int] = set()
    seen_points: set[int] = set()
    point_dists: list[float] = []
    while heap:
        dist, (kind, obj) = heap.pop()
        if dist >= best_q or dist > bound:
            break
        if bisect_left(point_dists, tie_threshold(dist)) >= k:
            # k points strictly below every remaining candidate d(p, q)
            return False
        if kind == _POINT:
            if obj not in seen_points:
                seen_points.add(obj)
                insort(point_dists, dist)
            continue
        if obj in seen_nodes:
            continue
        seen_nodes.add(obj)
        view.tracker.nodes_visited += 1
        if on_visit is not None:
            on_visit(obj, dist)
        if obj in target_nodes:
            best_q = min(best_q, dist)
            continue
        if target_loc is not None:
            if obj == target_u:
                best_q = min(best_q, dist + target_pos)
            elif obj == target_v:
                best_q = min(best_q, dist + (target_weight - target_pos))
        limit = min(best_q, bound)
        adjacency = view.neighbors(obj)
        view.tracker.edges_expanded += len(adjacency)
        for nbr, weight in adjacency:
            if count_view.has_points_on(obj, nbr):
                for pid, pos in count_view.edge_points(obj, nbr):
                    if pid == skip_pid or pid in exclude or pid in seen_points:
                        continue
                    reach = dist + offset_from(obj, nbr, weight, pos)
                    if reach < limit:
                        heap.push(reach, (_POINT, pid))
            if nbr not in seen_nodes:
                ndist = dist + weight
                if ndist <= limit:
                    heap.push(ndist, (_NODE, nbr))
    if math.isinf(best_q):
        return False
    return bisect_left(point_dists, tie_threshold(best_q)) < k


# ---------------------------------------------------------------------------
# query set-up and relaxation shared by the algorithms
# ---------------------------------------------------------------------------

class _QuerySpec:
    """Seeds and targets derived from a query location or route."""

    def __init__(
        self,
        view: NetworkView,
        query: Location | None,
        route: Sequence[int] | None,
    ):
        if (query is None) == (route is None):
            raise QueryError("pass exactly one of query location or route")
        if route is None:
            query = normalize_location(query)
            if isinstance(query, int):
                route = (query,)
        #: Points on the query's own edge, at their direct distance.
        self.query_edge_points: list[tuple[int, float]] = []
        if route is not None:
            self.target_nodes: frozenset[int] = frozenset(route)
            self.target_loc: Location | None = None
            self.seeds = [(node, 0.0) for node in self.target_nodes]
        else:
            u, v, pos = query
            self.target_nodes = frozenset()
            self.target_loc = query
            self.seeds = location_seeds(view, query)
            self.query_edge_points = [
                (pid, abs(pos - ppos)) for pid, ppos in view.edge_points(u, v)
            ]


def _relax(
    view: NetworkView,
    heap: CountingHeap,
    visited: AbstractSet[int],
    node: int,
    dist: float,
    offer: Callable[[int, float], None],
) -> None:
    """Expand ``node``: offer every point on an incident edge with its
    distance through ``node``, and push the unvisited neighbors."""
    neighbors = view.neighbors(node)
    view.tracker.edges_expanded += len(neighbors)
    for nbr, weight in neighbors:
        if view.has_points_on(node, nbr):
            for pid, pos in view.edge_points(node, nbr):
                offer(pid, dist + offset_from(node, nbr, weight, pos))
        if nbr not in visited:
            heap.push(dist + weight, nbr)


# ---------------------------------------------------------------------------
# eager and eager-M
# ---------------------------------------------------------------------------

def unrestricted_eager(
    view: NetworkView,
    query: Location | None = None,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
    route: Sequence[int] | None = None,
    lists: MaterializedKNN | None = None,
) -> list[int]:
    """Eager RkNN over edge points (single location or route query).

    Given the K-NN ``lists`` it runs eager-M: probes come from the lists
    and candidate verification is short-circuited through the
    k-th-neighbor distance computed by merging the lists of the
    candidate's edge endpoints (paper Section 5.2, last paragraph of
    4.1).
    """
    if lists is not None:
        lists.check_capacity(k)
    spec = _QuerySpec(view, query, route)
    heap = CountingHeap(view.tracker)
    for node, dist in spec.seeds:
        heap.push(dist, node)
    visited: set[int] = set()
    checked: set[int] = set()
    result: list[int] = []

    def consider(pid: int, bound: float) -> None:
        if pid in exclude or pid in checked:
            return
        checked.add(pid)
        if lists is not None and _listed_result(view, lists, pid, k, bound, exclude):
            result.append(pid)
        elif unrestricted_verify(
            view, view, view.point_location(pid), pid, k,
            spec.target_nodes, spec.target_loc, bound, exclude,
        ):
            result.append(pid)

    for pid, bound in spec.query_edge_points:
        consider(pid, bound)

    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        view.tracker.nodes_visited += 1
        if lists is None:
            found = unrestricted_range_nn(view, node, k, dist, exclude)
        else:
            found = [
                (pid, pdist) for pid, pdist in lists.get(node)
                if pid not in exclude and pdist < dist
            ][:k]
        for pid, pdist in found:
            consider(pid, dist + pdist)
        if len(found) < k:
            _relax(view, heap, visited, node, dist, consider)
    return sorted(result)


def _listed_result(
    view: NetworkView,
    lists: MaterializedKNN,
    pid: int,
    k: int,
    bound: float,
    exclude: AbstractSet[int],
) -> bool:
    """Whether ``bound`` (an upper bound of ``d(p, q)``) is within the
    exact distance from point ``pid`` to its k-th *other* neighbor,
    derived from the materialized lists of its edge's endpoints plus the
    points sharing its edge.  ``False`` also when the truncated lists
    cannot answer exactly (the caller then runs a verify query).

    A point absent from the full list of endpoint ``a`` is at least
    ``offset(a) + last(a)`` from ``pid`` through ``a``, where ``last(a)``
    is the list's largest distance.  So the k-th merged distance is
    exact when it reaches no farther than that for every full list.
    Counting the K stored points is not enough: ``pid`` itself and
    excluded points may take some of the K slots.
    """
    u, v, pos = view.point_location(pid)
    weight = view.edge_weight(u, v)
    merged: dict[int, float] = {}

    def offer(other: int, dist: float) -> None:
        if other != pid and other not in exclude:
            current = merged.get(other)
            if current is None or dist < current:
                merged[other] = dist

    list_u = lists.get(u)
    list_v = lists.get(v)
    for other, dist in list_u:
        offer(other, pos + dist)
    for other, dist in list_v:
        offer(other, (weight - pos) + dist)
    for other, opos in view.edge_points(u, v):
        offer(other, abs(pos - opos))
    distances = sorted(merged.values())
    capacity = lists.capacity
    if len(distances) >= k:
        kth = distances[k - 1]
        return bound <= kth and all(
            len(entries) < capacity or kth <= offset + entries[-1][1]
            for offset, entries in ((pos, list_u), (weight - pos, list_v))
        )
    # Both lists complete: every reachable point was merged, so fewer
    # than k others exist and the point always qualifies.
    return len(list_u) < capacity and len(list_v) < capacity


# ---------------------------------------------------------------------------
# lazy
# ---------------------------------------------------------------------------

def unrestricted_lazy(
    view: NetworkView,
    query: Location | None = None,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
    route: Sequence[int] | None = None,
) -> list[int]:
    """Lazy RkNN over edge points.

    Pruning happens while processing edges (Section 5.2): a relaxation
    across an edge carrying ``k``-or-more points (strictly closer to the
    far endpoint than the query along that path) is suppressed, and the
    verification queries of discovered points bump per-node counters
    exactly as in the restricted algorithm.
    """
    spec = _QuerySpec(view, query, route)
    state = _LazyState(view, k)
    for node, dist in spec.seeds:
        state.heap.push(dist, node)
    checked: set[int] = set()
    result: list[int] = []

    def consider(pid: int, bound: float, frontier: float) -> None:
        if pid in exclude or pid in checked:
            return
        checked.add(pid)

        def on_visit(visited_node: int, vdist: float) -> None:
            processed_dist = state.processed.get(visited_node)
            if processed_dist is None:
                if strictly_less(vdist, frontier):
                    state.bump_count(visited_node)
            elif strictly_less(vdist, processed_dist):
                state.bump_count(visited_node)

        if unrestricted_verify(
            view, view, view.point_location(pid), pid, k,
            spec.target_nodes, spec.target_loc, bound, exclude, on_visit,
        ):
            result.append(pid)

    for pid, bound in spec.query_edge_points:
        consider(pid, bound, 0.0)

    while state.heap:
        dist, _, node = state.heap.pop()
        if node in state.processed:
            continue
        state.processed[node] = dist
        view.tracker.nodes_visited += 1
        if state.count.get(node, 0) >= k:
            continue
        entry_ids: list[int] = []
        neighbors = view.neighbors(node)
        view.tracker.edges_expanded += len(neighbors)
        for nbr, weight in neighbors:
            closer_on_edge = 0
            if view.has_points_on(node, nbr):
                for pid, pos in view.edge_points(node, nbr):
                    if pid in exclude:
                        continue
                    offset = offset_from(node, nbr, weight, pos)
                    if strictly_less(weight - offset, dist + weight):
                        # strictly closer to nbr than the query would be
                        # along this relaxation (d(nbr, q) <= dist + weight)
                        closer_on_edge += 1
                    consider(pid, dist + offset, dist)
            if nbr not in state.processed and closer_on_edge < k:
                entry_ids.append(state.heap.push(dist + weight, nbr))
        if entry_ids:
            state.entries_of[node] = entry_ids
    return sorted(result)


# ---------------------------------------------------------------------------
# lazy-EP
# ---------------------------------------------------------------------------

def unrestricted_lazy_ep(
    view: NetworkView,
    query: Location | None = None,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
    route: Sequence[int] | None = None,
) -> list[int]:
    """Lazy-EP over edge points: the second heap expands discovered
    points from their edge locations and prunes the main expansion via
    each node's k-th discovered-point distance."""
    spec = _QuerySpec(view, query, route)
    heap = CountingHeap(view.tracker)
    for node, dist in spec.seeds:
        heap.push(dist, node)
    parallel = ParallelExpansion(
        view, k, lambda pid: location_seeds(view, view.point_location(pid))
    )
    visited: set[int] = set()
    checked: set[int] = set()
    result: list[int] = []

    def consider(pid: int, bound: float) -> None:
        if pid in exclude:
            return
        parallel.add_point(pid)
        if pid in checked:
            return
        checked.add(pid)
        if unrestricted_verify(
            view, view, view.point_location(pid), pid, k,
            spec.target_nodes, spec.target_loc, bound, exclude,
        ):
            result.append(pid)

    for pid, bound in spec.query_edge_points:
        consider(pid, bound)

    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        view.tracker.nodes_visited += 1
        parallel.advance(dist)
        if strictly_less(parallel.kth_dist(node), dist):
            continue  # Lemma 1 via discovered points
        _relax(view, heap, visited, node, dist, consider)
    return sorted(result)


# ---------------------------------------------------------------------------
# bichromatic
# ---------------------------------------------------------------------------

def unrestricted_bichromatic_eager(
    data_view: NetworkView,
    ref_view: NetworkView,
    query: Location,
    k: int = 1,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """Bichromatic RkNN with both point sets on edges.

    The expansion and pruning run over the reference set Q; candidate P
    points are collected from the incident edges of non-pruned nodes
    (plus the query's own edge) and verified exactly against Q.
    """
    spec = _QuerySpec(data_view, query, None)
    heap = CountingHeap(ref_view.tracker)
    for node, dist in spec.seeds:
        heap.push(dist, node)
    visited: set[int] = set()
    checked: set[int] = set()
    result: list[int] = []

    def consider(pid: int, bound: float) -> None:
        if pid in checked:
            return
        checked.add(pid)
        if unrestricted_verify(
            ref_view, ref_view, data_view.point_location(pid), None, k,
            spec.target_nodes, spec.target_loc, bound, exclude,
        ):
            result.append(pid)

    for pid, bound in spec.query_edge_points:
        consider(pid, bound)

    while heap:
        dist, node = heap.pop()
        if node in visited:
            continue
        visited.add(node)
        ref_view.tracker.nodes_visited += 1
        if len(unrestricted_range_nn(ref_view, node, k, dist, exclude)) < k:
            _relax(data_view, heap, visited, node, dist, consider)
    return sorted(result)
