"""Nearest-neighbor primitives on restricted networks.

Three queries from paper Section 3.1:

* :func:`knn` -- the k nearest data points of a node;
* :func:`range_nn` -- ``range-NN(n, k, e)``: the k nearest data points
  at distance *strictly smaller* than ``e`` (possibly fewer);
* :func:`verify` -- ``verify(p, k, q)``: whether the query location is
  among the k nearest neighbors of data point ``p``, implemented as a
  range-NN around ``p`` that terminates as soon as ``q`` is met.

:func:`rank_aggregate` ranks aggregate nearest neighbors from
per-member distances; every ``aggregate_nn`` path ranks through it.

Tie handling follows the RkNN definition
``RkNN(q) = {p | d(p, q) <= d(p, p_k(p))}``: a point belongs to the
result when *fewer than k* other points are **strictly** closer to it
than the query, so ties favor the query.

When the view carries a bound provider (``view.bounds``, see
:mod:`repro.oracle`), probes and verifications first consult the
answer-preserving pruning rules of :mod:`repro.oracle.prune`:
provably-empty probes skip their expansion, probes with a proven
result horizon stop early, and verifications the bounds decide
outright never expand at all.  Answers are bitwise identical either
way; only the expansion work shrinks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import AbstractSet, Iterable

from repro.core.expansion import expand_nodes
from repro.core.numeric import inflate_bound, strictly_less
from repro.core.network import NetworkView
from repro.oracle.prune import probe_plan, verify_plan

_EMPTY: frozenset[int] = frozenset()


def knn(
    view: NetworkView,
    source: int,
    k: int,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[tuple[int, float]]:
    """The ``k`` nearest data points of node ``source`` (ascending)."""
    return range_nn(view, source, k, math.inf, exclude)


def range_nn(
    view: NetworkView,
    source: int,
    k: int,
    radius: float,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[tuple[int, float]]:
    """``range-NN(source, k, radius)``: up to ``k`` points with distance
    strictly below ``radius``, in ascending distance order."""
    view.tracker.range_nn_calls += 1
    result: list[tuple[int, float]] = []
    if k <= 0 or radius <= 0:
        return result
    skip, horizon = probe_plan(view, source, k, radius, exclude)
    if skip:
        return result
    for node, dist in expand_nodes(view, [(source, 0.0)], max_dist=horizon):
        if not strictly_less(dist, radius):
            break
        pid = view.point_at(node)
        if pid is not None and pid not in exclude:
            result.append((pid, dist))
            if len(result) == k:
                break
    return result


def rank_aggregate(
    member_distances: Iterable[tuple[int, list[float]]],
    k: int,
    agg: str,
) -> tuple[tuple[int, float], ...]:
    """The ``k`` best aggregate nearest neighbors, ranked by ``(value, pid)``.

    ``member_distances`` yields ``(pid, distances)`` pairs, where
    ``distances`` holds one network distance per group member in group
    order (a repeated member repeats its distance) as plain floats.
    ``agg`` is ``"sum"`` or ``"max"``.  The scalar facades and the batch
    kernel both rank here, so their values are bitwise equal on every
    Python version (3.12 changed how ``sum`` rounds a float list).
    """
    chooser = sum if agg == "sum" else max
    scored = sorted((chooser(dists), pid) for pid, dists in member_distances)
    return tuple((pid, float(value)) for value, pid in scored[:k])


def verify(
    view: NetworkView,
    pid: int,
    k: int,
    targets: Iterable[int],
    bound: float,
    exclude: AbstractSet[int] = _EMPTY,
) -> bool:
    """``verify(p, k, q)``: is the query among the k NNs of point ``p``?

    Expands the network around ``p`` until a target node is met (for
    single-point queries ``targets`` holds the query node; continuous
    queries pass every node of the route, per Section 5.1).  ``bound``
    is any upper bound of ``d(p, q)`` -- the search fails once the
    frontier passes it.  Returns ``True`` iff fewer than ``k`` data
    points (other than ``p`` and ``exclude``) lie strictly closer to
    ``p`` than the first target met.
    """
    view.tracker.verifications += 1
    target_set = set(targets)
    decision, bound = verify_plan(view, pid, k, target_set, bound, exclude)
    if decision is not None:
        return decision
    bound = inflate_bound(bound)  # survive fp noise when d(p, q) == bound
    start = view.node_of(pid)
    point_dists: list[float] = []  # ascending distances of points seen
    for node, dist in expand_nodes(view, [(start, 0.0)], max_dist=bound):
        strictly_closer = bisect_left(point_dists, dist)
        if node in target_set:
            return strictly_closer < k
        if strictly_closer >= k:
            # k points already lie strictly below every future frontier
            # distance, hence strictly below d(p, q): p cannot qualify.
            return False
        other = view.point_at(node)
        if other is not None and other != pid and other not in exclude:
            insort(point_dists, dist)
    return False
