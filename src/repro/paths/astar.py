"""A* search [15] with pluggable admissible heuristics.

The paper notes (Section 2.2) that in spatial networks the Euclidean
distance lower-bounds the network distance and can guide the search
(A*, the Euclidean restriction framework of [12]) -- but that in
general graphs the Euclidean distance "may be undefined ... or may not
provide a bound".  This module makes that observation executable:

* :func:`euclidean_heuristic` is valid exactly when edge weights are
  at least the Euclidean length of the edge (e.g. the SF-style spatial
  generator, where weights *are* Euclidean lengths);
* :class:`~repro.paths.landmarks.LandmarkIndex` (a
  :class:`~repro.oracle.oracle.DistanceOracle` over the graph) provides
  bounds that are always valid because they are derived from the
  network metric itself (triangle inequality over precomputed landmark
  distances);
* :func:`zero_heuristic` degrades A* to plain Dijkstra, the safe
  default the paper adopts.

With an admissible heuristic, A* settles no more nodes than Dijkstra
and returns the same distances.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.core.pq import CountingHeap
from repro.errors import QueryError
from repro.paths.dijkstra import Adjacency, PathResult, reconstruct

#: A heuristic maps a node id to a lower bound of its distance to the target.
Heuristic = Callable[[int], float]


def zero_heuristic(_node: int) -> float:
    """The trivial (always admissible) bound: A* becomes Dijkstra."""
    return 0.0


def euclidean_heuristic(
    coords: Sequence[tuple[float, float]],
    target: int,
    scale: float = 1.0,
) -> Heuristic:
    """Straight-line lower bound for spatial graphs.

    ``scale`` converts coordinate units into weight units; it must not
    exceed ``min(edge weight / edge length)`` or the bound stops being
    admissible and A* may return suboptimal paths.  For graphs whose
    weights are exactly the Euclidean edge lengths (the paper's SF
    network), the natural choice is ``scale=1``.
    """
    if not 0 <= target < len(coords):
        raise QueryError(f"target {target} has no coordinates")
    tx, ty = coords[target]

    def bound(node: int) -> float:
        x, y = coords[node]
        return scale * math.hypot(x - tx, y - ty)

    return bound


def astar_path(
    graph: Adjacency,
    source: int,
    target: int,
    heuristic: Heuristic | None = None,
) -> PathResult:
    """A* from ``source`` to ``target`` under an admissible ``heuristic``.

    The heuristic is evaluated once per generated node.  With
    ``heuristic=None`` this is exactly point-to-point Dijkstra.
    """
    if heuristic is None:
        heuristic = zero_heuristic
    if source == target:
        return PathResult(0.0, (source,), nodes_settled=0)
    heap = CountingHeap()
    heap.push(heuristic(source), (0.0, source, source))
    parent: dict[int, int] = {}
    while heap:
        _, (dist, node, from_node) = heap.pop()
        if node in parent:
            continue
        parent[node] = from_node
        if node == target:
            return PathResult(dist, reconstruct(parent, source, target), len(parent))
        for nbr, weight in graph.neighbors(node):
            if nbr not in parent:
                ndist = dist + weight
                heap.push(ndist + heuristic(nbr), (ndist, nbr, node))
    return PathResult(math.inf, (), len(parent))
