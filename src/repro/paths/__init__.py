"""Shortest-path substrate (paper Section 2.2).

The RkNN algorithms of the paper are built on *network expansion*
(:mod:`repro.core.expansion`); this package provides the classical
point-to-point machinery the paper surveys as related work:

* :func:`~repro.paths.dijkstra.shortest_path` -- Dijkstra's algorithm
  [4] with early termination and path reconstruction;
* :func:`~repro.paths.astar.astar_path` -- A* search [15] guided by an
  admissible heuristic (Euclidean coordinates or ALT landmarks);
* :func:`~repro.paths.bidirectional.bidirectional_search` -- meeting
  two Dijkstra frontiers in the middle;
* :class:`~repro.paths.landmarks.LandmarkIndex` -- the ALT
  (A*, Landmarks, Triangle inequality) preprocessing step, the
  graph-only analogue of the paper's remark that Euclidean bounds may
  be unavailable or invalid in general networks.  It is the
  :class:`~repro.oracle.oracle.DistanceOracle` built over an in-memory
  adjacency, not a second ALT implementation.

All functions work both on the in-memory :class:`~repro.graph.graph.Graph`
and on the charged :class:`~repro.core.network.NetworkView`, because
they only require a ``neighbors(node)`` method.
"""

from repro.paths.astar import astar_path, euclidean_heuristic, zero_heuristic
from repro.paths.bidirectional import bidirectional_search
from repro.paths.dijkstra import (
    PathResult,
    shortest_path,
    shortest_path_tree,
    single_source_distances,
)
from repro.paths.landmarks import LandmarkIndex

__all__ = [
    "PathResult",
    "shortest_path",
    "shortest_path_tree",
    "single_source_distances",
    "astar_path",
    "euclidean_heuristic",
    "zero_heuristic",
    "bidirectional_search",
    "LandmarkIndex",
]
