"""Query-time access layer over the disk-resident network.

:class:`NetworkView` bundles what every query algorithm needs:

* the adjacency file (:class:`~repro.storage.disk.DiskGraph`) -- charged
  logical reads;
* the data points -- an in-memory index for restricted networks (the
  paper's node-id index stores the point a node contains), or a charged
  :class:`~repro.storage.disk.EdgePointStore` for unrestricted ones;
* the shared :class:`~repro.storage.stats.CostTracker`.

``neighbors`` are the arcs an expansion follows *out* of a node and
``in_neighbors`` the arcs *into* it.  An undirected edge is an arc in
both directions, so here the two are the same adjacency list;
:class:`~repro.core.directed.DirectedView` tells them apart, and the
probes of :mod:`repro.core.nn` and the K-NN list routines of
:mod:`repro.core.materialize` serve both directions unchanged.

Bichromatic queries build two views (one per point set) over the *same*
disk graph and buffer, so both expansions share the cache exactly as a
single system would.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import QueryError
from repro.graph.graph import edge_key
from repro.points.points import EdgePointSet, NodePointSet, PointSet
from repro.storage.disk import DiskGraph, EdgePointStore
from repro.storage.stats import CostTracker


def offset_from(node: int, other: int, weight: float, pos: float) -> float:
    """Distance along edge ``(node, other)`` from ``node`` to a point at
    offset ``pos`` (edge offsets are measured from the smaller endpoint)."""
    return pos if node < other else weight - pos


class NetworkView:
    """Uniform access to the network and one data-point set."""

    def __init__(
        self,
        disk: DiskGraph,
        points: PointSet,
        tracker: CostTracker,
        edge_store: EdgePointStore | None = None,
        bounds=None,
    ):
        self.disk = disk
        self.tracker = tracker
        self.restricted = points.restricted
        #: Optional :class:`~repro.oracle.bounds.LowerBoundProvider`
        #: consulted by the expansion loops (answer-preserving pruning).
        self.bounds = bounds
        if isinstance(points, NodePointSet):
            self._node_points: NodePointSet | None = points
            self._edge_points: EdgePointSet | None = None
            self._edge_store = None
        elif isinstance(points, EdgePointSet):
            if edge_store is None:
                raise QueryError("unrestricted views need an EdgePointStore")
            self._node_points = None
            self._edge_points = points
            self._edge_store = edge_store
        else:  # pragma: no cover - defensive
            raise QueryError(f"unsupported point set type {type(points).__name__}")

    # -- graph ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes of the network."""
        return self.disk.num_nodes

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Adjacency list of ``node`` (charged through the buffer)."""
        return self.disk.neighbors(node)

    #: Arcs into a node: on an undirected network, its adjacency list.
    in_neighbors = neighbors

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``, found by reading ``u``'s adjacency list.

        This is a charged read like any other adjacency access; callers
        that already iterate the list should use the weight from there.
        """
        for nbr, weight in self.neighbors(u):
            if nbr == v:
                return weight
        raise QueryError(f"no edge between {u} and {v}")

    # -- points ---------------------------------------------------------------

    @property
    def num_points(self) -> int:
        """Number of data points in the view's point set."""
        points = self._node_points or self._edge_points
        return len(points) if points is not None else 0

    def point_ids(self) -> Iterable[int]:
        """Ids of the view's data points."""
        points = self._node_points or self._edge_points
        return points.ids() if points is not None else ()

    def point_at(self, node: int) -> int | None:
        """Point on ``node`` (restricted networks; free index look-up)."""
        if self._node_points is None:
            raise QueryError("point_at() requires a restricted network")
        return self._node_points.point_at(node)

    def node_of(self, pid: int) -> int:
        """Node holding point ``pid`` (restricted networks)."""
        if self._node_points is None:
            raise QueryError("node_of() requires a restricted network")
        return self._node_points.node_of(pid)

    def edge_points(self, u: int, v: int) -> tuple[tuple[int, float], ...]:
        """Points on edge ``(u, v)`` (unrestricted; charged read)."""
        if self._edge_store is None:
            raise QueryError("edge_points() requires an unrestricted network")
        return self._edge_store.points_on(u, v)

    def point_location(self, pid: int) -> tuple[int, int, float]:
        """The ``(u, v, pos)`` triplet of point ``pid`` (unrestricted)."""
        if self._edge_points is None:
            raise QueryError("point_location() requires an unrestricted network")
        return self._edge_points.location(pid)

    def has_points_on(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` carries points (free index look-up)."""
        if self._edge_points is None:
            raise QueryError("has_points_on() requires an unrestricted network")
        return bool(self._edge_points.points_on(*edge_key(u, v)))
