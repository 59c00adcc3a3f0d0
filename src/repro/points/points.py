"""Data-point sets over a network.

The paper separates the (static) network from the (dynamic) data points
(Section 1).  Two placements are supported:

* **restricted** networks -- every point lies on a node, and a node
  holds at most one relevant point (paper Fig. 1a, Section 3);
* **unrestricted** networks -- points lie anywhere on edges and are
  addressed as ``<n_i, n_j, pos>`` with ``i < j`` and ``pos`` measured
  from ``n_i`` (paper Fig. 14, Section 5.2).

Point ids are arbitrary non-negative integers chosen by the caller
(e.g. author ids, block ids).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import PointError
from repro.graph.graph import Graph, edge_key


class PointSet:
    """Common interface of :class:`NodePointSet` and :class:`EdgePointSet`."""

    restricted: bool

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, pid: int) -> bool:
        raise NotImplementedError

    def ids(self) -> Iterator[int]:
        """Iterate the point ids."""
        raise NotImplementedError

    def validate(self, graph: Graph) -> None:
        """Raise :class:`PointError` if the set is inconsistent with ``graph``."""
        raise NotImplementedError


class NodePointSet(PointSet):
    """Points lying on graph nodes; at most one point per node."""

    restricted = True

    def __init__(self, locations: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = locations.items() if isinstance(locations, Mapping) else locations
        self._node_of: dict[int, int] = {}
        self._point_at: dict[int, int] = {}
        for pid, node in items:
            if pid < 0:
                raise PointError(f"point id must be non-negative, got {pid}")
            if pid in self._node_of:
                raise PointError(f"duplicate point id {pid}")
            if node in self._point_at:
                raise PointError(
                    f"node {node} already holds point {self._point_at[node]}; "
                    "restricted networks allow one point per node"
                )
            self._node_of[pid] = node
            self._point_at[node] = pid

    def __len__(self) -> int:
        return len(self._node_of)

    def __contains__(self, pid: int) -> bool:
        return pid in self._node_of

    def ids(self) -> Iterator[int]:
        """Iterate the point ids."""
        return iter(self._node_of)

    def items(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(point_id, node)`` pairs."""
        return iter(self._node_of.items())

    def node_of(self, pid: int) -> int:
        """Node that holds point ``pid``."""
        try:
            return self._node_of[pid]
        except KeyError:
            raise PointError(f"unknown point id {pid}") from None

    def point_at(self, node: int) -> int | None:
        """Point residing on ``node``, or ``None`` if the node is empty."""
        return self._point_at.get(node)

    def validate(self, graph: Graph) -> None:
        """Raise :class:`PointError` for a point on a node outside
        ``graph`` (any graph with ``num_nodes``, directed ones too)."""
        for pid, node in self._node_of.items():
            if not 0 <= node < graph.num_nodes:
                raise PointError(f"point {pid} lies on unknown node {node}")

    def with_point(self, pid: int, node: int) -> "NodePointSet":
        """A copy of the set with one extra point (used by update benches)."""
        items = dict(self._node_of)
        if pid in items:
            raise PointError(f"point id {pid} already present")
        items[pid] = node
        return NodePointSet(items)

    def without_point(self, pid: int) -> "NodePointSet":
        """A copy of the set with ``pid`` removed."""
        items = dict(self._node_of)
        if pid not in items:
            raise PointError(f"unknown point id {pid}")
        del items[pid]
        return NodePointSet(items)


class EdgePointSet(PointSet):
    """Points lying on edges, addressed as ``<u, v, pos>`` with ``u < v``."""

    restricted = False

    def __init__(
        self,
        locations: Mapping[int, tuple[int, int, float]]
        | Iterable[tuple[int, tuple[int, int, float]]],
    ):
        items = locations.items() if isinstance(locations, Mapping) else locations
        self._loc_of: dict[int, tuple[int, int, float]] = {}
        self._points_on: dict[tuple[int, int], list[tuple[int, float]]] = {}
        for pid, (u, v, pos) in items:
            if pid < 0:
                raise PointError(f"point id must be non-negative, got {pid}")
            if pid in self._loc_of:
                raise PointError(f"duplicate point id {pid}")
            if u == v:
                raise PointError(f"point {pid} lies on a self-loop ({u}, {v})")
            if pos < 0:
                raise PointError(f"point {pid} has negative offset {pos}")
            a, b = edge_key(u, v)
            # normalize: offsets are always measured from the smaller endpoint
            norm_pos = float(pos) if (u, v) == (a, b) else None
            if norm_pos is None:
                raise PointError(
                    f"point {pid}: pass the edge in canonical order "
                    f"({a}, {b}) with the offset measured from node {a}"
                )
            self._loc_of[pid] = (a, b, norm_pos)
            self._points_on.setdefault((a, b), []).append((pid, norm_pos))
        for plist in self._points_on.values():
            plist.sort(key=lambda item: (item[1], item[0]))

    def __len__(self) -> int:
        return len(self._loc_of)

    def __contains__(self, pid: int) -> bool:
        return pid in self._loc_of

    def ids(self) -> Iterator[int]:
        """Iterate the point ids."""
        return iter(self._loc_of)

    def items(self) -> Iterator[tuple[int, tuple[int, int, float]]]:
        """Iterate ``(point_id, (u, v, pos))`` tuples."""
        return iter(self._loc_of.items())

    def location(self, pid: int) -> tuple[int, int, float]:
        """The ``(u, v, pos)`` triplet of point ``pid``."""
        try:
            return self._loc_of[pid]
        except KeyError:
            raise PointError(f"unknown point id {pid}") from None

    def points_on(self, u: int, v: int) -> list[tuple[int, float]]:
        """Points on edge ``(u, v)`` as ``(pid, offset-from-min-endpoint)``."""
        return list(self._points_on.get(edge_key(u, v), ()))

    def edges_with_points(self) -> Iterator[tuple[int, int]]:
        """Canonical edges that carry at least one point."""
        return iter(self._points_on)

    def validate(self, graph: Graph) -> None:
        """Raise :class:`PointError` for a point on an edge ``graph``
        lacks, or at an offset past the edge's weight."""
        for pid, (u, v, pos) in self._loc_of.items():
            if not graph.has_edge(u, v):
                raise PointError(f"point {pid} lies on missing edge ({u}, {v})")
            weight = graph.weight(u, v)
            if pos > weight:
                raise PointError(
                    f"point {pid} offset {pos} exceeds edge weight {weight}"
                )

    def with_point(self, pid: int, location: tuple[int, int, float]) -> "EdgePointSet":
        """A copy of the set with one extra point."""
        items = dict(self._loc_of)
        if pid in items:
            raise PointError(f"point id {pid} already present")
        items[pid] = location
        return EdgePointSet(items)

    def without_point(self, pid: int) -> "EdgePointSet":
        """A copy of the set with ``pid`` removed."""
        items = dict(self._loc_of)
        if pid not in items:
            raise PointError(f"unknown point id {pid}")
        del items[pid]
        return EdgePointSet(items)
