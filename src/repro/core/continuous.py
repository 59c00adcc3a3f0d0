"""Continuous RkNN queries along routes (Section 5.1).

For objects moving on a graph the paper replaces Euclidean continuous
queries by route queries: given a route ``r = <n_1, ..., n_r>`` (a walk
along edges), ``cRkNN(r)`` is the union of the RkNN sets of the route's
nodes.  All four algorithms support routes natively by seeding their
heaps with every route node at distance 0, which realizes the route
distance ``d(r, n) = min_i d(n_i, n)``; this module adds route
validation and a method dispatcher.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

from repro.core.eager import eager_rknn_route
from repro.core.eager_m import eager_m_rknn_route
from repro.core.lazy import lazy_rknn_route
from repro.core.lazy_ep import lazy_ep_rknn_route
from repro.core.materialize import MaterializedKNN
from repro.core.network import NetworkView
from repro.errors import QueryError

_EMPTY: frozenset[int] = frozenset()

#: Methods accepted by :func:`continuous_rknn`.
METHODS = ("eager", "lazy", "eager-m", "lazy-ep")


def validate_route(view: NetworkView, route: Sequence[int]) -> None:
    """Check that ``route`` is a walk: consecutive nodes share an edge.

    Raises :class:`QueryError` on an empty route, a node that is not an
    integer id, an out-of-range node or a missing edge.  Reads adjacency
    lists through the buffer (the route is part of the query and its
    inspection is charged work).
    """
    if not route:
        raise QueryError("route must contain at least one node")
    for node in route:
        if not isinstance(node, int):
            raise QueryError(f"route node {node!r} is not a node id")
        if not 0 <= node < view.num_nodes:
            raise QueryError(f"route node {node} out of range")
    for prev, nxt in zip(route, route[1:]):
        if prev == nxt:
            raise QueryError(f"route repeats node {prev} consecutively")
        if all(nbr != nxt for nbr, _ in view.neighbors(prev)):
            raise QueryError(f"route hop ({prev}, {nxt}) is not an edge")


def continuous_rknn(
    view: NetworkView,
    route: Sequence[int],
    k: int = 1,
    method: str = "eager",
    *,
    materialized: MaterializedKNN | None = None,
    exclude: AbstractSet[int] = _EMPTY,
    validate: bool = True,
) -> list[int]:
    """Continuous RkNN of every node on ``route`` (their union).

    ``method`` selects the processing algorithm; ``eager-m`` requires a
    ``materialized`` K-NN structure.
    """
    if validate:
        validate_route(view, route)
    if method == "eager":
        return eager_rknn_route(view, route, k, exclude)
    if method == "lazy":
        return lazy_rknn_route(view, route, k, exclude)
    if method == "lazy-ep":
        return lazy_ep_rknn_route(view, route, k, exclude)
    if method == "eager-m":
        if materialized is None:
            raise QueryError("method 'eager-m' needs materialized K-NN lists")
        return eager_m_rknn_route(view, materialized, route, k, exclude)
    raise QueryError(f"unknown method {method!r}; choose one of {METHODS}")
