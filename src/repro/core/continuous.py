"""Continuous RkNN queries along routes (Section 5.1) and the one table
of undirected RkNN methods.

For objects moving on a graph the paper replaces Euclidean continuous
queries by route queries: given a route ``r = <n_1, ..., n_r>`` (a walk
along edges), ``cRkNN(r)`` is the union of the RkNN sets of the route's
nodes.  Every traversal takes source nodes and seeds its heap with each
of them at distance 0, which realizes the route distance
``d(r, n) = min_i d(n_i, n)``; a single query is a one-node route.
:func:`run_rknn` picks a method's traversal from :data:`TRAVERSALS` for
the facades and for :func:`continuous_rknn`, which adds route
validation.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

from repro.core import unrestricted
from repro.core.eager import eager
from repro.core.lazy import lazy
from repro.core.lazy_ep import lazy_ep
from repro.core.materialize import MaterializedKNN
from repro.core.network import NetworkView
from repro.errors import QueryError

_EMPTY: frozenset[int] = frozenset()

#: Each method's traversal on restricted and on unrestricted networks,
#: and whether it reads the K-NN lists (eager-M is eager's loop handed them).
TRAVERSALS = {
    "eager": (eager, unrestricted.unrestricted_eager, False),
    "lazy": (lazy, unrestricted.unrestricted_lazy, False),
    "eager-m": (eager, unrestricted.unrestricted_eager, True),
    "lazy-ep": (lazy_ep, unrestricted.unrestricted_lazy_ep, False),
}

#: Methods accepted by :func:`continuous_rknn` and the undirected facades.
METHODS = tuple(TRAVERSALS)


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


def run_rknn(
    view: NetworkView,
    query: unrestricted.Location | None,
    route: Sequence[int] | None,
    k: int,
    method: str,
    lists: MaterializedKNN | None = None,
    exclude: AbstractSet[int] = _EMPTY,
) -> list[int]:
    """RkNN under ``method`` of one query location, or along ``route``
    (with ``query`` ``None``); ``eager-m`` reads the K-NN ``lists``."""
    if method not in TRAVERSALS:
        raise QueryError(f"unknown method {method!r}; choose one of {METHODS}")
    on_nodes, on_edges, reads_lists = TRAVERSALS[method]
    extra = ()
    if reads_lists:
        if lists is None:
            raise QueryError(
                f"method {method!r} needs materialized K-NN lists; call materialize() first"
            )
        extra = (lists,)
    if view.restricted:
        return on_nodes(view, [query] if route is None else route, k, exclude, *extra)
    return on_edges(view, query, k, exclude, route, *extra)


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
    return run_rknn(view, None, route, k, method, materialized, exclude)
