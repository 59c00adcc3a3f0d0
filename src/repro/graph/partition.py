"""Topology-aware ordering of nodes for page packing.

The paper stores adjacency lists of *neighboring* nodes in the same
disk page, "grouped together using the method of [2]" (Chan & Zhang,
"Finding Shortest Paths in Large Network Systems").  The essential
property is locality: a network expansion that moves from a node to its
neighbors should mostly stay within buffered pages.

Two orderings are provided:

* :func:`bfs_order` -- breadth-first order from a (low-degree) seed,
  good for arbitrary graphs and the default packer;
* :func:`hilbert_order` -- Hilbert space-filling-curve order for graphs
  with coordinates (road networks), which clusters spatially.

:func:`packing_order` resolves a database's ``node_order`` name to one
of them.

:func:`partition_nodes` turns an ordering plus per-node record sizes
into the page assignment consumed by the disk stores.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro.errors import GraphError, QueryError
from repro.graph.graph import Graph
from repro.storage.page import DEFAULT_PAGE_SIZE, pack_records


def bfs_order(graph: Graph, seed: int | None = None) -> list[int]:
    """All nodes in breadth-first order (multi-source if disconnected).

    Consecutive nodes in the order are topologically close, so packing
    them into the same page gives the locality the paper's storage
    scheme relies on.
    """
    n = graph.num_nodes
    if seed is None:
        seed = min(range(n), key=graph.degree)
    if not 0 <= seed < n:
        raise GraphError(f"seed node {seed} out of range")
    order: list[int] = []
    seen = [False] * n
    starts = [seed] + [v for v in range(n) if v != seed]
    for start in starts:
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            node = queue.popleft()
            order.append(node)
            for nbr, _ in graph.neighbors(node):
                if not seen[nbr]:
                    seen[nbr] = True
                    queue.append(nbr)
    return order


def hilbert_order(graph: Graph, bits: int = 16) -> list[int]:
    """All nodes ordered along a Hilbert curve over their coordinates.

    Requires ``graph.coords``; raises :class:`GraphError` otherwise.
    """
    if graph.coords is None:
        raise GraphError("hilbert_order requires node coordinates")
    xs = [c[0] for c in graph.coords]
    ys = [c[1] for c in graph.coords]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    side = (1 << bits) - 1
    span_x = (max_x - min_x) or 1.0
    span_y = (max_y - min_y) or 1.0

    def key(node: int) -> int:
        x = int((xs[node] - min_x) / span_x * side)
        y = int((ys[node] - min_y) / span_y * side)
        return _hilbert_d(bits, x, y)

    return sorted(graph.nodes(), key=key)


def packing_order(graph: Graph, name: str) -> list[int]:
    """The page-packing order called ``name``: ``"bfs"`` or ``"hilbert"``.

    Raises :class:`~repro.errors.QueryError` for any other name (the
    databases take it as their ``node_order`` argument).
    """
    if name == "bfs":
        return bfs_order(graph)
    if name == "hilbert":
        return hilbert_order(graph)
    raise QueryError(f"unknown node_order {name!r}")


def _hilbert_d(bits: int, x: int, y: int) -> int:
    """Distance along a Hilbert curve of order ``bits`` for cell (x, y)."""
    rx = ry = 0
    d = 0
    s = 1 << (bits - 1)
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def partition_nodes(
    order: Sequence[int],
    record_sizes: Sequence[int],
    page_size: int = DEFAULT_PAGE_SIZE,
) -> list[list[int]]:
    """Group nodes (in the given order) into pages by record size.

    Returns a list of pages, each a list of node ids.  ``record_sizes``
    is indexed by node id.
    """
    sizes_in_order = [record_sizes[node] for node in order]
    pages = pack_records(sizes_in_order, page_size=page_size)
    return [[order[i] for i in page] for page in pages]
