"""Sharded disk-resident storage: one store + buffer per partition.

:class:`ShardedGraphStore` realizes a :class:`~repro.shard.partition.ShardPlan`
as ``K`` independent storage stacks.  Each :class:`GraphShard` owns

* the induced subgraph of its nodes, paged out through its **own**
  :class:`~repro.storage.disk.DiskGraph` (local dense node ids, the
  shard slice of the global packing order);
* a **private** :class:`~repro.storage.buffer.BufferManager` and
  :class:`~repro.storage.stats.CostTracker`, so every page fault is
  charged to the shard that served it;
* its slice of the **boundary-vertex table**: for every node incident
  to a cut edge, the cut arcs leaving it, keyed by their position in
  the node's original adjacency list.  Like the paper's node index,
  the boundary table is an in-memory structure -- consulting it is
  free, reading an adjacency list is a charged shard-local I/O.

``store.neighbors(node)`` therefore returns exactly the adjacency list
the unsharded :class:`~repro.storage.disk.DiskGraph` would -- the
intra-shard arcs come off the owning shard's disk and the cut arcs are
re-interleaved at their recorded positions, byte for byte, so heap tie
order in every downstream algorithm matches the single store.  The
store is what the sharded facades expose as ``disk``: query algorithms
running over the standard network views of it produce identical
results to the single-store database while their I/O decomposes into
per-shard counters.

:class:`ShardedDiGraphStore` is the directed counterpart (two adjacency
files per shard, separate out-/in- boundary tables); one stitching
routine serves every direction.
"""

from __future__ import annotations

import copy

from repro.errors import StorageError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.shard.partition import ShardPlan, cut_digraph, cut_graph
from repro.storage.buffer import DEFAULT_BUFFER_PAGES, BufferManager, rebuffered
from repro.storage.disk import DiskGraph
from repro.storage.disk_directed import DiskDiGraph
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker

#: A boundary entry: original adjacency position -> (neighbor, weight).
CutArcs = dict[int, tuple[int, float]]


def _check_buffer(buffer_pages: int) -> int:
    if buffer_pages < 0:
        raise StorageError(f"buffer budget must be >= 0, got {buffer_pages}")
    return buffer_pages


def _cut_arcs(adjacency, is_cut) -> CutArcs:
    """Positions and arcs of an adjacency list's cut entries."""
    return {
        position: (nbr, weight)
        for position, (nbr, weight) in enumerate(adjacency)
        if is_cut(nbr)
    }


def _interleave(
    intra: list[tuple[int, float]],
    cut: CutArcs,
) -> tuple[tuple[int, float], ...]:
    """Merge disk-resident and boundary arcs back into original order."""
    merged: list[tuple[int, float]] = []
    disk_arcs = iter(intra)
    for position in range(len(intra) + len(cut)):
        entry = cut.get(position)
        merged.append(entry if entry is not None else next(disk_arcs))
    return tuple(merged)


class _ShardBase:
    """Per-shard scaffolding: id mapping, private buffer and tracker."""

    def __init__(self, shard_id: int, nodes: tuple[int, ...], buffer_pages: int):
        self.shard_id = shard_id
        self.global_ids = tuple(nodes)
        self._local_of = {node: i for i, node in enumerate(nodes)}
        self.tracker = CostTracker()
        self.buffer = BufferManager(buffer_pages, self.tracker)

    @property
    def num_nodes(self) -> int:
        """Nodes owned by this shard."""
        return len(self.global_ids)

    def local_of(self, node: int) -> int:
        """Local (dense) id of a global node owned by this shard."""
        return self._local_of[node]

    def page_of(self, node: int) -> int:
        """Shard-local page of ``node``'s adjacency list (free look-up)."""
        return self.disk.page_of(self._local_of[node])

    def _stitched(
        self, read, boundary: dict[int, CutArcs], node: int
    ) -> tuple[tuple[int, float], ...]:
        """``node``'s full list in global ids, original order.

        The intra-shard part is ``read``, a charged read of one of this
        shard's adjacency files; the cut part comes from the in-memory
        ``boundary`` table, re-interleaved at its recorded positions so
        the result is byte-for-byte the unsharded list.
        """
        intra = [
            (self.global_ids[nbr], weight)
            for nbr, weight in read(self._local_of[node])
        ]
        cut = boundary.get(node)
        if not cut:
            return tuple(intra)
        return _interleave(intra, cut)

    def read_clone(self):
        """A read-only copy with a private cold buffer and zeroed tracker."""
        clone = copy.copy(self)
        clone.tracker = CostTracker()
        clone.buffer = BufferManager(self.buffer.capacity_pages, clone.tracker)
        clone.disk = rebuffered(self.disk, clone.buffer)
        return clone


class GraphShard(_ShardBase):
    """One undirected shard: subgraph disk store, private buffer, boundary.

    ``intra_edges`` is this shard's slice of the *global* edge
    sequence.  Edge insertion order determines adjacency order, so
    keeping the slice in sequence preserves every node's relative
    intra-shard neighbor order -- which the boundary table's position
    merge relies on to reproduce the unsharded adjacency lists exactly.
    """

    def __init__(
        self,
        shard_id: int,
        nodes: tuple[int, ...],
        intra_edges: list[tuple[int, int, float]],
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int,
        point_nodes: frozenset[int] = frozenset(),
    ):
        super().__init__(shard_id, nodes, buffer_pages)
        member = self._local_of
        local_edges = [
            (member[u], member[v], weight) for u, v, weight in intra_edges
        ]
        self.subgraph = Graph(len(nodes), local_edges)
        self.disk = DiskGraph(
            self.subgraph,
            self.buffer,
            page_size=page_size,
            order=list(range(len(nodes))),
            point_nodes=frozenset(
                member[node] for node in point_nodes if node in member
            ),
        )
        #: boundary node (global id) -> its cut arcs (:data:`CutArcs`).
        self.boundary: dict[int, CutArcs] = {}

    @property
    def num_intra_edges(self) -> int:
        """Edges with both endpoints in this shard (on this shard's disk)."""
        return self.subgraph.num_edges

    @property
    def num_boundary_nodes(self) -> int:
        """Owned nodes incident to at least one cut edge."""
        return len(self.boundary)

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Full adjacency of ``node`` in global ids, original order."""
        return self._stitched(self.disk.neighbors, self.boundary, node)


class DirectedGraphShard(_ShardBase):
    """One directed shard: local forward/backward files plus boundaries."""

    def __init__(
        self,
        shard_id: int,
        nodes: tuple[int, ...],
        intra_arcs: list[tuple[int, int, float]],
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int,
        point_nodes: frozenset[int] = frozenset(),
    ):
        super().__init__(shard_id, nodes, buffer_pages)
        member = self._local_of
        # the shard's slice of the global arc sequence, kept in
        # sequence to preserve the relative order of both endpoints'
        # adjacency lists (see GraphShard)
        local_arcs = [
            (member[u], member[v], weight) for u, v, weight in intra_arcs
        ]
        self.subgraph = DiGraph(len(nodes), local_arcs)
        self.disk = DiskDiGraph(
            self.subgraph,
            self.buffer,
            page_size=page_size,
            order=list(range(len(nodes))),
            point_nodes=frozenset(
                member[node] for node in point_nodes if node in member
            ),
        )
        #: node -> cut arcs leaving it, positions indexing the
        #: original out-adjacency list.
        self.boundary_out: dict[int, CutArcs] = {}
        #: node -> cut arcs entering it, positions indexing the
        #: original in-adjacency list.
        self.boundary_in: dict[int, CutArcs] = {}

    @property
    def num_intra_arcs(self) -> int:
        """Arcs with both endpoints in this shard."""
        return self.subgraph.num_arcs

    @property
    def num_boundary_nodes(self) -> int:
        """Owned nodes incident to at least one cut arc (either way)."""
        return len(self.boundary_out.keys() | self.boundary_in.keys())

    def out_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Outgoing arcs of ``node`` in global ids, original order."""
        return self._stitched(self.disk.out_neighbors, self.boundary_out, node)

    def in_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Incoming arcs of ``node`` in global ids, original order."""
        return self._stitched(self.disk.in_neighbors, self.boundary_in, node)


class _ShardedStoreBase:
    """Store-level scaffolding shared by both sharded stores.

    Subclass constructors must set ``plan``, ``num_nodes`` and
    ``shards``, then call :meth:`_finish` to compute the shard-major
    page offsets.
    """

    def _finish(self) -> None:
        offsets = []
        total = 0
        for shard in self.shards:
            offsets.append(total)
            total += shard.disk.num_pages
        self._page_offsets = offsets

    @property
    def num_shards(self) -> int:
        """Number of shards ``K``."""
        return self.plan.num_shards

    @property
    def num_pages(self) -> int:
        """Total adjacency pages across every shard."""
        return sum(shard.disk.num_pages for shard in self.shards)

    @property
    def num_cut_edges(self) -> int:
        """Edges (or arcs) crossing shard boundaries."""
        return self.plan.num_cut_edges

    def shard_of(self, node: int) -> int:
        """Shard owning ``node`` (free index look-up)."""
        if not 0 <= node < self.num_nodes:
            raise StorageError(f"node {node} out of range")
        return self.plan.assignment[node]

    def page_of(self, node: int) -> int:
        """Global page rank of ``node`` (shard-major, free look-up).

        Pages of shard ``i`` rank strictly before pages of shard
        ``i + 1``, so ordering queries by this rank groups them by
        shard first and by page within a shard second -- exactly what
        the engine's shard-aware planner wants.
        """
        shard_id = self.shard_of(node)
        return self._page_offsets[shard_id] + self.shards[shard_id].page_of(node)

    def global_order(self) -> list[int]:
        """The concatenated per-shard packing orders (a global order)."""
        order: list[int] = []
        for nodes in self.plan.shard_nodes:
            order.extend(nodes)
        return order

    def trackers(self) -> list[CostTracker]:
        """The live per-shard cost trackers (shared references)."""
        return [shard.tracker for shard in self.shards]

    def shard_counters(self) -> list[CostTracker]:
        """Immutable snapshots of every shard's cumulative counters."""
        return [shard.tracker.snapshot() for shard in self.shards]

    def clear_buffers(self) -> None:
        """Drop every shard's buffered pages (cold-start the next query)."""
        for shard in self.shards:
            shard.buffer.clear()

    def reset_trackers(self) -> None:
        """Zero every shard's counters."""
        for shard in self.shards:
            shard.tracker.reset()

    def read_clone(self):
        """A read-only copy: every shard gets a cold private buffer."""
        clone = copy.copy(self)
        clone.shards = [shard.read_clone() for shard in self.shards]
        return clone


class ShardedGraphStore(_ShardedStoreBase):
    """K edge-disjoint shards serving one undirected network.

    Parameters
    ----------
    graph:
        The network to shard.
    num_shards:
        Shard count ``K`` (ignored when ``plan`` is given).
    order:
        Cut heuristic, ``"bfs"`` or ``"hilbert"`` (see
        :func:`~repro.shard.partition.cut_graph`).
    plan:
        A precomputed :class:`~repro.shard.partition.ShardPlan`.
    page_size / buffer_pages:
        Storage parameters.  ``buffer_pages`` is the **per-shard** LRU
        budget, by default the single store's 256 pages: each shard
        models an independent storage host with its own buffer pool,
        mirroring the multi-host deployment the backend is a stepping
        stone toward.
    point_nodes:
        Nodes carrying data points (sets the adjacency records'
        has-point flag, as in the unsharded store).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        num_shards: int = 4,
        order: str = "bfs",
        plan: ShardPlan | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        point_nodes: frozenset[int] = frozenset(),
    ):
        if plan is None:
            plan = cut_graph(graph, num_shards, order)
        self.plan = plan
        self.num_nodes = graph.num_nodes
        pages_each = _check_buffer(buffer_pages)
        # one pass over the global edge sequence buckets each edge into
        # its owning shard (cut edges go to the boundary tables below)
        intra_edges: list[list[tuple[int, int, float]]] = [
            [] for _ in range(plan.num_shards)
        ]
        assignment = plan.assignment
        for u, v, weight in graph.edges():
            if assignment[u] == assignment[v]:
                intra_edges[assignment[u]].append((u, v, weight))
        self.shards = [
            GraphShard(
                shard_id,
                plan.shard_nodes[shard_id],
                intra_edges[shard_id],
                page_size=page_size,
                buffer_pages=pages_each,
                point_nodes=point_nodes,
            )
            for shard_id in range(plan.num_shards)
        ]
        for node in plan.boundary_nodes():
            self.shards[assignment[node]].boundary[node] = _cut_arcs(
                graph.neighbors(node),
                lambda nbr, home=assignment[node]: assignment[nbr] != home,
            )
        self._finish()

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Stitched adjacency list of ``node`` (charged to its shard)."""
        return self.shards[self.shard_of(node)].neighbors(node)


class ShardedDiGraphStore(_ShardedStoreBase):
    """K edge-disjoint shards serving one directed network.

    The directed counterpart of :class:`ShardedGraphStore`: the cut is
    computed on the weak (direction-blind) BFS order, each shard pages
    its local forward and backward files through a private buffer, and
    cut arcs are served from per-direction boundary tables.
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        num_shards: int = 4,
        plan: ShardPlan | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        point_nodes: frozenset[int] = frozenset(),
    ):
        if plan is None:
            plan = cut_digraph(graph, num_shards)
        self.plan = plan
        self.num_nodes = graph.num_nodes
        pages_each = _check_buffer(buffer_pages)
        intra_arcs: list[list[tuple[int, int, float]]] = [
            [] for _ in range(plan.num_shards)
        ]
        assignment = plan.assignment
        for u, v, weight in graph.arcs():
            if assignment[u] == assignment[v]:
                intra_arcs[assignment[u]].append((u, v, weight))
        self.shards = [
            DirectedGraphShard(
                shard_id,
                plan.shard_nodes[shard_id],
                intra_arcs[shard_id],
                page_size=page_size,
                buffer_pages=pages_each,
                point_nodes=point_nodes,
            )
            for shard_id in range(plan.num_shards)
        ]
        for node in plan.boundary_nodes():
            shard = self.shards[assignment[node]]
            is_cut = (
                lambda nbr, home=assignment[node]: assignment[nbr] != home
            )
            out_cut = _cut_arcs(graph.out_neighbors(node), is_cut)
            if out_cut:
                shard.boundary_out[node] = out_cut
            in_cut = _cut_arcs(graph.in_neighbors(node), is_cut)
            if in_cut:
                shard.boundary_in[node] = in_cut
        self._finish()

    def out_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Stitched outgoing arcs of ``node`` (charged to its shard)."""
        return self.shards[self.shard_of(node)].out_neighbors(node)

    def in_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Stitched incoming arcs of ``node`` (charged to its shard)."""
        return self.shards[self.shard_of(node)].in_neighbors(node)
