"""Sharded database facades: the paper's queries over K storage shards.

:class:`ShardedDatabase` inherits the restricted-network surface of
:class:`~repro.api.GraphDatabase` (:class:`~repro.facade.UndirectedFacade`:
kNN, range-NN, monochromatic / continuous / bichromatic RkNN,
materialization, point updates, batch serving) over a
:class:`~repro.shard.store.ShardedGraphStore`.  Results are
**identical** to the single-store database (the algorithms are reused
verbatim over the standard network view, whose store stitches each
adjacency list back together); what changes is the storage topology:
every adjacency read is served, buffered and charged by the shard
owning the node.

Cost accounting follows the database convention: every query returns
the merged counter diff across the global tracker (CPU, heap traffic,
probes) and all per-shard trackers (page I/O), and the merged I/O is
folded back into ``db.tracker`` so the existing aggregate accounting
keeps working.  The per-shard decomposition stays available through
:meth:`ShardedDatabase.shard_counters`.

:class:`ShardedDirectedDatabase` is the directed counterpart: it
inherits the :class:`~repro.api_directed.DirectedGraphDatabase` surface
(:class:`~repro.facade.DirectedFacade`).
"""

from __future__ import annotations

from repro.facade import DirectedFacade, UndirectedFacade
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.points.points import NodePointSet
from repro.shard.store import ShardedDiGraphStore, ShardedGraphStore
from repro.storage.buffer import DEFAULT_BUFFER_PAGES, BufferManager
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.stats import CostTracker


class _ShardedStorage:
    """Storage plumbing shared by both sharded facades."""

    #: Engine-visible backend tag (see :func:`repro.engine.planner.backend_of`).
    backend = "sharded"

    def _init_storage(self, store, page_size: int, buffer_pages: int) -> None:
        self.page_size = page_size
        self.buffer_pages = buffer_pages
        self.store = store
        #: Side file buffer for materialized K-NN lists and landmark
        #: labels (charged to the global tracker; adjacency I/O is what
        #: decomposes by shard).
        self._side_buffer = BufferManager(buffer_pages, self.tracker)
        self._rebuild_view()

    def _paging(self):
        return self._side_buffer, self.store.global_order()

    @property
    def disk(self):
        """The sharded store, exposed under the facade's disk slot.

        The standard network views read its stitched adjacency lists,
        and the engine's admission planner its ``page_of``: the
        store's shard-major page ranks make the planner group queries
        by shard first, page second.
        """
        return self.store

    # -- cost measurement ---------------------------------------------------

    def _measure(self, func):
        """Run ``func``, returning its outcome and the merged counter diff.

        Snapshots the global tracker and every shard tracker, times the
        call on the global tracker, then merges the per-tracker diffs
        into one cost record.  The shard-side I/O diff is folded back
        into the global tracker so ``db.tracker`` stays the aggregate
        of all work, while the per-shard trackers keep the
        decomposition.
        """
        trackers = [self.tracker, *self.store.trackers()]
        before = [tracker.snapshot() for tracker in trackers]
        with self.tracker.time_block():
            outcome = func()
        diffs = [
            tracker.diff(snapshot)
            for tracker, snapshot in zip(trackers, before)
        ]
        merged = CostTracker.merged(diffs)
        for shard_diff in diffs[1:]:
            self.tracker.merge(shard_diff)
        return outcome, merged

    def _folded(self, func):
        """Run ``func`` folding shard counter diffs into the global tracker.

        For work outside the query protocol (materialization, route
        validation) that still reads shard pages: keeps ``db.tracker``
        the aggregate of all shard work without producing a per-call
        cost record.
        """
        trackers = self.store.trackers()
        before = [tracker.snapshot() for tracker in trackers]
        outcome = func()
        for tracker, snapshot in zip(trackers, before):
            self.tracker.merge(tracker.diff(snapshot))
        return outcome

    def reset_stats(self) -> None:
        """Zero the global tracker and every per-shard tracker."""
        self.tracker.reset()
        self.store.reset_trackers()

    def clear_buffer(self) -> None:
        """Drop every buffered page: each shard's and the side files'
        (cold-start the next query)."""
        self.store.clear_buffers()
        self._side_buffer.clear()

    def _clone_storage(self) -> None:
        """Private cold buffers and zeroed trackers per shard (over the
        same shard page images), and a cold side-file buffer in front
        of the clone's copies of the side files."""
        self.store = self.store.read_clone()
        self._side_buffer = BufferManager(
            self._side_buffer.capacity_pages, self.tracker
        )
        self._rebuffer_side_files(self._side_buffer)

    # -- shard introspection ------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of storage shards ``K``."""
        return self.store.num_shards

    def shard_of(self, node: int) -> int:
        """Shard owning ``node`` (free index look-up)."""
        return self.store.shard_of(node)

    def shard_counters(self) -> list[CostTracker]:
        """Cumulative per-shard counter snapshots (I/O decomposition).

        Returns
        -------
        list of CostTracker
            One immutable snapshot per shard, in shard order.  Diff two
            calls around a workload to attribute its I/O to shards.
        """
        return self.store.shard_counters()

    def merge_session_shards(self, session) -> None:
        """Fold a worker session's per-shard counters into this database.

        Called by the batch engine after a parallel chunk completes, so
        the per-shard I/O decomposition of work done on
        :meth:`read_clone` sessions is preserved in the parent's shard
        trackers (the aggregate is merged into ``tracker`` separately,
        through the per-query cost records).

        Parameters
        ----------
        session:
            A clone produced by this database's ``read_clone``.
        """
        for mine, theirs in zip(self.store.trackers(), session.store.trackers()):
            mine.merge(theirs)


class ShardedDatabase(_ShardedStorage, UndirectedFacade):
    """Sharded disk-based graph database answering (reverse) NN queries.

    Parameters
    ----------
    graph:
        The network.  It is cut into ``num_shards`` edge-disjoint
        partitions, each paged to its own simulated disk.
    points:
        The data set P as a :class:`~repro.points.points.NodePointSet`
        (the sharded backend serves restricted networks).  ``None``
        creates an empty set.
    num_shards:
        Shard count ``K``; ``K = 1`` degenerates to the single-store
        layout.
    page_size / buffer_pages:
        Storage parameters.  ``buffer_pages`` is the per-shard LRU
        budget (each shard models an independent storage host).
    node_order:
        Cut heuristic and per-shard packing order: ``"bfs"`` (default)
        or ``"hilbert"`` (requires coordinates).
    """

    def __init__(
        self,
        graph: Graph,
        points: NodePointSet | None = None,
        *,
        num_shards: int = 4,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
        node_order: str = "bfs",
    ):
        self._init_state(graph, points)
        self._init_storage(
            ShardedGraphStore(
                graph,
                num_shards=num_shards,
                order=node_order,
                page_size=page_size,
                buffer_pages=buffer_pages,
                point_nodes=frozenset(node for _, node in self.points.items()),
            ),
            page_size,
            buffer_pages,
        )


class ShardedDirectedDatabase(_ShardedStorage, DirectedFacade):
    """Sharded disk-based directed graph database answering RkNN queries.

    Inherits :class:`~repro.api_directed.DirectedGraphDatabase`'s
    surface over a :class:`~repro.shard.store.ShardedDiGraphStore`:
    backward expansions and forward probes both stitch across shard
    boundaries through the per-direction boundary tables.
    """

    def __init__(
        self,
        graph: DiGraph,
        points: NodePointSet | None = None,
        *,
        num_shards: int = 4,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_BUFFER_PAGES,
    ):
        self._init_state(graph, points)
        self._init_storage(
            ShardedDiGraphStore(
                graph,
                num_shards=num_shards,
                page_size=page_size,
                buffer_pages=buffer_pages,
                point_nodes=frozenset(node for _, node in self.points.items()),
            ),
            page_size,
            buffer_pages,
        )
