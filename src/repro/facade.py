"""Shared facades: the paper's queries written once for both directions.

The six public databases -- disk, sharded and compact, each undirected
and directed -- differ only in where adjacency lists, K-NN lists and
landmark labels live, and in which way the arcs of their network view
point.  Everything else is here, once.  :class:`FacadeBase` holds the
surface both directions share: query validation, kNN and range-NN,
monochromatic RkNN, K-NN materialization, point updates with list
maintenance, aggregate nearest neighbors, cost measurement and the
engine and qlang entry points.  An undirected edge is an arc in both
directions, so one set of probes and list routines serves a
:class:`~repro.core.network.NetworkView` and a
:class:`~repro.core.directed.DirectedView` alike.

:class:`UndirectedFacade` adds what only undirected networks offer: the
four methods over restricted and unrestricted views (through
:func:`repro.core.continuous.run_rknn`), continuous and bichromatic
RkNN, the reference set and the landmark oracle.  :class:`DirectedFacade` keeps only its
method tuple, its view (``_view``), its RkNN dispatch (``_run_rknn``,
the directed eager / eager-M / naive traversals) and a node-id
``_check_location``.

A storage class calls :meth:`FacadeBase._init_state`, which owns the
point-set rules (``None`` is an empty node set, edge points need
storage that pages an edge-point file, a point off the graph raises
:class:`~repro.errors.PointError`), lays out its storage, builds its
view with ``_rebuild_view()`` and implements the storage hooks:

* ``disk`` -- the adjacency store the standard network views read:
  paged files, the sharded store (whose reads stitch the shards'
  lists back together) or the compact CSR store;
* ``_paging()`` -- the buffer and packing order that K-NN lists and
  landmark labels are paged with, or ``_knn_store`` /
  ``_label_store`` overrides that keep them in memory;
* ``_landmark_distances(source)`` -- one landmark's distance table
  (default: a charged Dijkstra over ``disk``);
* ``_clone_storage()`` -- a clone's private read state.  The one
  :meth:`FacadeBase.read_clone` copies the database, zeroes the
  tracker, calls this hook and rebinds the views; paged stores give
  the clone its own buffer and re-point every side file at it
  (``_rebuffer_side_files``);
* ``clear_buffer()``.

One storage mixin per backend implements them for both directions:
``_DiskStorage`` in :mod:`repro.api`, ``_ShardedStorage`` in
:mod:`repro.shard.db` and ``_CompactStorage`` in :mod:`repro.compact.db`.

Storage that charges I/O outside the facade's tracker overrides
``_measure`` / ``_folded`` / ``reset_stats`` (the sharded store).
Storage that logs its writes overrides ``_require_writable``, which
refuses writes to pinned sessions, and ``_log_write``, which appends
each write to its log and bumps ``generation`` (the compact
:class:`~repro.compact.overlay.DeltaLog`).
"""

from __future__ import annotations

import copy
import math
from typing import AbstractSet, Iterable, Sequence

from repro.core import unrestricted
from repro.core.bichromatic import bichromatic_eager, bichromatic_lazy
from repro.core.continuous import METHODS, run_rknn, validate_route
from repro.core.directed import METHODS as DIRECTED_METHODS
from repro.core.directed import DirectedView, directed_rknn
from repro.core.materialize import MaterializedKNN, Seed, all_nn
from repro.core.network import NetworkView
from repro.core.nn import knn as restricted_knn
from repro.core.nn import rank_aggregate
from repro.core.nn import range_nn as restricted_range_nn
from repro.core.result import KnnResult, OracleResult, RnnResult, UpdateResult
from repro.engine.spec import AGG_FUNCS
from repro.errors import QueryError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.oracle import (
    DEFAULT_LANDMARKS,
    DistanceOracle,
    LandmarkStore,
    resolve_oracle_source,
    select_landmarks,
    store_landmark_distances,
)
from repro.points.points import EdgePointSet, NodePointSet, PointSet
from repro.storage.buffer import rebuffered
from repro.storage.disk import KnnListStore
from repro.storage.stats import CostTracker

_EMPTY: frozenset[int] = frozenset()

Location = unrestricted.Location


class FacadeBase:
    """The query surface of every facade, over one network view.

    Monochromatic RkNN under :attr:`methods`, kNN and range-NN, K-NN
    materialization and point updates with list maintenance, aggregate
    nearest neighbors, cost measurement and the serving entry points.
    The view a subclass builds sets the direction: a
    :class:`~repro.core.network.NetworkView` expands along undirected
    edges, a :class:`~repro.core.directed.DirectedView` probes forward
    along out-arcs and maintains K-NN lists backward along in-arcs.
    """

    #: Engine-visible backend tag (see :func:`repro.engine.planner.backend_of`).
    backend = "disk"

    #: Query methods :meth:`rknn` accepts.
    methods: tuple[str, ...] = ()

    #: Storage hook paging an unrestricted point set into its own point
    #: file; ``None`` where the storage serves node-resident points only.
    _edge_points = None

    def _init_state(self, graph, points: PointSet | None) -> None:
        """Start the query state over ``graph`` and ``points``.

        Every facade begins here -- constructors, promotions and
        snapshot loads alike -- then lays out its storage and calls
        ``_rebuild_view()``.  ``None`` points become an empty
        :class:`~repro.points.points.NodePointSet`.  An
        :class:`~repro.points.points.EdgePointSet` raises
        :class:`~repro.errors.QueryError` unless the storage pages an
        edge-point file (``_edge_points``), and a point off the graph
        raises :class:`~repro.errors.PointError`.
        """
        if points is None:
            points = NodePointSet({})
        if not points.restricted and self._edge_points is None:
            raise QueryError(
                f"{type(self).__name__} serves restricted networks "
                "(NodePointSet); edge-resident points are unsupported"
            )
        points.validate(graph)
        self.graph = graph
        self.points = points
        self.tracker = CostTracker()
        self.materialized: MaterializedKNN | None = None
        #: Update generation: bumped by every point insertion/deletion.
        #: The query engine keys its result cache on this counter, so a
        #: bump invalidates every previously cached answer.
        self.generation = 0
        self._edge_store = None

    # -- storage hooks ----------------------------------------------------

    def _paging(self):
        """The ``(buffer, packing order)`` side files are paged with."""
        raise NotImplementedError

    def _clone_storage(self) -> None:
        """Give a fresh clone its private read state (see :meth:`read_clone`)."""
        raise NotImplementedError

    def _knn_store(self, capacity: int, lists):
        """Lay out materialized K-NN lists (paged in packing order)."""
        buffer, order = self._paging()
        return KnnListStore(
            self.graph.num_nodes, capacity, lists, buffer,
            page_size=self.page_size, order=order,
        )

    def _rebuffer_side_files(self, buffer) -> None:
        """Re-point every paged side file of this session at ``buffer``.

        The side files are the K-NN lists and edge-point files over P
        and, on undirected networks, over the reference set Q, and the
        landmark label file.  :func:`~repro.storage.buffer.rebuffered`
        gives the files the head rewrites their own page tables, so a
        clone keeps the lists and points it was made with.
        """
        for lists in ("materialized", "_ref_materialized"):
            mat = getattr(self, lists, None)
            if mat is not None:
                setattr(self, lists, MaterializedKNN(rebuffered(mat.store, buffer)))
        for name in ("_edge_store", "_ref_edge_store", "oracle_store"):
            if hasattr(self, name):
                setattr(self, name, rebuffered(getattr(self, name), buffer))

    def _rebuild_view(self) -> None:
        """Rebuild the query view over the current points and tracker."""
        self.view = self._view(self.points, self._edge_store)

    def _rebind_views(self) -> None:
        """Rebuild every view over the current storage and tracker."""
        self._rebuild_view()

    def _require_writable(self) -> None:
        """Raise when this session may not write (hook; default: never)."""

    def _log_write(self, kind: str, **fields) -> None:
        """Publish one point write (hook; default: bump the generation)."""
        self.generation += 1

    # -- sessions ---------------------------------------------------------

    def read_clone(self):
        """A read-only session answering from the state at clone time.

        The clone shares this database's storage images, graph and
        point set but owns a zeroed cost tracker and whatever private
        read state its storage needs: on the paged backends a cold
        buffer of its own (one per shard, plus the side-file buffer, on
        sharded storage) and its own page tables for the side files the
        head rewrites in place; on the compact backends nothing but the
        K-NN lists, shared and copied on write, so the clone costs
        constant time.  Concurrent read-only sessions therefore never
        race on LRU state or counters, and every clone keeps answering
        from the lists and points it was made with while the head keeps
        writing.  Clones are for *reading*: a compact clone refuses
        writes, and writes through any other clone are unsupported.

        Returns
        -------
        FacadeBase
            A session of this database's own class.
        """
        clone = copy.copy(self)
        clone.tracker = CostTracker()
        clone._clone_storage()
        clone._rebind_views()
        return clone

    # -- cost measurement -------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the counters (the buffer's contents are kept warm)."""
        self.tracker.reset()

    def _measure(self, func):
        before = self.tracker.snapshot()
        with self.tracker.time_block():
            outcome = func()
        return outcome, self.tracker.diff(before)

    def _folded(self, func):
        """Run storage work outside the query protocol (hook: the sharded
        store folds the shard I/O it charges into the global tracker)."""
        return func()

    # -- serving ----------------------------------------------------------

    def engine(self, **kwargs) -> "QueryEngine":
        """A batch :class:`~repro.engine.engine.QueryEngine` over this
        database.

        Parameters
        ----------
        **kwargs:
            Forwarded to the engine constructor (``cache_entries``,
            ``calibrator``, ``plan``, ``shard_parallel``,
            ``batch_kernel``, ...).  The engine reads the database's
            capabilities: sharded storage routes each query to its
            home shard, compact storage shares its arrays with worker
            sessions and runs batched RkNN specs through the
            vectorized ``batch_rknn`` kernel.

        Returns
        -------
        QueryEngine
        """
        from repro.engine.engine import QueryEngine

        return QueryEngine(self, **kwargs)

    def query(self, statement):
        """Answer a qlang statement (or spec) on this database.

        ``statement`` may be a qlang string (``"SELECT * FROM
        rknn(query=7, k=2)"``; ``;`` separates a script), a
        :class:`~repro.engine.spec.QuerySpec`, or a sequence of either.
        Answers run through a batch engine, so compiled plans share
        the planner, the result cache and (where the backend offers
        one) the vectorized batch kernel.  Singular queries return one
        result; scripts and sequences return a list.  The directed
        facades answer every kind except the bichromatic ones.
        """
        from repro.qlang import execute

        return execute(self, statement)

    # -- properties -------------------------------------------------------

    @property
    def restricted(self) -> bool:
        """True when data points live on nodes (restricted network)."""
        return self.points.restricted

    # -- materialization --------------------------------------------------

    def materialize(self, capacity: int) -> None:
        """Precompute the K-NN lists of every node (paper Section 4.1).

        One all-NN pass (Fig. 8); on a directed network each list holds
        the node's nearest points by forward distance ``d(n -> x)``.

        Parameters
        ----------
        capacity:
            The paper's ``K``: the largest ``k`` any future ``eager-m``
            query may use (queries drawing from the data set and
            excluding their own point effectively need ``K >= k + 1``).
        """
        self.materialized = self._materialize_over(self.view, self.points, capacity)

    def _materialize_over(self, view, points: PointSet, capacity: int):
        lists = self._folded(
            lambda: all_nn(view, capacity, self._materialization_seeds(points))
        )
        return MaterializedKNN(self._knn_store(capacity, lists))

    def _materialization_seeds(self, points: PointSet) -> list[Seed]:
        seeds: list[Seed] = []
        if isinstance(points, NodePointSet):
            for pid, node in points.items():
                seeds.append((node, pid, 0.0))
        elif isinstance(points, EdgePointSet):
            for pid, (u, v, pos) in points.items():
                weight = self.graph.weight(u, v)
                seeds.append((u, pid, pos))
                seeds.append((v, pid, weight - pos))
        return seeds

    # -- monochromatic RkNN -----------------------------------------------

    def rknn(
        self,
        query: Location,
        k: int = 1,
        method: str = "eager",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> RnnResult:
        """Reverse k-nearest-neighbor query (paper Sections 3-5).

        On a directed network the answer is every point with
        ``d(p -> q) <= d(p -> p_k(p))`` (Section 7).

        Parameters
        ----------
        query:
            A node id in restricted networks; a node id or a canonical
            ``(u, v, pos)`` edge location in unrestricted ones.
        k:
            Neighborhood size (>= 1).
        method:
            One of :attr:`methods`; ``"eager-m"`` requires
            :meth:`materialize` first.
        exclude:
            Data point ids hidden for the query's duration (the
            paper's workloads draw queries from the data points and
            treat them as new arrivals).

        Returns
        -------
        RnnResult
            The reverse neighbors (sorted point ids) plus the exact
            counter diff of this call.
        """
        self._check_query(query, k, method)
        points, diff = self._measure(
            lambda: self._run_rknn(query, k, method, exclude)
        )
        return RnnResult(tuple(points), diff.io_operations, diff.cpu_seconds, diff)

    # -- plain NN queries -------------------------------------------------

    def knn(
        self,
        query: Location,
        k: int = 1,
        exclude: AbstractSet[int] = _EMPTY,
    ) -> KnnResult:
        """The k nearest data points of a location.

        Parameters
        ----------
        query:
            Query location (node id, or edge location when
            unrestricted).
        k:
            Number of neighbors requested.
        exclude:
            Data point ids hidden for the query's duration.

        Returns
        -------
        KnnResult
            ``(point id, network distance)`` pairs in ascending
            distance order (forward distances ``d(query -> x)`` on a
            directed network), plus the cost record.
        """
        self._check_location(query)

        def run() -> list[tuple[int, float]]:
            if self.restricted:
                return restricted_knn(self.view, query, k, exclude)
            return unrestricted.unrestricted_knn(self.view, query, k, exclude)

        neighbors, diff = self._measure(run)
        return KnnResult(tuple(neighbors), diff.io_operations, diff.cpu_seconds, diff)

    def range_nn(
        self,
        query: Location,
        k: int,
        radius: float,
        exclude: AbstractSet[int] = _EMPTY,
    ) -> KnnResult:
        """``range-NN(n, k, e)``: k nearest points strictly within ``radius``.

        Parameters
        ----------
        query:
            Query location (node id, or edge location when
            unrestricted).
        k:
            Maximum number of points returned.
        radius:
            Strict distance bound ``e`` (points at exactly ``radius``
            are excluded; forward distances on a directed network).
        exclude:
            Data point ids hidden for the query's duration.

        Returns
        -------
        KnnResult
            Up to ``k`` points strictly inside the range, ascending.
        """
        self._check_location(query)

        def run() -> list[tuple[int, float]]:
            if self.restricted:
                return restricted_range_nn(self.view, query, k, radius, exclude)
            return unrestricted.unrestricted_range_nn(
                self.view, query, k, radius, exclude
            )

        neighbors, diff = self._measure(run)
        return KnnResult(tuple(neighbors), diff.io_operations, diff.cpu_seconds, diff)

    # -- updates ----------------------------------------------------------

    def insert_point(self, pid: int, location: Location) -> UpdateResult:
        """Add a data point, maintaining the materialized lists if any.

        Parameters
        ----------
        pid:
            New point id (must be unused).
        location:
            A node id on restricted networks; an ``(u, v, pos)``
            triplet on unrestricted ones.  A location off the graph
            raises :class:`~repro.errors.PointError` before anything
            is written.

        Returns
        -------
        UpdateResult
            The number of updated K-NN lists plus the cost record.
        """
        self._require_writable()
        if self.restricted:
            self._check_node_point(pid, location)
            seeds = [(location, 0.0)]
        else:
            if isinstance(location, int):
                raise QueryError("unrestricted networks take edge locations")
            location = unrestricted.normalize_location(location)
            EdgePointSet({pid: location}).validate(self.graph)
            u, v, pos = location
            seeds = [(u, pos), (v, self.graph.weight(u, v) - pos)]

        def run() -> int:
            self.points = self.points.with_point(pid, location)
            if not self.restricted:
                self._edge_store.insert_point(pid, *location)
            self._rebuild_view()
            if self.materialized is not None:
                return self.materialized.insert(self.view, pid, seeds)
            return 0

        affected, diff = self._measure(run)
        self._log_write("insert-point", pid=pid, node=location)
        return UpdateResult(affected, diff.io_operations, diff.cpu_seconds, diff)

    def delete_point(self, pid: int) -> UpdateResult:
        """Remove a data point, maintaining the materialized lists if any.

        Parameters
        ----------
        pid:
            Id of the point to remove.

        Returns
        -------
        UpdateResult
            The number of repaired K-NN lists plus the cost record.
        """
        self._require_writable()

        def run() -> int:
            if self.restricted:
                seeds = [(self.points.node_of(pid), 0.0)]
            else:
                u, v, pos = self.points.location(pid)
                seeds = [(u, pos), (v, self.graph.weight(u, v) - pos)]
                self._edge_store.delete_point(pid, u, v)
            self.points = self.points.without_point(pid)
            self._rebuild_view()
            if self.materialized is not None:
                return self.materialized.delete(self.view, pid, seeds)
            return 0

        affected, diff = self._measure(run)
        self._log_write("delete-point", pid=pid)
        return UpdateResult(affected, diff.io_operations, diff.cpu_seconds, diff)

    # -- aggregate nearest neighbors --------------------------------------

    def aggregate_nn(
        self,
        group: Sequence[int],
        k: int = 1,
        agg: str = "sum",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> KnnResult:
        """The ``k`` data points of smallest aggregate distance to a group.

        One ``knn(member, |P|)`` per distinct member gives every point's
        distance from that member (forward distances on a directed
        network); points are ranked by the ``sum`` or ``max`` of those
        distances over the group, point id breaking ties.

        Parameters
        ----------
        group:
            Node ids of the query group; a repeated member counts once
            per occurrence in a ``sum``.
        k:
            Number of points returned.
        agg:
            ``"sum"`` or ``"max"``.
        exclude:
            Data point ids hidden for the query's duration.

        Returns
        -------
        KnnResult
            ``(point id, aggregate distance)`` pairs, best first; a
            point some member cannot reach has no aggregate and is
            left out.  The cost record sums the members' kNN runs.
        """
        group = self._check_group(group, k, agg)
        horizon = max(1, len(self.points))
        runs = {member: self.knn(member, horizon, exclude)
                for member in dict.fromkeys(group)}
        per_point: dict[int, list[float]] = {}
        for member in group:
            for pid, dist in runs[member].neighbors:
                per_point.setdefault(pid, []).append(dist)
        results = runs.values()
        return KnnResult(
            rank_aggregate(
                ((pid, dists) for pid, dists in per_point.items()
                 if len(dists) == len(group)),
                k, agg,
            ),
            sum(result.io for result in results),
            sum(result.cpu_seconds for result in results),
            CostTracker.merged(result.counters for result in results),
        )

    # -- validation -------------------------------------------------------

    def _check_group(self, group, k: int, agg: str) -> tuple[int, ...]:
        """Validate an ``aggregate_nn`` request; return the group as a tuple."""
        group = tuple(group)
        if not group:
            raise QueryError("aggregate_nn needs a non-empty group of node ids")
        if agg not in AGG_FUNCS:
            raise QueryError(
                f"unknown aggregation {agg!r}; choose one of {AGG_FUNCS}"
            )
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        for member in group:
            if not isinstance(member, int):
                raise QueryError(f"group members are node ids, got {member!r}")
            if not 0 <= member < self.graph.num_nodes:
                raise QueryError(f"group member {member} out of range")
        return group

    def _require_mat(self) -> MaterializedKNN:
        if self.materialized is None:
            raise QueryError(
                "method 'eager-m' needs materialized K-NN lists; call materialize() first"
            )
        return self.materialized

    def _check_node_point(self, pid: int, node) -> None:
        """Reject a new point off the graph's nodes, before any write."""
        if not isinstance(node, int):
            raise QueryError(
                f"restricted networks take node-id locations, got {node!r}"
            )
        NodePointSet({pid: node}).validate(self.graph)

    def _check_location(self, query) -> None:
        """Reject anything but a node id or, unrestricted, an edge location."""
        if isinstance(query, int):
            return
        if self.restricted:
            raise QueryError(
                f"restricted networks take node-id queries, got {query!r}"
            )
        if not (isinstance(query, (tuple, list)) and len(query) == 3
                and isinstance(query[0], int) and isinstance(query[1], int)
                and isinstance(query[2], (int, float))):
            raise QueryError(
                f"query {query!r} is neither a node id nor a "
                "(u, v, pos) edge location"
            )
        if not math.isfinite(query[2]):
            raise QueryError(f"non-finite edge offset {query[2]}")

    def _check_query(self, query: Location, k: int, method: str) -> None:
        if method not in self.methods:
            raise QueryError(
                f"unknown method {method!r}; choose one of {self.methods}"
            )
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self._check_location(query)
        if isinstance(query, int) and not 0 <= query < self.graph.num_nodes:
            raise QueryError(f"query node {query} out of range")


class UndirectedFacade(FacadeBase):
    """The paper's query surface over an undirected network.

    Monochromatic, continuous and bichromatic RkNN under
    :data:`METHODS`, kNN and range-NN, K-NN materialization, point
    updates and the landmark oracle, over whatever view the storage
    class builds.  Restricted networks hold points on nodes;
    unrestricted ones (disk storage only) hold them on edges.
    """

    methods = METHODS

    def _init_state(self, graph, points: PointSet) -> None:
        super()._init_state(graph, points)
        #: Landmark distance oracle (see :meth:`build_oracle`); ``None``
        #: until built or opened.  Attached to every view as its bound
        #: provider, so the expansion loops prune with it.
        self.oracle: DistanceOracle | None = None
        #: Persisted label file backing :attr:`oracle` (``None`` when the
        #: oracle lives only in memory).
        self.oracle_store: LandmarkStore | None = None
        self._ref_points: PointSet | None = None
        self._ref_view = None
        self._ref_edge_store = None
        self._ref_materialized: MaterializedKNN | None = None

    # -- storage hooks ----------------------------------------------------

    def _view(self, points: PointSet, edge_store=None):
        """A network view over ``points``, pruned by the oracle."""
        return NetworkView(
            self.disk, points, self.tracker, edge_store, bounds=self.oracle
        )

    def _label_store(self, landmarks, tables) -> LandmarkStore | None:
        """Lay out landmark labels (paged in packing order)."""
        buffer, order = self._paging()
        return LandmarkStore(
            self.graph.num_nodes, landmarks, tables, buffer,
            page_size=self.page_size, order=order,
        )

    def _landmark_distances(self, source: int) -> list[float]:
        """One landmark's distance table (charged Dijkstra over ``disk``)."""
        return store_landmark_distances(
            self.disk, self.graph.num_nodes, source
        )

    def _check_oracle_network(self, what: str) -> None:
        """Raise when this network cannot carry a landmark oracle."""
        if not self.restricted:
            raise QueryError(
                "the distance oracle serves restricted networks "
                "(node-resident points)"
            )

    def _rebind_views(self) -> None:
        super()._rebind_views()
        if self._ref_points is not None:
            self._ref_view = self._view(self._ref_points, self._ref_edge_store)

    # -- constructors and properties --------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int, float]],
        points: PointSet | None = None,
        **kwargs,
    ):
        """Build a database straight from ``(u, v, weight)`` edge triples.

        ``points`` and ``**kwargs`` (``node_order``, ``num_shards``,
        ...) go to the constructor of the class it is called on.
        """
        return cls(Graph.from_edges(edges), points, **kwargs)

    @property
    def reference_points(self) -> PointSet | None:
        """The attached bichromatic reference set Q (``None`` before
        :meth:`attach_reference`)."""
        return self._ref_points

    # -- materialization --------------------------------------------------

    def materialize_reference(self, capacity: int) -> None:
        """Materialize K-NN lists over the attached reference set Q.

        Parameters
        ----------
        capacity:
            List capacity ``K`` for the reference materialization
            (required by bichromatic ``eager-m``).
        """
        if self._ref_view is None or self._ref_points is None:
            raise QueryError("attach_reference() before materialize_reference()")
        self._ref_materialized = self._materialize_over(
            self._ref_view, self._ref_points, capacity
        )

    # -- bichromatic reference set ----------------------------------------

    def attach_reference(self, reference: PointSet) -> None:
        """Attach the reference set Q for bichromatic queries.

        The database's own points act as P (the potential results); the
        reference points compete with the query for their attention.

        Parameters
        ----------
        reference:
            A point set in the network's own mode (node-resident on
            restricted networks).  Swapping Q bumps the generation so
            cached bichromatic answers invalidate.
        """
        if reference.restricted != self.restricted:
            raise QueryError("reference set must match the network's point mode")
        reference.validate(self.graph)
        self._ref_points = reference
        self._ref_edge_store = (
            None if reference.restricted else self._edge_points(reference)
        )
        self._ref_view = self._view(reference, self._ref_edge_store)
        self._ref_materialized = None
        # swapping Q changes bichromatic answers: invalidate cached results
        self.generation += 1

    # -- landmark distance oracle -----------------------------------------

    def build_oracle(
        self,
        count: int = DEFAULT_LANDMARKS,
        *,
        seed: int = 0,
        strategy: str = "farthest",
    ) -> OracleResult:
        """Build and attach an ALT landmark distance oracle (charged).

        Selects ``count`` landmarks (farthest-point heuristic by
        default) and runs one single-source Dijkstra per landmark over
        the storage -- paged reads are charged through the buffer, or
        through each shard's buffer on sharded storage; compact storage
        slices its CSR arrays for free.  Paged backends persist the
        label table as a :class:`~repro.oracle.store.LandmarkStore`;
        compact storage keeps it in memory.  The resulting
        :class:`~repro.oracle.oracle.DistanceOracle` attaches to every
        view: subsequent queries return bitwise identical answers
        while expanding fewer edges (see :mod:`repro.oracle.prune`).

        Parameters
        ----------
        count:
            Number of landmarks ``L`` (label storage is ``L`` doubles
            per node).
        seed:
            Seeds the first landmark pick.
        strategy:
            ``"farthest"`` (default) or ``"random"``.

        Returns
        -------
        OracleResult
            The selected landmarks plus the exact preprocessing cost.
        """
        self._check_oracle_network("build_oracle")

        def run():
            landmarks, tables = select_landmarks(
                self._landmark_distances,
                self.graph.num_nodes,
                count,
                seed=seed,
                strategy=strategy,
            )
            oracle = DistanceOracle(landmarks, tables)
            return self._label_store(landmarks, tables), oracle

        (store, oracle), diff = self._measure(run)
        self.oracle_store = store
        self.oracle = oracle
        self._attach_bounds(oracle)
        return OracleResult(
            oracle.landmarks, oracle.storage_entries,
            0 if store is None else store.num_pages,
            diff.io_operations, diff.cpu_seconds, diff,
        )

    def open_oracle(self, source) -> OracleResult:
        """Attach an oracle built elsewhere (store or oracle object).

        Parameters
        ----------
        source:
            A persisted :class:`~repro.oracle.store.LandmarkStore`
            (decoded uncharged, like the compact backend decodes
            adjacency pages) or a ready
            :class:`~repro.oracle.oracle.DistanceOracle` -- e.g. one
            built by another backend over the same graph.

        Returns
        -------
        OracleResult
            The attached landmarks (opening charges no I/O).
        """
        self._check_oracle_network("open_oracle")
        oracle, store, pages = resolve_oracle_source(
            source, self.graph.num_nodes
        )
        self.oracle_store = store
        self.oracle = oracle
        self._attach_bounds(oracle)
        return OracleResult(oracle.landmarks, oracle.storage_entries, pages, 0, 0.0)

    def _attach_bounds(self, bounds) -> None:
        self.view.bounds = bounds
        if self._ref_view is not None:
            self._ref_view.bounds = bounds

    # -- continuous and bichromatic RkNN ----------------------------------

    def continuous_rknn(
        self,
        route: Sequence[int],
        k: int = 1,
        method: str = "eager",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> RnnResult:
        """Continuous RkNN along a route of nodes (Section 5.1).

        Parameters
        ----------
        route:
            A walk: consecutive nodes must share an edge.
        k / method / exclude:
            As in :meth:`rknn`.

        Returns
        -------
        RnnResult
            The union of the route nodes' reverse neighbor sets.
        """
        self._folded(lambda: validate_route(self.view, route))
        self._check_query(route[0], k, method)
        points, diff = self._measure(
            lambda: self._run_rknn(None, k, method, exclude, list(route))
        )
        return RnnResult(tuple(points), diff.io_operations, diff.cpu_seconds, diff)

    def _run_rknn(self, query, k, method, exclude, route=None) -> list[int]:
        """Run ``method`` for one query location, or along ``route``."""
        return run_rknn(self.view, query, route, k, method, self.materialized, exclude)

    def bichromatic_rknn(
        self,
        query: Location,
        k: int = 1,
        method: str = "eager",
        exclude: AbstractSet[int] = _EMPTY,
    ) -> RnnResult:
        """Bichromatic RkNN against the attached reference set (Section 5.1).

        Parameters
        ----------
        query:
            Query location (node id, or edge location when
            unrestricted).
        k:
            Neighborhood size among the *reference* points.
        method:
            ``"eager"``, ``"lazy"`` or ``"eager-m"`` on restricted
            networks (``eager-m`` needs :meth:`materialize_reference`);
            ``"eager"`` on unrestricted ones.
        exclude:
            Reference point ids hidden for the query's duration.

        Returns
        -------
        RnnResult
            Database points P that keep the query among their k
            nearest reference points.
        """
        if self._ref_view is None:
            raise QueryError("attach_reference() before bichromatic queries")
        self._check_query(query, k, method)

        def run() -> list[int]:
            if not self.restricted:
                if method != "eager":
                    raise QueryError(
                        "unrestricted bichromatic queries support method 'eager'"
                    )
                return unrestricted.unrestricted_bichromatic_eager(
                    self.view, self._ref_view, query, k, exclude
                )
            if method == "eager":
                return bichromatic_eager(self.view, self._ref_view, query, k, exclude)
            if method == "lazy":
                return bichromatic_lazy(self.view, self._ref_view, query, k, exclude)
            if method == "eager-m":
                if self._ref_materialized is None:
                    raise QueryError(
                        "materialize_reference() before bichromatic eager-m"
                    )
                return bichromatic_eager(
                    self.view, self._ref_view, query, k, exclude,
                    self._ref_materialized,
                )
            raise QueryError(
                "bichromatic queries support methods 'eager', 'lazy', 'eager-m'"
            )

        points, diff = self._measure(run)
        return RnnResult(tuple(points), diff.io_operations, diff.cpu_seconds, diff)

class DirectedFacade(FacadeBase):
    """The directed query surface: RkNN with asymmetric distances.

    Monochromatic RkNN under :data:`DIRECTED_METHODS`, forward kNN and
    range-NN, forward K-NN materialization and point updates with list
    maintenance -- the shared surface of :class:`FacadeBase` over a
    :class:`~repro.core.directed.DirectedView`.  Points live on nodes.
    """

    methods = DIRECTED_METHODS

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[tuple[int, int, float]],
        points: NodePointSet | None = None,
        **kwargs,
    ):
        """Build a database straight from ``(tail, head, weight)`` arc
        triples.

        ``points`` and ``**kwargs`` (``num_shards``, ...) go to the
        constructor of the class it is called on.
        """
        return cls(DiGraph.from_arcs(arcs), points, **kwargs)

    def _view(self, points: NodePointSet, edge_store=None):
        """A directed view over ``points``."""
        return DirectedView(self.disk, points, self.tracker, edge_store)

    def _run_rknn(self, query, k, method, exclude, route=None) -> list[int]:
        """Run ``method`` for one query node (directed networks take
        no routes: ``route`` is always ``None``)."""
        return directed_rknn(self.view, query, k, method, self.materialized, exclude)

    def _check_location(self, query) -> None:
        """Reject anything but a node id."""
        if not isinstance(query, int):
            raise QueryError(
                f"directed networks take node-id queries, got {query!r}"
            )
