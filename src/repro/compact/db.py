"""Compact database facades: the paper's queries over CSR flat arrays.

:class:`CompactDatabase` inherits the restricted-network surface of
:class:`~repro.api.GraphDatabase` (:class:`~repro.facade.UndirectedFacade`:
kNN, range-NN, monochromatic / continuous / bichromatic RkNN,
materialization, point updates, batch serving) over a
:class:`~repro.compact.store.CompactGraphStore`.  The query algorithms
are reused verbatim through the standard
:class:`~repro.core.network.NetworkView`, so answers are **identical**
to the disk-backed and sharded databases; what changes is the storage:
adjacency lives in three flat arrays, reads are free (no pages, no
buffer, no charged I/O) and a query's cost record counts only the
algorithmic work (heap traffic, nodes visited, probes, CPU).

:class:`CompactDirectedDatabase` is the directed counterpart: it
inherits the :class:`~repro.api_directed.DirectedGraphDatabase` surface
(:class:`~repro.facade.DirectedFacade`).

Because the store is immutable shared memory, :meth:`read_clone` is a
constant-time operation: a session is a new tracker over the *same*
arrays, which is what lets the batch engine hand every worker a
session without copying the graph (``backend="compact"`` mode).
"""

from __future__ import annotations

import copy

from repro.compact.batch import (
    AggregateRequest,
    BatchRequest,
    batch_rknn_kernel,
    numpy_available,
)
from repro.compact.overlay import DeltaLog, DeltaOp
from repro.compact.store import (
    CompactDiGraphStore,
    CompactGraphStore,
    MemoryKnnStore,
)
from repro.core.continuous import validate_route
from repro.core.materialize import MaterializedKNN
from repro.core.result import KnnResult, OracleResult, RnnResult, UpdateResult
from repro.errors import QueryError
from repro.facade import DirectedFacade, UndirectedFacade
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from repro.graph.partition import packing_order
from repro.oracle import (
    LowerOnlyBounds,
    csr_landmark_distances,
    resolve_oracle_source,
)
from repro.points.points import NodePointSet
from repro.storage.stats import CostTracker


class _CompactStorage:
    """Storage plumbing shared by both compact facades."""

    #: Engine-visible backend tag (see :func:`repro.engine.planner.backend_of`).
    backend = "compact"

    @property
    def disk(self):
        """The compact store, exposed under the facade's disk slot.

        The engine's admission planner only needs ``disk.page_of``;
        the compact store serves the packing-order locality rank.
        """
        return self.store

    def _knn_store(self, capacity: int, lists):
        return MemoryKnnStore(self.graph.num_nodes, capacity, lists)

    def _adopt(self, store) -> None:
        """Finish construction on a ready CSR ``store``: every
        constructor, :meth:`from_database` and snapshot load ends here,
        after ``_init_state``."""
        self.store = store
        self._rebuild_view()

    @classmethod
    def from_database(cls, db):
        """Promote an existing disk-backed database to the compact backend.

        Parameters
        ----------
        db:
            A :class:`~repro.api.GraphDatabase` with node-resident
            points, or for :class:`CompactDirectedDatabase` a
            :class:`~repro.api_directed.DirectedGraphDatabase`.  Its
            serialized adjacency pages (both direction files of a
            directed one) are decoded once (uncharged) into the CSR
            arrays; the point set is shared, checked as the
            constructor checks it.

        Returns
        -------
        CompactDatabase or CompactDirectedDatabase
            A database answering every restricted query identically to
            ``db``, without page I/O.
        """
        compact = cls.__new__(cls)
        compact._init_state(db.graph, db.points)
        compact._adopt(cls._store_class.from_disk(db.disk))
        return compact

    def batch_rknn(self, specs) -> tuple[RnnResult, ...]:
        """Answer a batch of RkNN and aggregate NN specs in one CSR pass.

        Every spec becomes rows of one bucketed multi-source Dijkstra
        over numpy views of the CSR arrays (see
        :mod:`repro.compact.batch`): each data point is a candidate row
        shared by the RkNN specs -- with the attached landmark oracle,
        when profitable, filtering whole candidate rows up front --
        and each ``aggregate_nn`` spec expands one row per distinct
        group member until the threshold rule stops them.  Answers are
        bitwise identical to looping the scalar facade over the specs;
        each spec is validated exactly as its scalar counterpart would
        validate it.

        Parameters
        ----------
        specs:
            :class:`~repro.engine.spec.QuerySpec` values of a kind in
            :attr:`batch_kinds` (``"rknn"`` and ``"aggregate_nn"``,
            plus ``"continuous"`` on undirected networks).  RkNN
            methods are accepted for surface parity but do not change
            the vectorized plan (every method answers identically).

        Returns
        -------
        tuple[RnnResult | KnnResult, ...]
            One result per spec, in order -- a
            :class:`~repro.core.result.KnnResult` ranking for an
            ``aggregate_nn`` spec, an :class:`~repro.core.result.RnnResult`
            otherwise -- each carrying its share of the batch's charged
            cost (zero I/O; the per-query counters sum to the batch
            total).  Without numpy, or while edge deltas are pending,
            the batch falls back to the scalar per-spec loop, answers
            unchanged.
        """
        specs = list(specs)
        requests = []
        for spec in specs:
            if spec.kind not in self.batch_kinds:
                raise QueryError(
                    f"batch_rknn serves kinds {self.batch_kinds}, "
                    f"got {spec.kind!r}"
                )
            if spec.kind == "aggregate_nn":
                self._check_group(spec.group, spec.k, spec.agg)
                requests.append(AggregateRequest(
                    spec.group, spec.k, spec.agg, frozenset(spec.exclude)
                ))
                continue
            if spec.kind == "continuous":
                validate_route(self.view, spec.route)
                self._check_query(spec.route[0], spec.k, spec.method)
                sources = tuple(spec.route)
            else:
                self._check_query(spec.query, spec.k, spec.method)
                sources = (spec.query,)
            if spec.method == "eager-m":
                self._require_mat().check_capacity(spec.k)
            requests.append(
                BatchRequest(sources, spec.k, frozenset(spec.exclude))
            )
        if not specs:
            return ()
        flat = self._kernel_arrays() if numpy_available() else None
        if flat is None:
            return tuple(self._scalar_batch(specs))
        # directed facades carry no landmark oracle
        oracle = getattr(self, "oracle", None)
        return self._batch_measure(flat, requests, oracle)

    def _scalar_batch(self, specs):
        """Per-spec scalar loop: the ``batch_rknn`` fallback."""
        results = []
        for spec in specs:
            if spec.kind == "aggregate_nn":
                results.append(self.aggregate_nn(
                    spec.group, spec.k, spec.agg, spec.exclude
                ))
                continue
            route = list(spec.route) if spec.kind == "continuous" else None
            points, diff = self._measure(
                lambda spec=spec, route=route: self._run_rknn(
                    spec.query, spec.k, spec.method, spec.exclude, route
                )
            )
            results.append(
                RnnResult(tuple(points), diff.io_operations,
                          diff.cpu_seconds, diff)
            )
        return results

    def _batch_measure(self, flat, requests, oracle):
        """Run the vectorized kernel under this facade's cost tracking.

        The kernel's per-request charges are merged into the facade
        tracker inside the timed block (exactly where the scalar path
        charges its work), then the measured CPU is apportioned evenly
        across the batch so per-query records stay comparable to
        scalar ones.
        """
        before = self.tracker.snapshot()
        with self.tracker.time_block():
            answers, charges = batch_rknn_kernel(
                flat, self.store.num_nodes, sorted(self.points.items()),
                requests, oracle=oracle,
            )
            for charge in charges:
                self.tracker.merge(charge)
        diff = self.tracker.diff(before)
        cpu_each = diff.cpu_seconds / max(1, len(requests))
        results = []
        for request, answer, charge in zip(requests, answers, charges):
            charge.cpu_seconds = cpu_each
            result = (KnnResult if isinstance(request, AggregateRequest)
                      else RnnResult)
            results.append(
                result(tuple(answer), charge.io_operations, cpu_each, charge)
            )
        return tuple(results)

    def _clone_storage(self) -> None:
        """Share the flat arrays as they are and the materialized lists
        copied on write (the head copies the table once, at its first
        write after a clone), so the clone keeps answering from the
        lists it pinned; only the tracker and the views bound to it
        are private."""
        if self.materialized is not None:
            self.materialized = MaterializedKNN(
                self.materialized.store.share()
            )

    def clear_buffer(self) -> None:
        """No-op: the compact store has no buffer to cool.

        Kept so workloads written against the disk backends (which
        call ``clear_buffer`` between cold runs) run unchanged.
        """


class CompactDatabase(_CompactStorage, UndirectedFacade):
    """Memory-resident CSR graph database answering (reverse) NN queries.

    Parameters
    ----------
    graph:
        The network.  It is flattened once into CSR arrays; queries
        never touch pages or a buffer.
    points:
        The data set P as a :class:`~repro.points.points.NodePointSet`
        (the compact backend serves restricted networks).  ``None``
        creates an empty set.
    node_order:
        Locality rank fed to the batch planner: ``"bfs"`` (default) or
        ``"hilbert"`` (requires coordinates).  Answers never depend on
        it; only batch execution order does.
    compact_threshold:
        When set, the delta log auto-compacts into a fresh base
        generation as soon as it holds this many operations (see
        :meth:`compact`); ``None`` (default) leaves compaction to
        explicit calls.
    """

    def __init__(
        self,
        graph: Graph,
        points: NodePointSet | None = None,
        *,
        node_order: str = "bfs",
        compact_threshold: int | None = None,
    ):
        self._init_state(graph, points)
        self._adopt(
            CompactGraphStore(graph, order=packing_order(graph, node_order)),
            compact_threshold,
        )

    #: The CSR store :meth:`from_database` decodes a disk database into.
    _store_class = CompactGraphStore

    def _adopt(self, store, threshold: int | None = None) -> None:
        """Finish construction on a ready CSR ``store`` and start the
        write history over it, auto-compacting at ``threshold``."""
        super()._adopt(store)
        #: The write history (:class:`~repro.compact.overlay.DeltaLog`).
        self.log = DeltaLog(store, self.graph, self.points, threshold=threshold)

    # -- properties ---------------------------------------------------------

    @property
    def stamp(self) -> tuple[int, int]:
        """The snapshot stamp ``(base_generation, delta_epoch)``.

        Names the exact database state a reader sees: the immutable
        CSR base plus a prefix of the append-only delta log.  The
        query engine keys its result cache on this two-part stamp, and
        the serve tier stamps every response with it, so appends
        invalidate exactly the entries they must (the epoch moves) and
        compactions -- which change no answers -- simply move cached
        traffic to a fresh key.
        """
        return self.log.stamp

    @property
    def needs_compaction(self) -> bool:
        """Whether the pending delta log has reached ``compact_threshold``."""
        return self.log.needs_fold

    @property
    def compact_threshold(self) -> int | None:
        """The auto-compaction trigger (``None``: explicit calls only)."""
        return self.log.threshold

    # -- storage ------------------------------------------------------------

    def _label_store(self, landmarks, tables) -> None:
        """Landmark labels stay in memory (no pages to persist to)."""
        return None

    def _landmark_distances(self, source: int) -> list[float]:
        """One landmark's distances by a Dijkstra over the CSR arrays,
        relaxations vectorized across each adjacency range (uncharged)."""
        return csr_landmark_distances(self.store.csr, source)

    def _check_oracle_network(self, what: str) -> None:
        self._require_base_network(what)

    def open_oracle(self, source) -> OracleResult:
        """Attach an oracle built elsewhere, kept in memory.

        See :meth:`repro.facade.UndirectedFacade.open_oracle`; a
        persisted label file is decoded once (uncharged) and not kept,
        so the result reports zero pages.
        """
        oracle, _, _ = resolve_oracle_source(source, self.graph.num_nodes)
        return super().open_oracle(oracle)

    def attach_reference(self, reference: NodePointSet) -> None:
        """Attach the reference set Q for bichromatic queries.

        See :meth:`repro.facade.UndirectedFacade.attach_reference`.
        Swapping Q replaces an immutable input outside the delta log,
        so it also moves the *base* half of the snapshot stamp --
        cached bichromatic answers keyed on the old stamp become
        unreachable.
        """
        super().attach_reference(reference)
        self.log.generation += 1

    # -- snapshots ----------------------------------------------------------

    def save_snapshot(self, path):
        """Write the immutable base to a snapshot directory.

        Thin wrapper over :func:`repro.compact.snapshot.save_snapshot`
        (see there for the format and the clean-base requirement).

        Parameters
        ----------
        path:
            Snapshot directory (created if missing).

        Returns
        -------
        pathlib.Path
            The snapshot directory.
        """
        from repro.compact.snapshot import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load_snapshot(
        cls, path, *, mmap: bool = True, compact_threshold=None
    ) -> "CompactDatabase":
        """Rebuild a database from a snapshot directory.

        With ``mmap=True`` (default) the CSR arrays are read-only
        memory maps: loading is constant-time and every process
        mapping the same snapshot shares physical pages -- the
        cross-process form of :meth:`read_clone`.

        Parameters
        ----------
        path:
            A directory written by :meth:`save_snapshot`.
        mmap:
            Map the arrays instead of copying them.
        compact_threshold:
            Auto-compaction trigger, as in the constructor; ``None``
            keeps the threshold the snapshot recorded.

        Returns
        -------
        CompactDatabase
            Answering exactly what the saved database answered,
            starting at stamp ``(0, 0)``.
        """
        from repro.compact.snapshot import load_snapshot

        return load_snapshot(
            path, mmap=mmap, compact_threshold=compact_threshold
        )

    # -- sessions -----------------------------------------------------------

    def at_epoch(self, epoch: int) -> "CompactDatabase":
        """A pinned read-only session answering as of delta ``epoch``.

        Time travel within the current base generation: the session
        holds the delta log pinned at ``epoch`` -- its point set and
        store are that log's replay -- and its :attr:`stamp` is
        ``(base_generation, epoch)``.  Because the base is immutable
        and the log append-only, the session stays valid while the
        head keeps mutating; it answers exactly what the head answered
        when its epoch *was* ``epoch``.  Epochs older than the last
        compaction are gone, and a session sees none past its own pin,
        so ``epoch`` must be within ``0 ..`` this database's epoch.

        Parameters
        ----------
        epoch:
            The delta epoch to pin (0 is the base itself).

        Returns
        -------
        CompactDatabase
            A read-only session: mutations and compaction raise
            :class:`~repro.errors.QueryError`.  Materialized lists and
            the bichromatic reference set are not carried (they track
            the head); the landmark oracle is kept whenever it is
            still admissible at ``epoch`` (no pending edge insertions
            in the prefix).
        """
        log = self.log.at(epoch)
        session = copy.copy(self)
        session.tracker = CostTracker()
        session.log = log
        session.points = log.points()
        session.store = log.store()
        session.materialized = None
        session._ref_points = None
        session._ref_view = None
        session._ref_materialized = None
        if any(op.kind == "insert-edge" for op in log.edge_ops()):
            session.oracle = None
        session._rebuild_view()
        return session

    def _clone_storage(self) -> None:
        """Also pin the clone's log at the current stamp: the clone
        keeps that stamp and refuses writes (see :meth:`at_epoch`)."""
        super()._clone_storage()
        self.log = self.log.at(self.log.epoch)

    # -- vectorized batch kernel --------------------------------------------

    #: Query kinds the vectorized batch kernel serves (engine dispatch).
    batch_kinds = ("rknn", "continuous", "aggregate_nn")

    def _kernel_arrays(self):
        """The CSR views the batch kernel expands over, or ``None``.

        Pending *edge* deltas hide the store's raw CSR arrays (the
        overlay shim has no ``csr``), so the batch falls back to the
        scalar loop until compaction folds the log; point deltas keep
        the kernel, since candidate placements are passed explicitly.
        """
        csr = getattr(self.store, "csr", None)
        return None if csr is None else csr.flat()

    # -- edge updates and compaction ----------------------------------------

    def insert_edge(self, u: int, v: int, weight: float) -> UpdateResult:
        """Append an edge insertion to the delta log.

        The CSR base stays untouched: the new edge lives in the delta
        log, and the facade's store becomes (or remains) the merged
        overlay view, so pinned readers -- ``read_clone()`` sessions
        and :meth:`at_epoch` snapshots -- keep answering over the
        state they captured.  Edge deltas suspend the fast paths built
        on the raw arrays: the vectorized batch kernel falls back to
        the scalar loop, materialized K-NN lists are dropped (their
        distances are stale), and an attached landmark oracle is
        detached (an insertion can shrink distances below the base's
        lower bounds).  :meth:`compact` folds the log into a fresh
        base and restores them all.

        Parameters
        ----------
        u / v:
            Distinct endpoint node ids.
        weight:
            Positive traversal cost.

        Returns
        -------
        UpdateResult
            ``affected`` is the number of pending delta operations
            after the append (pre-compaction).
        """
        self._require_writable()

        def run() -> int:
            if not (0 <= u < self.graph.num_nodes
                    and 0 <= v < self.graph.num_nodes):
                raise QueryError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise QueryError(f"self-loop on node {u} is not allowed")
            if weight <= 0:
                raise QueryError(
                    f"edge ({u}, {v}) has non-positive weight {weight}"
                )
            if self._has_edge(u, v):
                raise QueryError(f"edge ({u}, {v}) already exists")
            self.materialized = None
            self._ref_materialized = None
            self.oracle = None
            return self.log.epoch + 1

        affected, diff = self._measure(run)
        self._log_write("insert-edge", u=u, v=v, weight=float(weight))
        return UpdateResult(affected, diff.io_operations, diff.cpu_seconds, diff)

    def delete_edge(self, u: int, v: int) -> UpdateResult:
        """Append an edge deletion to the delta log.

        Like :meth:`insert_edge`, the base arrays stay immutable and
        the deletion is replayed by the merged view; materialized
        lists are dropped and the batch kernel falls back to scalar
        until :meth:`compact`.  An attached landmark oracle is *kept*
        but degraded to lower bounds only
        (:class:`~repro.oracle.bounds.LowerOnlyBounds`): deleting an
        edge can only grow distances, so the base's lower bounds
        remain admissible, while its upper bounds -- witness paths
        that may have used the deleted edge -- do not.

        Parameters
        ----------
        u / v:
            Endpoints of a currently live edge.

        Returns
        -------
        UpdateResult
            ``affected`` is the number of pending delta operations
            after the append (pre-compaction).
        """
        self._require_writable()

        def run() -> int:
            if not self._has_edge(u, v):
                raise QueryError(f"no edge between {u} and {v}")
            self.materialized = None
            self._ref_materialized = None
            if self.oracle is not None and not isinstance(
                    self.oracle, LowerOnlyBounds):
                self.oracle = LowerOnlyBounds(self.oracle)
            return self.log.epoch + 1

        affected, diff = self._measure(run)
        self._log_write("delete-edge", u=u, v=v)
        return UpdateResult(affected, diff.io_operations, diff.cpu_seconds, diff)

    # -- compaction ----------------------------------------------------------

    def compact(self) -> UpdateResult:
        """Fold the delta log into a fresh immutable base generation.

        See :meth:`repro.compact.overlay.DeltaLog.fold`: no answer
        changes by a single bit, and after a fold of edge operations
        :attr:`graph` is a :class:`~repro.compact.snapshot.CSRGraphAdapter`
        over the new arrays, as after :meth:`load_snapshot`.  The base
        generation is bumped, the epoch resets to 0 and the vectorized
        batch kernel / oracle builds are available again.  The update
        :attr:`generation` is *not* bumped: compaction changes no
        observable state.  An empty log folds nothing and bumps
        nothing, so forced compactions are idempotent.

        Returns
        -------
        UpdateResult
            ``affected`` is the number of delta operations folded.
        """
        self._require_writable()

        def run() -> int:
            folded = self.log.fold()
            if folded:
                self.graph = self.log.base_graph
                self.store = self.log.base_store
                self._rebind_views()
            return folded

        folded, diff = self._measure(run)
        return UpdateResult(folded, diff.io_operations, diff.cpu_seconds, diff)

    def _has_edge(self, u: int, v: int) -> bool:
        """Whether the head network holds edge ``(u, v)``."""
        return 0 <= u < self.graph.num_nodes and any(
            nbr == v for nbr, _ in self.store.neighbors(u)
        )

    def _log_write(self, kind: str, **fields) -> None:
        """Append a validated write; auto-compact past the threshold.
        Only an edge operation swaps the store and rebinds the views (a
        point write has rebuilt its view); pinned sessions are untouched."""
        op = DeltaOp(kind, **fields)
        self.log.append(op)
        if op.is_edge_op:
            self.store = self.log.store()
            self._rebind_views()
        self.generation += 1
        if self.needs_compaction:
            self.compact()

    def _require_writable(self) -> None:
        self.log.require_head()

    def _require_base_network(self, what: str) -> None:
        pending = len(self.log.edge_ops())
        if pending:
            raise QueryError(
                f"{what}() needs the CSR base: {pending} "
                "edge delta(s) pending -- compact() first"
            )


class CompactDirectedDatabase(_CompactStorage, DirectedFacade):
    """Memory-resident CSR directed graph database answering RkNN queries.

    Inherits :class:`~repro.api_directed.DirectedGraphDatabase`'s
    surface over a :class:`~repro.compact.store.CompactDiGraphStore`:
    backward expansions and forward probes read the two CSR direction
    arrays, free of page I/O.
    """

    def __init__(
        self,
        graph: DiGraph,
        points: NodePointSet | None = None,
    ):
        self._init_state(graph, points)
        self._adopt(CompactDiGraphStore(graph))

    #: The CSR store :meth:`from_database` decodes a disk database into.
    _store_class = CompactDiGraphStore

    # -- vectorized batch kernel --------------------------------------------

    #: Query kinds the vectorized batch kernel serves (engine dispatch).
    batch_kinds = ("rknn", "aggregate_nn")

    def _kernel_arrays(self):
        """The out-arc CSR views: candidate points expand *forward*
        (distances ``d(p -> .)``) and the membership test compares
        ``d(p -> q)`` against each point's k-th nearest competitor --
        the directed RkNN definition; group members expand forward
        too, to the distances ``d(member -> p)`` the directed ``knn``
        returns."""
        return self.store.csr.out_flat()
