"""LSM-style delta log over an immutable CSR base generation.

* the CSR arrays stay **immutable** -- they are the *base
  generation*;
* every mutation is appended to the :class:`DeltaLog` as a
  :class:`DeltaOp` (point insert/delete, edge insert/delete), bumping
  the *delta epoch* (the number of appended operations);
* readers pin a ``(base_generation, delta_epoch)`` **stamp**
  (:meth:`DeltaLog.at`): a snapshot is the base arrays plus a log
  prefix, so appends never invalidate -- let alone drain -- a running
  query;
* :class:`OverlayGraphStore` is the thin merged-view shim: it speaks
  the same store protocol as
  :class:`~repro.compact.store.CompactGraphStore` (``num_nodes``,
  ``num_edges``, ``page_of``, ``neighbors``) while replaying the
  pending *edge* operations over the base adjacency on demand;
* the fold (:meth:`DeltaLog.fold`, behind
  :meth:`~repro.compact.db.CompactDatabase.compact`) flattens the
  merged view into a fresh CSR base, bumps the base generation and
  resets the epoch to zero.

**Answer identity.**  Heap tie-breaking -- and therefore every RkNN
answer -- depends on adjacency *order*.  The merged view reproduces
exactly the order a from-scratch rebuild would produce: a node's base
neighbors in their original order, minus deleted edges (deletion
preserves the relative order of survivors), plus delta-inserted edges
in append order.  Rebuilding a :class:`~repro.graph.graph.Graph` from
the same merged edge sequence yields identical adjacency lists, so
overlay-view answers are bitwise identical to a rebuild at every
epoch -- the property suite in
``tests/compact/test_overlay_properties.py`` holds the system to it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.compact.csr import CSRGraph
from repro.compact.snapshot import CSRGraphAdapter
from repro.compact.store import CompactGraphStore
from repro.errors import QueryError, StorageError
from repro.graph.partition import bfs_order
from repro.points.points import NodePointSet

#: Operation kinds a delta log may hold.
OP_KINDS = ("insert-point", "delete-point", "insert-edge", "delete-edge")

#: The subset of :data:`OP_KINDS` that changes the network itself.
EDGE_KINDS = ("insert-edge", "delete-edge")


@dataclass(frozen=True)
class DeltaOp:
    """One appended mutation in a :class:`DeltaLog`.

    Point operations carry ``pid``/``node``; edge operations carry
    ``u``/``v`` (and ``weight`` for insertions).  Instances are frozen:
    a log entry never changes after it is appended, which is what makes
    a ``(base, epoch)`` stamp a durable snapshot name.

    Parameters
    ----------
    kind:
        One of :data:`OP_KINDS`.
    pid / node:
        Point id and node for point operations (``node`` is ``None``
        for deletions).
    u / v / weight:
        Endpoints and weight for edge operations (``weight`` is
        ``None`` for deletions).
    """

    kind: str
    pid: int | None = None
    node: int | None = None
    u: int | None = None
    v: int | None = None
    weight: float | None = None

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise QueryError(f"unknown delta op kind {self.kind!r}")

    @property
    def is_edge_op(self) -> bool:
        """Whether this operation mutates the network (see
        :data:`EDGE_KINDS`)."""
        return self.kind in EDGE_KINDS


class DeltaLog:
    """The compact backend's write history over an immutable base.

    The base generation -- the CSR store, the graph and the point set
    at the last fold -- never changes; every write is appended as a
    :class:`DeltaOp`.  The log length is the **delta epoch**, and the
    prefix of length ``e`` names the exact state after the first ``e``
    writes: :meth:`at` pins it, :meth:`points` and :meth:`store`
    replay it.  A pinned log shares the head's base and operation list
    (constant-time) and refuses appends and folds.

    Parameters
    ----------
    store / graph / points:
        The base CSR store, network and point set (epoch 0).
    threshold:
        Auto-compaction trigger (see :attr:`needs_fold`); ``None``
        leaves folds to explicit calls.
    """

    def __init__(self, store, graph, points: NodePointSet, *,
                 threshold: int | None = None):
        if threshold is not None and threshold < 1:
            raise QueryError(f"compact_threshold must be >= 1, got {threshold}")
        self.base_store = store
        self.base_graph = graph
        self.base_points = points
        #: Base generation: bumped by every fold, and by the facade when
        #: an input outside the log changes (the bichromatic reference set).
        self.generation = 0
        self.threshold = threshold
        # append-only until a fold rebinds it, so pinned logs share it
        self._ops: list[DeltaOp] = []
        self._pin: int | None = None

    @property
    def epoch(self) -> int:
        """The delta epoch: operations appended since the last fold."""
        return len(self._ops) if self._pin is None else self._pin

    @property
    def stamp(self) -> tuple[int, int]:
        """``(base_generation, delta_epoch)``: the state this log names."""
        return (self.generation, self.epoch)

    @property
    def needs_fold(self) -> bool:
        """Whether the log holds ``threshold`` operations or more."""
        return self.threshold is not None and self.epoch >= self.threshold

    def at(self, epoch: int) -> "DeltaLog":
        """A read-only log pinned at ``epoch``, in ``0 .. self.epoch``."""
        if not 0 <= epoch <= self.epoch:
            raise QueryError(
                f"epoch {epoch} out of range (log holds epochs "
                f"0..{self.epoch})"
            )
        pinned = copy.copy(self)
        pinned._pin = epoch
        return pinned

    def require_head(self) -> None:
        """Raise :class:`~repro.errors.QueryError` on a pinned log."""
        if self._pin is not None:
            raise QueryError(f"sessions pinned at {self.stamp} are read-only")

    def append(self, op: DeltaOp) -> int:
        """Append one operation, validated by the caller; return the
        new epoch."""
        self.require_head()
        self._ops.append(op)
        return len(self._ops)

    def ops(self) -> list[DeltaOp]:
        """The operations up to this log's epoch, in append order."""
        return self._ops[:self.epoch]

    def edge_ops(self) -> list[DeltaOp]:
        """The edge operations up to this log's epoch."""
        return [op for op in self.ops() if op.is_edge_op]

    def points(self) -> NodePointSet:
        """The base points with this log's point operations applied."""
        placement = dict(self.base_points.items())
        for op in self.ops():
            if op.kind == "insert-point":
                placement[op.pid] = op.node
            elif op.kind == "delete-point":
                del placement[op.pid]
        return NodePointSet(placement)

    def store(self):
        """The base store, or the merged view of this log's edge
        operations over it."""
        edge_ops = self.edge_ops()
        if not edge_ops:
            return self.base_store
        return OverlayGraphStore(self.base_store, edge_ops)

    def fold(self) -> int:
        """Make the head state the new base; return the operations folded.

        Edge operations flatten the merged view's lists into new CSR
        arrays (adjacency order, and so every answer, unchanged), under
        a :class:`~repro.compact.snapshot.CSRGraphAdapter` whose BFS
        order is the new locality rank; a point-only log keeps the
        arrays.  A non-empty fold bumps the generation and restarts
        the epoch at 0; an empty one changes nothing.
        """
        self.require_head()
        folded = len(self._ops)
        if folded:
            store = self.store()
            if store is not self.base_store:
                csr = CSRGraph([store.neighbors(v)
                                for v in range(store.num_nodes)])
                self.base_graph = CSRGraphAdapter(
                    csr, coords=self.base_graph.coords)
                self.base_store = CompactGraphStore(
                    csr=csr, order=bfs_order(self.base_graph))
            self.base_points = self.points()
            self._ops = []
            self.generation += 1
        return folded


class OverlayGraphStore:
    """Merged view of a CSR base plus pending edge operations.

    Speaks the compact store protocol (``num_nodes`` / ``num_edges`` /
    ``num_pages`` / ``page_of`` / ``neighbors``) so
    :class:`~repro.core.network.NetworkView` -- and through it every
    expansion kernel -- consults the overlay without change.  A node's
    adjacency is replayed lazily and memoized: base neighbors in base
    order, deletions removing their single matching entry, insertions
    appended in log order.  Nodes no edge operation touches return the
    base tuple itself (same objects, same floats -- bitwise identical).

    Deliberately does **not** expose a ``csr`` attribute: the
    vectorized batch kernel and the landmark-oracle builder read raw
    flat arrays, which do not reflect pending edge deltas, so the
    facade falls back to the scalar path (and refuses oracle builds)
    whenever its store is an overlay view.  Compaction restores the
    fast paths.

    Parameters
    ----------
    base:
        The immutable :class:`~repro.compact.store.CompactGraphStore`.
    edge_ops:
        The pending edge operations, in append order (a
        :meth:`DeltaLog.edge_ops` prefix).
    """

    def __init__(self, base, edge_ops):
        self.base = base
        self.edge_ops = tuple(edge_ops)
        self.num_nodes = base.num_nodes
        inserts = sum(1 for op in self.edge_ops if op.kind == "insert-edge")
        self.num_edges = base.num_edges + 2 * inserts - len(self.edge_ops)
        self._node_ops: dict[int, list[DeltaOp]] = {}
        for op in self.edge_ops:
            if not op.is_edge_op:
                raise StorageError(
                    f"OverlayGraphStore takes edge operations, got {op.kind!r}"
                )
            self._node_ops.setdefault(op.u, []).append(op)
            self._node_ops.setdefault(op.v, []).append(op)
        self._merged: dict[int, tuple[tuple[int, float], ...]] = {}

    @property
    def num_pages(self) -> int:
        """Always 0: the overlay view is memory-resident."""
        return 0

    def page_of(self, node: int) -> int:
        """The base store's locality rank (delta edges do not repack)."""
        return self.base.page_of(node)

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Merged adjacency of ``node``: base order, then delta appends.

        Parameters
        ----------
        node:
            Node id.

        Returns
        -------
        tuple[tuple[int, float], ...]
            Exactly the adjacency a from-scratch rebuild at this epoch
            would produce, so heap tie-breaking -- and every answer --
            matches the rebuild bitwise.
        """
        ops = self._node_ops.get(node)
        if ops is None:
            return self.base.neighbors(node)
        merged = self._merged.get(node)
        if merged is None:
            entries = list(self.base.neighbors(node))
            for op in ops:
                other = op.v if op.u == node else op.u
                if op.kind == "insert-edge":
                    entries.append((other, float(op.weight)))
                else:
                    for i, (nbr, _) in enumerate(entries):
                        if nbr == other:
                            del entries[i]
                            break
            merged = tuple(entries)
            self._merged[node] = merged
        return merged
