"""Admission planning: method resolution and buffer-friendly ordering.

A batch of heterogeneous queries admitted together can be executed in
any order, and order matters: the database's LRU buffer rewards runs of
queries that touch the same page neighborhoods.  :func:`plan_batch`
therefore

1. resolves ``method="auto"`` specs through a
   :class:`~repro.analytics.planner.CalibratingPlanner` (the paper's
   measured cost model picks the cheapest RkNN method for each ``k``);
2. groups specs by ``(kind, method, k)`` so one algorithm's access
   pattern runs to completion before the next starts, ordering RkNN
   groups by the planner's estimated per-query cost when available
   (cheap, shallow expansions first keeps the buffer warm for the
   deep ones);
3. when the database carries a landmark distance oracle
   (``db.oracle``, see :mod:`repro.oracle`), orders queries within a
   group by a *coarse tier* of their estimated expansion radius --
   the oracle's lower bound from the query node to its nearest data
   point, quantized to powers of two so that nearby radii share a
   tier and the page ordering below still applies within it.
   Shallow expansions run first, which keeps the buffer warm for the
   deep ones (the same rationale as the calibrated group ordering, at
   per-query granularity);
4. within a group (and radius tier), sorts queries by the disk page of
   their location (the :mod:`repro.graph.partition` packing order), so
   queries whose expansions start from the same page run adjacently
   and share buffer frames.  Sharded backends hand out *shard-major*
   page ranks, so the same sort also groups queries by home shard --
   the order the engine's worker pool exploits to execute distinct
   shards concurrently (see :func:`repro.engine.engine.QueryEngine`).

The plan is a permutation of the batch -- results are always reported
in the caller's original order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.engine.spec import AUTO_METHOD, METHOD_KINDS, QuerySpec
from repro.errors import QueryError
from repro.oracle.prune import scan_is_profitable


@dataclass(frozen=True)
class BatchPlan:
    """An executable ordering of one batch.

    ``specs`` are the resolved specs (``auto`` methods replaced), index-
    aligned with the caller's batch; ``order`` is the execution
    permutation over those indices.
    """

    specs: tuple[QuerySpec, ...]
    order: tuple[int, ...]

    def explain(self) -> str:
        """Human-readable account of the chosen execution order."""
        lines = [f"batch plan over {len(self.specs)} queries:"]
        for position, index in enumerate(self.order):
            spec = self.specs[index]
            method = f" {spec.method}" if spec.kind in METHOD_KINDS else ""
            lines.append(
                f"  {position:3d}: [{index}] {spec.kind}{method} "
                f"k={spec.k} query={spec.query}"
            )
        return "\n".join(lines)


def resolve_method(spec: QuerySpec, calibrator=None) -> QuerySpec:
    """Replace ``method="auto"`` with the calibrating planner's choice."""
    if spec.method != AUTO_METHOD:
        return spec
    if spec.kind not in METHOD_KINDS:
        return replace(spec, method="eager")
    if calibrator is None:
        raise QueryError(
            "method 'auto' needs a calibrating planner; "
            "construct the engine with calibrator=CalibratingPlanner(db)"
        )
    return replace(spec, method=calibrator.method_for(spec.k))


def _rank_location(db, query, rank_node) -> int:
    """Rank a query location through a per-node rank function.

    Edge locations rank by the smaller rank of their two endpoints;
    out-of-range locations rank 0 -- planning and routing must not
    fail before the facade's own validation can reject the query with
    a clean error.
    """
    num_nodes = db.graph.num_nodes
    if isinstance(query, int):
        return rank_node(query) if 0 <= query < num_nodes else 0
    u, v, _ = query
    if not (0 <= u < num_nodes and 0 <= v < num_nodes):
        return 0
    return min(rank_node(u), rank_node(v))


def backend_of(db) -> str:
    """The storage backend class of a database: one of
    ``"disk"``, ``"sharded"``, ``"compact"``.

    Every facade inherits a ``backend`` tag; anything without one is
    treated as the single disk store.  The tag only labels spans,
    slow-log records, ``EXPLAIN`` output and ``/metrics``: the engine
    picks its strategies from capabilities (``shard_of``,
    ``batch_kinds``), not from this value.
    """
    return getattr(db, "backend", "disk")


def kernel_batch_kinds(db) -> tuple[str, ...]:
    """Query kinds ``db`` can answer through a vectorized batch kernel.

    A database with a kernel (``batch_rknn`` over the compact CSR flat
    arrays) advertises the kinds it vectorizes through a
    ``batch_kinds`` attribute (``("rknn", "continuous",
    "aggregate_nn")`` undirected, ``("rknn", "aggregate_nn")``
    directed).  Every other database returns ``()``, so
    the engine's dispatch degrades to the scalar per-spec loop.
    """
    return tuple(getattr(db, "batch_kinds", ()))


def home_shard(db, query) -> int:
    """Shard owning a query's start location (0 for unsharded backends).

    Sharded databases expose ``shard_of``; a query expanding outward
    from a node first touches that node's shard, so the home shard is
    where the expansion's I/O concentrates.  The engine's worker pool
    routes queries to workers by this value.
    """
    shard_of = getattr(db, "shard_of", None)
    if shard_of is None:
        return 0
    return _rank_location(db, query, shard_of)


def page_rank(db, query) -> int:
    """Disk page holding a query location (free node-index look-up).

    A database whose disk layer exposes no page index ranks everything
    0.  Sharded stores hand out shard-major page ranks, so sorting by
    this value alone already groups queries by shard first and by page
    within a shard second.
    """
    page_of = getattr(db.disk, "page_of", None)
    if page_of is None:
        return 0
    return _rank_location(db, query, page_of)


def oracle_radius_hint(db, query) -> float:
    """Estimated expansion radius of a query location (free look-up).

    With a landmark distance oracle attached (``db.oracle``), the
    lower bound from the query node to its nearest data point
    under-estimates how far *any* NN-style expansion from that node
    must travel before meeting data -- a per-query cost proxy the
    admission planner can sort on without touching a page.  Databases
    without an oracle (or with no points, non-node queries, or point
    sets too dense for the scan to pay off -- see
    :func:`repro.oracle.prune.scan_is_profitable`) rank ``0.0``,
    preserving the legacy ordering exactly.
    """
    oracle = getattr(db, "oracle", None)
    if oracle is None or not isinstance(query, int):
        return 0.0
    if not 0 <= query < oracle.num_nodes:
        return 0.0
    points = getattr(db, "points", None)
    items = getattr(points, "items", None)
    if items is None:
        return 0.0
    if not scan_is_profitable(len(points), oracle.num_landmarks,
                              oracle.num_nodes):
        return 0.0
    best = math.inf
    for _, node in items():
        bound = oracle.lower_bound(query, node)
        if bound < best:
            best = bound
            if best == 0.0:
                break
    return best if math.isfinite(best) else 0.0


def radius_tier(hint: float) -> int:
    """Quantize a radius hint into a coarse power-of-two tier.

    Continuous hints would be unique per query and silently override
    the page-adjacency tiebreak; integer tiers keep "about equally
    deep" queries together so page locality still orders them.
    """
    if hint <= 0.0:
        return 0
    return max(0, int(math.log2(hint)) + 1)


def plan_batch(db, specs, calibrator=None) -> BatchPlan:
    """Resolve and order a batch for buffer-friendly execution."""
    resolved = tuple(resolve_method(spec, calibrator) for spec in specs)

    def group_cost(spec: QuerySpec) -> float:
        if calibrator is not None and spec.kind == "rknn":
            try:
                return calibrator.estimated_seconds(spec.k)
            except QueryError:
                pass
        return 0.0

    hint_cache: dict = {}

    def cached_tier(query) -> int:
        key = query if isinstance(query, int) else None
        if key not in hint_cache:
            hint_cache[key] = radius_tier(oracle_radius_hint(db, query))
        return hint_cache[key]

    def sort_key(index: int):
        spec = resolved[index]
        return (
            group_cost(spec),
            spec.kind,
            spec.method,
            spec.k,
            cached_tier(spec.query),
            page_rank(db, spec.query),
            index,
        )

    order = tuple(sorted(range(len(resolved)), key=sort_key))
    return BatchPlan(resolved, order)
