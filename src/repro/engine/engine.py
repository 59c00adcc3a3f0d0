"""Batched, cached, concurrent query execution over a graph database.

:class:`QueryEngine` is the serving layer above the paper's query
algorithms: where :class:`~repro.api.GraphDatabase` answers one query
at a time, the engine admits *batches* of heterogeneous
:class:`~repro.engine.spec.QuerySpec` values and executes them through
three cooperating mechanisms:

* an LRU **result cache** keyed on ``(kind, args, snapshot)``
  (:mod:`repro.engine.cache`) -- the snapshot component is the
  database's two-part delta-overlay stamp ``(base_generation,
  delta_epoch)`` when it has one (see :attr:`QueryEngine.cache_stamp`),
  or the plain update generation otherwise; repeated queries cost
  nothing, and any mutation moves the snapshot, invalidating every
  stale entry;
* an **admission planner** (:mod:`repro.engine.planner`) that resolves
  ``method="auto"`` through the calibrating cost model and orders each
  batch so queries touching the same disk pages run adjacently;
* a **worker pool** (:mod:`concurrent.futures`) for read-only batches:
  each worker runs on a :meth:`~repro.api.GraphDatabase.read_clone`
  session with a private buffer and tracker, and the per-query counter
  diffs are merged back into the database's global accounting.  The
  pool adapts to the database's capabilities, not its ``backend`` tag:
  over a **sharded** backend (:mod:`repro.shard`) queries are routed to
  the shard their expansion starts in and whole shard buckets are
  assigned to workers, so independent shards execute concurrently;
  over a **compact** backend (:mod:`repro.compact`) worker sessions
  share the read-only CSR arrays -- a session is just a private
  tracker, so there is no per-worker storage to clone or warm -- and
  the RkNN / continuous / ``aggregate_nn`` specs of each chunk
  execute through the backend's vectorized ``batch_rknn`` numpy
  kernel (:mod:`repro.compact.batch`) in one pass instead of a
  per-spec Python loop (``batch_kernel=False`` restores the scalar
  loop).

Results come back in the caller's original batch order and are
bitwise-identical to a sequential loop over the facade (the engine
only reorders and deduplicates; it never changes an algorithm).

Usage::

    engine = db.engine()
    batch = [QuerySpec("rknn", query=7, k=2), QuerySpec("knn", query=3, k=1)]
    outcome = engine.run_batch(batch, workers=4)
    outcome.results[0].points, outcome.hits, outcome.counters.io_operations
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.engine.cache import CacheStats, ResultCache
from repro.engine.groups import expand, needs_expansion
from repro.engine.planner import (
    BatchPlan,
    backend_of,
    home_shard,
    kernel_batch_kinds,
    plan_batch,
    resolve_method,
)
from repro.engine.spec import QuerySpec
from repro.errors import QueryError
from repro.obs.trace import NOOP_TRACER
from repro.storage.stats import CostTracker


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch: per-query results plus batch-level accounting.

    Attributes
    ----------
    results:
        Result objects in the caller's original batch order (cache hits
        carry a zero cost record).
    order:
        The execution permutation the planner chose over the *flat*
        batch -- the admitted specs with every group kind expanded
        into its primitive sub-specs (equal to the admitted batch when
        no spec needed expansion).
    hits / misses:
        Result-cache outcomes over the flat batch (a repeated spec
        within one batch counts as a hit for every repetition after
        the first).
    executed:
        Distinct queries actually run against the database.
    elapsed_seconds:
        Wall-clock time of the whole batch.
    counters:
        Merged counter diff of every executed query.
    """

    results: tuple
    order: tuple[int, ...]
    hits: int
    misses: int
    executed: int
    elapsed_seconds: float
    counters: CostTracker = field(repr=False, default_factory=CostTracker)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def io(self) -> int:
        """Physical page transfers charged to the batch."""
        return self.counters.io_operations

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0.0 for an empty or instantaneous batch)."""
        if not self.results or self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.elapsed_seconds


class QueryEngine:
    """Batch executor with result caching over one graph database.

    Parameters
    ----------
    db:
        A :class:`~repro.api.GraphDatabase` or
        :class:`~repro.api_directed.DirectedGraphDatabase`.  The engine
        holds a reference, not a copy: updates through either the
        engine or the database itself bump the database's generation
        and thereby invalidate cached results.
    cache_entries:
        Result-cache capacity (``0`` disables caching).
    calibrator:
        Optional :class:`~repro.analytics.planner.CalibratingPlanner`;
        required to execute ``method="auto"`` specs and used to order
        RkNN groups by estimated cost.
    plan:
        When false, batches execute in the caller's order (no locality
        grouping); the cache still applies.
    shard_parallel:
        Shard-aware worker routing (default on).  When the database is
        sharded (it exposes ``shard_of``) and a batch runs with
        ``workers > 1``, pending queries are bucketed by the shard
        their expansion starts in and whole buckets are assigned to
        workers, so independent shards execute concurrently and no two
        workers contend for the same shard's pages.  Ignored for
        unsharded databases; ``False`` falls back to contiguous
        chunking.
    batch_kernel:
        Vectorized batch dispatch (default on).  Over a compact
        backend, the cache-missing RkNN / continuous / ``aggregate_nn``
        specs of a batch (or of a worker's chunk) execute through the
        database's
        ``batch_rknn`` numpy kernel in one pass instead of a per-spec
        loop -- answers are bitwise identical either way, and cached
        results stay keyed on ``(generation, spec)`` exactly like
        scalar ones.  ``False`` forces the scalar loop (the
        ``--no-batch-kernel`` CLI flag and A/B benchmarks use this).
    tracer:
        Default :class:`~repro.obs.trace.Tracer` for every batch
        (``None`` wires in the no-op tracer: zero overhead).  A
        per-call ``tracer=`` on :meth:`run_batch` overrides it, which
        is how ``EXPLAIN`` traces one statement without turning
        tracing on engine-wide.
    slow_log:
        Optional :class:`~repro.obs.slowlog.SlowQueryLog`; every
        executed spec slower than its threshold is appended as one
        JSONL record.  When unset (the default), per-spec timing is
        skipped entirely.
    """

    def __init__(
        self,
        db,
        *,
        cache_entries: int = 1024,
        calibrator=None,
        plan: bool = True,
        shard_parallel: bool = True,
        batch_kernel: bool = True,
        tracer=None,
        slow_log=None,
    ):
        self.db = db
        self.cache = ResultCache(cache_entries)
        self.calibrator = calibrator
        self.plan_batches = plan
        self.shard_parallel = shard_parallel
        self.batch_kernel = batch_kernel
        self.tracer = NOOP_TRACER if tracer is None else tracer
        self.slow_log = slow_log

    @property
    def backend(self) -> str:
        """The database's storage backend: ``"disk"``, ``"sharded"``
        or ``"compact"`` (see :func:`repro.engine.planner.backend_of`)."""
        return backend_of(self.db)

    @property
    def generation(self) -> int:
        """The database's update generation (cache-key component)."""
        return self.db.generation

    @property
    def cache_stamp(self):
        """The snapshot identifier the result cache is keyed on.

        Databases with a delta overlay (the compact backend) expose a
        two-part ``stamp = (base_generation, delta_epoch)``: a delta
        append moves the epoch (invalidating exactly the entries whose
        answers may have changed) and a compaction moves the base.
        Hashing only ``db.generation`` would go stale there --
        compaction resets no generation, and two distinct snapshots
        could collide on one counter.  Backends without a stamp fall
        back to the scalar generation, unchanged.
        """
        stamp = getattr(self.db, "stamp", None)
        return self.db.generation if stamp is None else stamp

    @property
    def cache_stats(self) -> CacheStats:
        """The result cache's observable counters."""
        return self.cache.stats

    # -- single queries -----------------------------------------------------

    def run(self, spec: QuerySpec):
        """Execute one spec through the cache.

        A hit returns the cached answer re-labeled with a zero cost
        record (a hit performs no I/O and no expansion); a miss
        executes on the database and caches the result.  Group kinds
        and range-restricted variants (see :mod:`repro.engine.groups`)
        delegate to :meth:`run_batch` so their sub-queries share the
        batch pipeline (and the vectorized kernel where available).
        """
        spec = resolve_method(spec, self.calibrator)
        if needs_expansion(spec):
            return self.run_batch([spec]).results[0]
        if self.tracer.enabled or self.slow_log is not None:
            # route through the batch pipeline so the span tree and
            # the slow log see single queries too
            return self.run_batch([spec]).results[0]
        generation = self.cache_stamp
        cached = self.cache.get(generation, spec.key())
        if cached is not None:
            return _zero_cost(cached)
        result = self._execute(self.db, spec)
        self.cache.put(generation, spec.key(), result)
        return result

    # -- batches ------------------------------------------------------------

    def run_batch(self, specs: Sequence[QuerySpec], workers: int = 1,
                  *, tracer=None) -> BatchResult:
        """Execute a batch of read-only queries.

        The batch is planned (see :mod:`repro.engine.planner`), probed
        against the result cache, deduplicated (identical specs execute
        once), and the remaining misses run either sequentially on the
        database or -- with ``workers > 1`` -- across read-only worker
        sessions whose counter diffs are merged back into the
        database's tracker.  Results keep the caller's order.

        Worker sessions start with *cold private buffers* (thread
        safety forbids sharing the LRU), so a page that a sequential
        run would fault once can fault once per worker: with a cold
        cache and few distinct queries, ``workers=1`` reports less
        physical I/O and pure-Python batches gain little wall-clock
        from threads.  Workers pay off for large miss-heavy batches
        over disjoint page neighborhoods (which the planner's chunking
        preserves); the result cache, not the pool, is what makes
        repeated traffic cheap.

        Group kinds (``topk_influence``) and range-restricted RkNN
        specs are first expanded into primitive sub-specs
        (:mod:`repro.engine.groups`); the sub-specs join the flat
        batch -- so they are planned, deduplicated, cached and
        vectorized exactly like caller-supplied primitives -- and the
        combined answers are cached under the group spec's own key.
        ``aggregate_nn`` is primitive: one spec per statement, which a
        compact backend's kernel serves beside the batch's RkNN specs
        (one row per distinct group member) and every other backend
        answers with one ``knn(member, |P|)`` per distinct member.

        ``tracer`` overrides the engine's default tracer for this one
        batch (``EXPLAIN`` and the serve tier's per-request tracing
        pass a fresh :class:`~repro.obs.trace.Tracer` here).  With the
        default no-op tracer and no slow log, the batch runs the
        untraced fast path unchanged.
        """
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        tracer = self.tracer if tracer is None else tracer
        if not tracer.enabled:
            return self._run_batch(specs, workers, NOOP_TRACER)
        with tracer.span("engine.run_batch", backend=self.backend,
                         specs=len(specs), workers=workers) as root:
            outcome = self._run_batch(specs, workers, tracer)
            root.set(hits=outcome.hits, misses=outcome.misses,
                     executed=outcome.executed)
        return outcome

    def _run_batch(self, specs: Sequence[QuerySpec], workers: int,
                   tracer) -> BatchResult:
        """The batch pipeline body (see :meth:`run_batch`)."""
        start = time.perf_counter()
        admitted = [resolve_method(spec, self.calibrator) for spec in specs]
        generation = self.cache_stamp

        results: list = [None] * len(admitted)
        hits = 0
        flat: list[QuerySpec] = []  # primitive specs, expansion applied
        slots: list[tuple[int, ...]] = []  # admitted index -> flat indices
        expansions: dict[int, object] = {}
        for position, spec in enumerate(admitted):
            if not needs_expansion(spec):
                slots.append((len(flat),))
                flat.append(spec)
                continue
            cached = self.cache.get(generation, spec.key())
            if cached is not None:
                results[position] = _zero_cost(cached)
                hits += 1
                slots.append(())
                continue
            expansion = expand(self.db, spec)
            expansions[position] = expansion
            slots.append(
                tuple(range(len(flat), len(flat) + len(expansion.subspecs)))
            )
            flat.extend(expansion.subspecs)

        with tracer.span("planner.plan_batch", specs=len(flat),
                         planned=self.plan_batches):
            if self.plan_batches:
                plan = plan_batch(self.db, flat, self.calibrator)
            else:
                resolved = tuple(resolve_method(s, self.calibrator) for s in flat)
                plan = BatchPlan(resolved, tuple(range(len(resolved))))

        flat_results: list = [None] * len(flat)
        pending: list[tuple[int, QuerySpec]] = []  # first occurrence per key
        followers: dict[tuple, list[int]] = {}  # key -> later duplicate indices
        probed = hits
        with tracer.span("cache.probe", specs=len(plan.order)) as probe:
            for index in plan.order:
                spec = plan.specs[index]
                key = spec.key()
                if key in followers:
                    followers[key].append(index)
                    continue
                cached = self.cache.get(generation, key)
                if cached is not None:
                    flat_results[index] = _zero_cost(cached)
                    hits += 1
                    continue
                followers[key] = []
                pending.append((index, spec))
            probe.set(hits=hits - probed, misses=len(pending))

        executed = self._execute_pending(
            pending, workers, generation, flat_results, tracer
        )
        batch_counters = CostTracker.merged(
            flat_results[index].counters for index, _ in pending
        )
        for index, spec in pending:
            for dup in followers[spec.key()]:
                flat_results[dup] = _zero_cost(flat_results[index])
                hits += 1

        for position, spec in enumerate(admitted):
            if results[position] is not None:
                continue
            expansion = expansions.get(position)
            if expansion is None:
                results[position] = flat_results[slots[position][0]]
            else:
                combined = expansion.combine(
                    [flat_results[index] for index in slots[position]]
                )
                self.cache.put(generation, spec.key(), combined)
                results[position] = combined

        return BatchResult(
            results=tuple(results),
            order=plan.order,
            hits=hits,
            misses=len(pending),
            executed=executed,
            elapsed_seconds=time.perf_counter() - start,
            counters=batch_counters,
        )

    def _execute_pending(
        self,
        pending: list[tuple[int, QuerySpec]],
        workers: int,
        generation: int,
        results: list,
        tracer,
    ) -> int:
        """Run the cache misses; fill ``results``; return executed count."""
        if not pending:
            return 0
        if workers == 1 or len(pending) == 1:
            for index, result in self._run_items(self.db, pending, tracer):
                results[index] = result
        else:
            # sharded storage (it exposes shard_of): whole shard buckets
            # per worker; otherwise contiguous planner-order chunks
            # (compact sessions share the read-only CSR arrays, so the
            # pool costs one tracker per worker, not a storage clone).
            if self.shard_parallel and hasattr(self.db, "shard_of"):
                chunks = _shard_chunks(self.db, pending, workers)
            else:
                chunks = _contiguous_chunks(pending, workers)
            # worker threads have empty span stacks, so the hand-off to
            # the batch's span tree must carry the parent id explicitly
            parent = tracer.current_id()
            with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [
                    pool.submit(self._run_chunk, chunk, tracer, parent)
                    for chunk in chunks
                ]
                outcomes = [future.result() for future in futures]
            merge_shards = getattr(self.db, "merge_session_shards", None)
            for chunk_results, session in outcomes:
                if merge_shards is not None:
                    # sharded backends also keep the per-shard I/O
                    # decomposition of the worker's session
                    merge_shards(session)
                for index, result in chunk_results:
                    results[index] = result
                    # fold the worker session's per-query work into the
                    # database's global accounting
                    self.db.tracker.merge(result.counters)
        for index, spec in pending:
            self.cache.put(generation, spec.key(), results[index])
        return len(pending)

    def _run_chunk(self, chunk: list[tuple[int, QuerySpec]], tracer,
                   parent) -> tuple[list, object]:
        """Worker body: execute a chunk on a private read-only session.

        ``parent`` is the submitting thread's current span id; the
        worker's ``engine.worker`` span attaches there so the span tree
        stays connected across the pool hop.  Returns the per-query
        results together with the session, so the caller can fold the
        session's shard counters back into the parent database (done on
        the main thread; trackers are not thread-safe to merge
        concurrently).
        """
        session = self.db.read_clone()
        with tracer.span("engine.worker", parent=parent, chunk=len(chunk)):
            return self._run_items(session, chunk, tracer), session

    def _run_items(self, db, items: list[tuple[int, QuerySpec]],
                   tracer) -> list:
        """Execute ``(index, spec)`` pairs on ``db``, vectorizing when it pays.

        Over a compact backend with :attr:`batch_kernel` enabled, the
        specs the database's ``batch_rknn`` kernel can serve (see
        :func:`repro.engine.planner.kernel_batch_kinds`) run as one
        vectorized pass; everything else takes the scalar per-spec
        path.  So does a lone batchable spec: the kernel expands one
        row per data point, shared work that pays off only across
        several specs, while a scalar query verifies just the
        candidates its own expansion finds.  Answers are identical
        either way, and the caller's ``cache.put`` keying by
        ``(generation, spec.key())`` is untouched by the dispatch.

        With a live tracer or slow log attached, every executed spec
        gets an ``execute.<kind>`` span carrying its own counter diff;
        kernel-batched specs become marker children of one
        ``kernel.batch_rknn`` span (the kernel span itself carries no
        counters, so trace sums never double-count) and report the
        pass's amortized elapsed share.
        """
        kinds = kernel_batch_kinds(db) if self.batch_kernel else ()
        batchable = [item for item in items if item[1].kind in kinds]
        outcomes: list[tuple[int, object]] = []
        log = self.slow_log
        observe = tracer.enabled or log is not None
        if len(batchable) >= 2:
            kernel_specs = [spec for _, spec in batchable]
            if observe:
                began = time.perf_counter()
                with tracer.span("kernel.batch_rknn",
                                 specs=len(kernel_specs)) as kernel:
                    answers = db.batch_rknn(kernel_specs)
                share = (time.perf_counter() - began) / len(kernel_specs)
                for (index, spec), result in zip(batchable, answers):
                    outcomes.append((index, result))
                    if tracer.enabled:
                        tracer.add(f"execute.{spec.kind}",
                                   parent=kernel.span_id, duration=share,
                                   via="kernel",
                                   **_counter_attributes(result))
                    if log is not None:
                        log.record(spec, result, share,
                                   backend=self.backend, via="kernel")
            else:
                answers = db.batch_rknn(kernel_specs)
                outcomes.extend(
                    (index, result)
                    for (index, _), result in zip(batchable, answers)
                )
            chosen = {index for index, _ in batchable}
            rest = [item for item in items if item[0] not in chosen]
        else:
            rest = items
        if observe:
            sharded = getattr(db, "shard_of", None) is not None
            for index, spec in rest:
                began = time.perf_counter()
                with tracer.span(f"execute.{spec.kind}") as span:
                    result = self._execute(db, spec)
                elapsed = time.perf_counter() - began
                if tracer.enabled:
                    span.set(via="scalar", **_counter_attributes(result))
                    if sharded:
                        span.set(shard=home_shard(db, spec.query))
                if log is not None:
                    log.record(spec, result, elapsed,
                               backend=self.backend, via="scalar")
                outcomes.append((index, result))
        else:
            outcomes.extend(
                (index, self._execute(db, spec)) for index, spec in rest
            )
        return outcomes

    def _execute(self, db, spec: QuerySpec):
        if needs_expansion(spec):  # pragma: no cover - expanded upstream
            raise QueryError(
                f"{spec.kind!r} specs execute through the engine's group "
                f"expansion, not a backend facade"
            )
        if spec.kind == "rknn":
            return db.rknn(spec.query, spec.k, method=spec.method, exclude=spec.exclude)
        if spec.kind == "knn":
            return db.knn(spec.query, spec.k, exclude=spec.exclude)
        if spec.kind == "range":
            return db.range_nn(spec.query, spec.k, spec.radius, exclude=spec.exclude)
        if spec.kind == "bichromatic":
            runner = getattr(db, "bichromatic_rknn", None)
            if runner is None:
                raise QueryError(
                    f"{type(db).__name__} does not support bichromatic queries"
                )
            return runner(spec.query, spec.k, method=spec.method, exclude=spec.exclude)
        if spec.kind == "continuous":
            runner = getattr(db, "continuous_rknn", None)
            if runner is None:
                raise QueryError(
                    f"{type(db).__name__} does not support continuous queries"
                )
            return runner(spec.route, spec.k, method=spec.method, exclude=spec.exclude)
        if spec.kind == "aggregate_nn":
            return db.aggregate_nn(spec.group, spec.k, spec.agg, spec.exclude)
        raise QueryError(f"unknown query kind {spec.kind!r}")  # pragma: no cover


def _zero_cost(result):
    """A copy of a cached result carrying an all-zero cost record."""
    return replace(result, io=0, cpu_seconds=0.0, counters=CostTracker())


def _counter_attributes(result) -> dict:
    """One executed result's counter diff as span attributes.

    These are the per-query numbers the slow log records and the trace
    sums: ``Tracer.attribute_total("edges_expanded")`` over a batch's
    ``execute.*`` spans equals the batch's merged CostTracker total.
    """
    counters = result.counters
    return {
        "io": result.io,
        "edges_expanded": counters.edges_expanded,
        "nodes_visited": counters.nodes_visited,
        "oracle_prunes": counters.oracle_prunes,
    }


def _shard_chunks(db, pending: list, workers: int) -> list[list]:
    """Bucket pending queries by home shard, then pack buckets onto workers.

    Each query is routed to the shard its expansion starts in
    (:func:`repro.engine.planner.home_shard`); a bucket never splits
    across workers, so each shard's pages are touched by one worker
    session only and independent shards run concurrently.  Buckets are
    packed largest-first onto the least-loaded worker to balance the
    chunks; within a bucket the planner's order is preserved.
    """
    buckets: dict[int, list] = {}
    for item in pending:
        buckets.setdefault(home_shard(db, item[1].query), []).append(item)
    count = min(workers, len(buckets))
    chunks: list[list] = [[] for _ in range(count)]
    for bucket in sorted(buckets.values(), key=len, reverse=True):
        min(chunks, key=len).extend(bucket)
    return [chunk for chunk in chunks if chunk]


def _contiguous_chunks(items: list, workers: int) -> list[list]:
    """Split a list into <= ``workers`` contiguous, near-equal chunks.

    Contiguity preserves the planner's locality ordering within each
    worker's run.
    """
    count = min(workers, len(items))
    size, remainder = divmod(len(items), count)
    chunks = []
    start = 0
    for i in range(count):
        end = start + size + (1 if i < remainder else 0)
        chunks.append(items[start:end])
        start = end
    return chunks
