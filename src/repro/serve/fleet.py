"""Multi-process serving: a router fanning out to snapshot workers.

One asyncio process cannot outrun the GIL; the fleet can.
:class:`FleetServer` is the scale-out form of
:class:`~repro.serve.server.RknnServer`: the same wire protocol, the
same micro-batching and backpressure, but query execution happens in
``N`` **worker processes**, each running the compact backend over the
same mmap'd snapshot (:mod:`repro.compact.snapshot`), so the CSR
arrays exist once in physical memory no matter how many workers map
them -- ``read_clone()`` made zero-copy across processes.

**Routing (admission-time scatter).**  Every query is routed to its
*home worker* -- the worker owning the query node's slice of the
packing order, so each worker's caches and materialized reads stay
concentrated on one locality region (home-shard affinity).  Each
worker gets its own :class:`~repro.serve.batcher.MicroBatcher`;
coalesced batches travel over a control pipe as one message and come
back as ready response bodies.  The per-connection drain in
:class:`~repro.serve.server.ConnectionServer` gathers responses back
into request order.

**Fleet-wide generation safety.**  Workers execute every request with
:func:`~repro.serve.server.execute`, the single-process server's own
execution path, called from their pipe loop.  Writes (``insert`` /
``delete`` / ``compact``) are broadcast to every live worker under a
router-side mutation lock, and the router verifies that all workers
report the **same** post-operation stamp before acknowledging --
fleet-wide agreement on ``(base_generation, delta_epoch)``.  Every
query batch executes wholly inside one worker, whose pipe loop
captures the stamp and the answers in the same serialized interval,
so no response ever mixes base generations.  Per-connection order is
the single-process server's too: a write starts once every earlier
response on its connection has been written and holds the
connection's read loop until every worker applied it, so any later
query observes the new stamp on whichever worker serves it.

**Fault handling.**  A worker death is detected at the pipe (EOF /
broken pipe).  In-flight and future batches for the dead worker are
*rerouted* to the next live worker -- safe, because every worker holds
the complete snapshot and has applied the same mutation log -- and the
death is surfaced in ``/metrics`` (``live_workers``, ``reroutes``).
With no workers left the router sheds with explicit errors instead of
hanging.  Standing-query subscriptions are not offered in fleet mode.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import multiprocessing
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.errors import QueryError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher
from repro.serve.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WINDOW,
    ConnectionServer,
    ServerHandle,
    execute,
)

#: The fleet router's logger (a child of ``repro.serve``, so the CLI's
#: ``--log-level`` flag covers both serving modes).
logger = logging.getLogger("repro.serve.fleet")

#: Seconds the router waits for a worker to load its snapshot and
#: report ready (spawned interpreters pay an import, so be generous).
DEFAULT_START_TIMEOUT = 120.0


class WorkerDied(ReproError):
    """The control pipe to a worker process broke (crash or kill)."""


def _worker_main(conn, snapshot_dir: str, config: dict) -> None:
    """Entry point of one worker process (spawned by the router).

    Loads the shared snapshot with ``mmap=True`` (constant time, pages
    shared fleet-wide), optionally materializes K-NN lists and builds
    the landmark oracle -- both deterministic, so every worker ends up
    answer-identical -- then serves the control pipe until it closes
    or a ``stop`` arrives.
    """
    from repro.compact.db import CompactDatabase

    try:
        db = CompactDatabase.load_snapshot(snapshot_dir, mmap=True)
        if config.get("materialize"):
            db.materialize(config["materialize"])
        if config.get("oracle_landmarks"):
            db.build_oracle(config["oracle_landmarks"])
        engine = db.engine(cache_entries=config.get("cache_entries", 4096))
    except Exception as exc:
        with contextlib.suppress(OSError):
            conn.send({"kind": "error", "message": f"worker boot: {exc}"})
        return
    conn.send({"kind": "ready", "stamp": list(db.stamp)})
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            # the router is gone; exit instead of lingering as an orphan
            return
        if request.get("kind") == "stop":
            with contextlib.suppress(OSError):
                conn.send({"kind": "stopped"})
            return
        try:
            reply = execute(db, engine, request)
        except ReproError as exc:
            reply = {"kind": "error", "message": str(exc)}
        except Exception as exc:  # never kill the loop on one bad request
            reply = {"kind": "error",
                     "message": f"{type(exc).__name__}: {exc}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


class WorkerHandle:
    """The router's view of one worker process.

    Calls are serialized per worker: an :class:`asyncio.Lock` admits
    one round-trip at a time and a single-thread executor performs the
    blocking pipe send/recv off the event loop, so the loop never
    blocks on a worker and two coroutines never interleave on one
    pipe.  A broken pipe flips :attr:`alive` and every later call
    raises :class:`WorkerDied` immediately.
    """

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.alive = True
        self._lock = asyncio.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"fleet-worker-{index}"
        )

    async def wait_ready(self, timeout: float) -> tuple[int, int]:
        """Await the worker's ready message; return its boot stamp."""
        loop = asyncio.get_running_loop()

        def recv_ready():
            if not self.conn.poll(timeout):
                raise WorkerDied(
                    f"worker {self.index} not ready after {timeout:g} s"
                )
            return self.conn.recv()

        try:
            reply = await loop.run_in_executor(self._executor, recv_ready)
        except (EOFError, OSError) as exc:
            self.alive = False
            raise WorkerDied(f"worker {self.index} died booting") from exc
        if reply.get("kind") != "ready":
            self.alive = False
            raise WorkerDied(
                f"worker {self.index} failed to boot: "
                f"{reply.get('message', reply)}"
            )
        return tuple(reply["stamp"])

    async def call(self, request: dict) -> dict:
        """One serialized request/reply round-trip over the pipe."""
        if not self.alive:
            raise WorkerDied(f"worker {self.index} is dead")
        async with self._lock:
            if not self.alive:
                raise WorkerDied(f"worker {self.index} is dead")
            loop = asyncio.get_running_loop()

            def roundtrip():
                self.conn.send(request)
                return self.conn.recv()

            try:
                return await loop.run_in_executor(self._executor, roundtrip)
            except (EOFError, BrokenPipeError, OSError) as exc:
                self.alive = False
                raise WorkerDied(
                    f"worker {self.index} died mid-call: {exc!r}"
                ) from exc

    def close(self) -> None:
        """Tear down the pipe and the call thread (process join is the
        router's job)."""
        self.alive = False
        with contextlib.suppress(OSError):
            self.conn.close()
        self._executor.shutdown(wait=False)


class FleetServer(ConnectionServer):
    """Router process of the worker fleet (same wire protocol as
    :class:`~repro.serve.server.RknnServer`).

    Parameters
    ----------
    snapshot_dir:
        A snapshot directory written by
        :meth:`~repro.compact.db.CompactDatabase.save_snapshot`; every
        worker maps it read-only.
    workers:
        Worker process count (>= 1).
    window / max_batch / max_queue:
        Per-worker micro-batching and admission parameters.
    materialize:
        K-NN list capacity each worker materializes at boot (0 = none).
    oracle_landmarks:
        Landmark count each worker's oracle is built with (``None`` =
        no oracle).
    cache_entries:
        Per-worker engine result-cache capacity.
    start_timeout:
        Seconds to wait for every worker to report ready.
    """

    def __init__(self, snapshot_dir, *, workers: int = 2,
                 window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 materialize: int = 0, oracle_landmarks: int | None = None,
                 cache_entries: int = 4096,
                 start_timeout: float = DEFAULT_START_TIMEOUT):
        super().__init__()
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        from repro.compact.db import CompactDatabase

        self.snapshot_dir = Path(snapshot_dir)
        # constant-time mmap load: the router itself never answers
        # queries, it only needs the packing rank for home routing
        routing = CompactDatabase.load_snapshot(self.snapshot_dir, mmap=True)
        self._rank = routing.store._rank
        self._num_nodes = routing.store.num_nodes
        self.num_workers = workers
        self.window = window
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.start_timeout = start_timeout
        self._config = {
            "materialize": materialize,
            "oracle_landmarks": oracle_landmarks,
            "cache_entries": cache_entries,
        }
        self._workers: list[WorkerHandle] = []
        self._batchers: list[MicroBatcher] = []
        self._mutation_lock = asyncio.Lock()
        self._stamp: tuple[int, int] = (0, 0)
        self._generation = 0
        self.reroutes = 0
        self.registry = self._build_registry()

    def _build_registry(self) -> MetricsRegistry:
        """Wire the router's observables into one metrics registry.

        Everything is callback-backed over the router's own state (the
        plain attributes the tests and benchmarks read); the admission
        callbacks sum across the per-worker batchers at render time,
        so the registry stays correct as workers die.  The latency
        histogram (round-trip seconds per worker batch, pipe included)
        is the only owned series.
        """
        registry = MetricsRegistry()
        registry.counter("queries_served", "Queries answered",
                         fn=lambda: self.queries_served)
        registry.counter("mutations_applied", "Point mutations applied",
                         fn=lambda: self.mutations_applied)
        registry.counter("compactions", "Delta-log folds",
                         fn=lambda: self.compactions)
        registry.counter("errors", "Requests answered with an error",
                         fn=lambda: self.errors)
        registry.counter("reroutes", "Queries rerouted off dead workers",
                         fn=lambda: self.reroutes)
        registry.counter(
            "worker_deaths", "Worker processes lost",
            fn=lambda: sum(1 for w in self._workers if not w.alive),
        )
        for key in ("admitted", "shed", "batches", "coalesced"):
            registry.counter(
                f"admission_{key}", f"Admission control: {key}",
                fn=(lambda name: lambda: sum(
                    getattr(b.stats, name) for b in self._batchers
                ))(key),
            )
        registry.gauge("workers", "Configured worker processes",
                       fn=lambda: self.num_workers)
        registry.gauge(
            "live_workers", "Workers currently answering",
            fn=lambda: sum(1 for w in self._workers if w.alive),
        )
        registry.gauge("generation", "Fleet-wide update generation",
                       fn=lambda: self._generation)
        registry.gauge("base_generation", "Overlay base generation",
                       fn=lambda: self._stamp[0])
        registry.gauge("delta_epoch", "Overlay delta epoch",
                       fn=lambda: self._stamp[1])
        registry.gauge("queue_depth", "Summed admission queue depth",
                       fn=lambda: sum(b.depth for b in self._batchers))
        self.latency = registry.histogram(
            "batch_seconds", "Worker batch round-trip latency (seconds)"
        )
        return registry

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Spawn and await the workers, then bind the listener."""
        await self._start_workers()
        self._batchers = [
            MicroBatcher(
                self._runner_for(index), window=self.window,
                max_batch=self.max_batch, max_queue=self.max_queue,
            )
            for index in range(self.num_workers)
        ]
        await super().start(host, port)

    async def _start_workers(self) -> None:
        """Spawn every worker, then gather their ready stamps."""
        context = multiprocessing.get_context("spawn")
        for index in range(self.num_workers):
            parent, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child, str(self.snapshot_dir), self._config),
                daemon=True,
                name=f"repro-serve-worker-{index}",
            )
            process.start()
            child.close()
            self._workers.append(WorkerHandle(index, process, parent))
        stamps = await asyncio.gather(
            *(worker.wait_ready(self.start_timeout)
              for worker in self._workers)
        )
        if len(set(stamps)) != 1:  # pragma: no cover - defensive
            raise ReproError(f"workers booted at diverging stamps {stamps}")
        self._stamp = stamps[0]

    async def stop(self) -> None:
        """Close the listener, drain batchers, shut every worker down."""
        await super().stop()
        for batcher in self._batchers:
            await batcher.close()
        for worker in self._workers:
            if worker.alive:
                with contextlib.suppress(ReproError, asyncio.TimeoutError):
                    await asyncio.wait_for(
                        worker.call({"kind": "stop"}), timeout=5
                    )
            worker.close()
        loop = asyncio.get_running_loop()
        for worker in self._workers:
            await loop.run_in_executor(None, worker.process.join, 5)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()

    # -- routing ------------------------------------------------------------

    def _worker_of(self, spec) -> int:
        """Home worker of a spec: its node's slice of the packing order.

        Nodes adjacent in the packing order (the locality rank the
        batch planner already uses) land on the same worker, so each
        worker's result cache and page-warm region stay concentrated
        -- the process-level form of home-shard affinity.
        """
        node = spec.query
        if isinstance(node, int) and 0 <= node < self._num_nodes:
            return self._rank[node] * self.num_workers // self._num_nodes
        return 0

    def _next_live(self, index: int) -> int | None:
        """The first live worker at or after ``index`` (wrapping)."""
        for step in range(self.num_workers):
            candidate = (index + step) % self.num_workers
            if self._workers[candidate].alive:
                return candidate
        return None

    def _admit_query(self, payload: dict):
        """Admit a query into its home worker's batcher.

        A dead home worker reroutes at admission; with no live worker
        the request is refused outright (clean error, no hang).  A
        ``trace``-flagged (or ``EXPLAIN``) request bypasses the batcher
        and ships to its worker as a dedicated single-spec batch, so
        the returned span tree covers exactly that request.
        """
        spec, trace, explain = protocol.request_query(payload)
        home = self._worker_of(spec)
        target = home if self._workers[home].alive else self._next_live(home)
        if target is None:
            raise ReproError("no live workers in the fleet")
        if target != home:
            self.reroutes += 1
            logger.warning(
                "rerouted query at admission: worker %d is dead, "
                "using worker %d", home, target,
            )
        if trace:
            return asyncio.get_running_loop().create_task(
                self._run_traced(target, spec, explain)
            )
        return self._batchers[target].admit(spec)

    async def _run_traced(self, index: int, spec, explain: bool) -> dict:
        """One traced spec as its own worker batch; return its body."""
        bodies = await self._run_worker_batch(
            index, [spec], trace=True, explain=explain
        )
        return bodies[0]

    def _runner_for(self, index: int):
        """The batch runner bound to worker ``index``'s pipe."""

        async def run(specs):
            return await self._run_worker_batch(index, specs)

        return run

    async def _run_worker_batch(self, index: int, specs, **flags):
        """Ship one coalesced batch to a worker; reroute on death.

        The reply's bodies each carry the stamp the worker captured
        immediately before executing the batch -- one worker, one
        serialized interval, one stamp per response.  A worker dying
        mid-batch reroutes the whole batch to the next live worker
        (every worker holds the full snapshot and mutation history, so
        any of them answers identically).  ``flags`` are the
        :func:`~repro.serve.server.execute` batch flags (``trace``,
        ``explain``).
        """
        request = {"kind": "batch", "specs": list(specs), **flags}
        began = time.perf_counter()
        try:
            reply = await self._workers[index].call(request)
        except WorkerDied:
            target = self._next_live(index)
            if target is None:
                raise ReproError("no live workers to run the batch") from None
            self.reroutes += len(specs)
            logger.warning(
                "worker %d died mid-batch; rerouting %d queries to "
                "worker %d", index, len(specs), target,
            )
            reply = await self._workers[target].call(request)
        if reply.get("kind") == "error":
            raise ReproError(reply["message"])
        self.queries_served += len(specs)
        self.latency.observe(time.perf_counter() - began)
        return reply["bodies"]

    # -- fleet-wide writes --------------------------------------------------

    async def _write(self, request: dict) -> dict:
        """Apply one write request on every live worker; verify stamps.

        The mutation lock serializes broadcasts, so every worker
        applies the same operations in the same order.  After the
        fan-out the router asserts that all live workers report the
        **same** post-operation stamp; divergence (a worker applying
        out of order) fails loudly instead of serving mixed answers.
        A worker dying mid-broadcast just leaves the fleet (it will
        never answer again, so it cannot leak a stale generation).
        """
        async with self._mutation_lock:
            replies = []
            for worker in self._workers:
                if not worker.alive:
                    continue
                try:
                    replies.append(await worker.call(request))
                except WorkerDied:
                    logger.warning(
                        "worker %d died during %s broadcast; dropping it "
                        "from the fleet", worker.index, request["kind"],
                    )
                    continue
            if not replies:
                raise ReproError("no live workers in the fleet")
            failed = [r for r in replies if r.get("kind") == "error"]
            if failed:
                # deterministic databases fail identically on every
                # worker (e.g. inserting an existing pid)
                raise ReproError(failed[0]["message"])
            stamps = {tuple(reply["stamp"]) for reply in replies}
            if len(stamps) != 1:  # pragma: no cover - defensive
                raise ReproError(
                    f"fleet stamp divergence after {request['kind']}: "
                    f"{sorted(stamps)}"
                )
            reply = replies[0]
            self._stamp = tuple(reply["stamp"])
            self._generation = reply["generation"]
            return reply

    async def _subscribe(self, payload: dict, writer) -> dict:
        """Standing queries need one live database; refuse cleanly."""
        raise ReproError(
            "subscribe is not supported in fleet mode (--workers > 1); "
            "run a single-process server for standing queries"
        )

    # -- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Router-side counters plus fleet membership for ``/metrics``."""
        live = sum(1 for worker in self._workers if worker.alive)
        admission = {"admitted": 0, "shed": 0, "batches": 0, "coalesced": 0}
        for batcher in self._batchers:
            for key, value in batcher.stats.snapshot().items():
                admission[key] += value
        return {
            "backend": "compact",
            "mode": "fleet",
            "workers": self.num_workers,
            "live_workers": live,
            "worker_deaths": self.num_workers - live,
            "reroutes": self.reroutes,
            "generation": self._generation,
            "base_generation": self._stamp[0],
            "delta_epoch": self._stamp[1],
            "queue_depth": sum(b.depth for b in self._batchers),
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "compactions": self.compactions,
            "errors": self.errors,
            "subscriptions": 0,
            "admission": admission,
            "latency": self.latency.to_dict(),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (loop-thread only)."""
        return self.registry.render_prometheus()

    def _health(self) -> dict:
        live = sum(1 for worker in self._workers if worker.alive)
        return {
            "status": "ok" if live else "error",
            "generation": self._generation,
            "backend": "compact",
            "workers": self.num_workers,
            "live_workers": live,
            "base_generation": self._stamp[0],
            "delta_epoch": self._stamp[1],
        }


@contextlib.contextmanager
def fleet_in_thread(source, *, workers: int = 2, host: str = "127.0.0.1",
                    port: int = 0, **kwargs):
    """Run a :class:`FleetServer` on a daemon thread; yield its handle.

    ``source`` is either a snapshot directory or a
    :class:`~repro.compact.db.CompactDatabase` (snapshotted into a
    temporary directory for the fleet's lifetime).  The multi-process
    counterpart of :func:`~repro.serve.server.serve_in_thread`::

        with fleet_in_thread(db, workers=4) as handle:
            client = ServeClient(handle.host, handle.port)
            ...
    """
    own_dir = None
    if hasattr(source, "save_snapshot"):
        own_dir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        source.save_snapshot(own_dir.name)
        source = own_dir.name
    try:
        server = FleetServer(source, workers=workers, **kwargs)
        ready = threading.Event()

        def _run() -> None:
            asyncio.run(
                server.run(host, port, ready=lambda _address: ready.set())
            )

        thread = threading.Thread(target=_run, daemon=True,
                                  name="repro-fleet")
        thread.start()
        if not ready.wait(timeout=DEFAULT_START_TIMEOUT):
            server.request_stop()
            raise RuntimeError("fleet failed to start within the timeout")
        handle = ServerHandle(server, thread)
        try:
            yield handle
        finally:
            handle.stop()
    finally:
        if own_dir is not None:
            own_dir.cleanup()
