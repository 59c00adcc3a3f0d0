"""Multi-process serving: the serving front over one lane per worker.

One asyncio process cannot outrun the GIL; the fleet can.
:class:`FleetServer` is the N-lane case of the one serving front,
:class:`~repro.serve.server.ConnectionServer`: the same wire protocol,
admission, routing, write path and metrics as the in-process
:class:`~repro.serve.server.RknnServer`, but each lane is the pipe
round trip to one **worker process** (:class:`WorkerLane`), each
running the compact backend over the same mmap'd snapshot
(:mod:`repro.compact.snapshot`), so the CSR arrays exist once in
physical memory no matter how many workers map them --
``read_clone()`` made zero-copy across processes.

**Routing (admission-time scatter).**  Every query is routed to its
*home worker* -- the worker owning the query node's slice of the
packing order (:meth:`FleetServer._lane_of`), so each worker's caches
and materialized reads stay concentrated on one locality region
(home-shard affinity).  Coalesced batches travel over a control pipe
as one message and come back as ready response bodies.

**Fleet-wide generation safety.**  Workers execute every request with
:func:`~repro.serve.server.execute`, called from their pipe loop.  A
write (``insert`` / ``delete`` / ``compact``) is queued on every live
worker's lane in one synchronous step, so every worker applies the
writes in one order, and the front verifies that all workers report
the **same** post-operation stamp before acknowledging -- fleet-wide
agreement on ``(base_generation, delta_epoch)``; ``compact`` first
fences every worker's batcher.  Every query batch executes wholly
inside one worker, whose pipe loop captures the stamp and the answers
in the same serialized interval, so no response ever mixes base
generations.

**Fault handling.**  A worker death is detected at the pipe (EOF /
broken pipe): its lane marks itself dead and raises
:class:`WorkerDied`.  In-flight and future batches for the dead worker
are *rerouted* to the next live worker -- safe, because every worker
holds the complete snapshot and has applied the same writes -- and
the death is surfaced in ``/metrics`` (``live_workers``,
``reroutes``).  With no workers left the front sheds with explicit
errors instead of hanging.  Standing-query subscriptions are not
offered in fleet mode.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import multiprocessing
import tempfile
from pathlib import Path

from repro.errors import QueryError, ReproError
from repro.serve.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WINDOW,
    ConnectionServer,
    Lane,
    WorkerDied,
    _boot_in_thread,
    execute,
)

#: The fleet router's logger (a child of ``repro.serve``, so the CLI's
#: ``--log-level`` flag covers both serving modes).
logger = logging.getLogger("repro.serve.fleet")

#: Seconds the router waits for a worker to load its snapshot and
#: report ready (spawned interpreters pay an import, so be generous).
DEFAULT_START_TIMEOUT = 120.0


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


class WorkerLane(Lane):
    """The lane of one worker process: each step is one request/reply
    round trip over the worker's control pipe.

    The lane's single thread performs the blocking send/recv off the
    event loop, one round trip at a time, so two requests never
    interleave on one pipe.  A broken pipe marks the lane dead before
    :class:`WorkerDied` is raised, and every later step raises it
    immediately; a worker's ``error`` reply raises
    :class:`~repro.errors.ReproError`.
    """

    def __init__(self, index: int, process, conn):
        super().__init__(self._roundtrip, f"fleet-worker-{index}")
        self.index = index
        self.process = process
        self.conn = conn

    def _roundtrip(self, request: dict) -> dict:
        if not self.alive:
            raise WorkerDied(f"worker {self.index} is dead")
        try:
            self.conn.send(request)
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.alive = False
            # chain the pipe error without its traceback: those frames
            # hold a view of the pickle buffer Connection.send allocated
            raise WorkerDied(
                f"worker {self.index} died mid-call: {exc!r}"
            ) from exc.with_traceback(None)
        if reply.get("kind") == "error":
            raise ReproError(reply["message"])
        return reply

    async def wait_ready(self, timeout: float) -> tuple[int, int]:
        """Await the worker's ready message; return its boot stamp."""

        def recv_ready():
            if not self.conn.poll(timeout):
                raise WorkerDied(
                    f"worker {self.index} not ready after {timeout:g} s"
                )
            return self.conn.recv()

        try:
            reply = await self.call(recv_ready)
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

    async def close(self) -> None:
        """Stop the worker, tear down the pipe and the lane's thread,
        then join the process."""
        if self.alive:
            with contextlib.suppress(ReproError, asyncio.TimeoutError):
                await asyncio.wait_for(self.submit({"kind": "stop"}),
                                       timeout=5)
        self.alive = False
        with contextlib.suppress(OSError):
            self.conn.close()
        self._executor.shutdown(wait=False)
        await asyncio.get_running_loop().run_in_executor(
            None, self.process.join, 5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()


class FleetServer(ConnectionServer):
    """The serving front over a fleet of worker processes (same wire
    protocol as :class:`~repro.serve.server.RknnServer`).

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

    mode = "fleet"

    def __init__(self, snapshot_dir, *, workers: int = 2,
                 window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 materialize: int = 0, oracle_landmarks: int | None = None,
                 cache_entries: int = 4096,
                 start_timeout: float = DEFAULT_START_TIMEOUT):
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        from repro.compact.db import CompactDatabase

        # constant-time mmap load: the router itself never answers
        # queries, it only needs the packing rank for home routing
        snapshot_dir = Path(snapshot_dir)
        routing = CompactDatabase.load_snapshot(snapshot_dir, mmap=True)
        super().__init__("compact", routing.generation, routing.stamp,
                         window=window, max_batch=max_batch,
                         max_queue=max_queue)
        self.snapshot_dir = snapshot_dir
        self._rank = routing.store._rank
        self._num_nodes = routing.store.num_nodes
        self.num_workers = workers
        self.start_timeout = start_timeout
        self._config = {
            "materialize": materialize,
            "oracle_landmarks": oracle_landmarks,
            "cache_entries": cache_entries,
        }

    @property
    def _workers(self) -> list[WorkerLane]:
        """The fleet's lanes, one per worker process, in worker order."""
        return self._lanes

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Spawn every worker and await its ready stamp, then start
        serving."""
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
            self._lanes.append(WorkerLane(index, process, parent))
        stamps = await asyncio.gather(
            *(lane.wait_ready(self.start_timeout) for lane in self._lanes)
        )
        if len(set(stamps)) != 1:  # pragma: no cover - defensive
            raise ReproError(f"workers booted at diverging stamps {stamps}")
        self._stamp = stamps[0]
        await super().start(host, port)

    def _lane_of(self, spec) -> int:
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
    with contextlib.ExitStack() as stack:
        if hasattr(source, "save_snapshot"):
            own_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-fleet-"))
            source.save_snapshot(own_dir)
            source = own_dir
        server = FleetServer(source, workers=workers, **kwargs)
        with _boot_in_thread(server, host, port,
                             DEFAULT_START_TIMEOUT) as handle:
            yield handle
