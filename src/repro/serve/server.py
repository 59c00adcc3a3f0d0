"""The asyncio RkNN server and the request path both serve fronts share.

:class:`RknnServer` turns any facade database -- disk, sharded,
compact, oracle attached or not -- into a network service.  One
asyncio event loop owns every connection; queries are admitted into a
:class:`~repro.serve.batcher.MicroBatcher`, and each coalesced batch,
write and subscription runs as one step of a single-thread executor,
so the loop never blocks on query work.

**One execution path.**  :func:`execute` runs every ``batch`` (trace
and ``EXPLAIN`` bodies included), ``mutate`` and ``compact`` request:
here on the executor, in each :mod:`~repro.serve.fleet` worker from
its pipe loop.  Either caller runs one request at a time, so a batch's
answers and the update generation captured just before them -- plus,
over a delta-overlay database (the compact backend), the
``(base_generation, delta_epoch)`` snapshot stamp -- describe one
state, and writes land strictly between batches.  Every response
carries that generation (and stamp), so a client can replay the write
log and verify any answer against a direct facade call.

**Per-connection order.**  :class:`ConnectionServer` starts a write
only after every earlier response on its connection has been written,
and reads no later line until the write has applied: queries
pipelined before an ``insert`` answer at the old state, queries after
it at the new one.  A write never waits for other connections' reads;
``compact`` alone first drains the admission queue, counted as
``drains`` in ``/metrics``.

**Backpressure.**  The admission queue is bounded; beyond capacity the
server immediately answers ``overloaded`` instead of queueing without
bound (shed requests are counted and surfaced through ``/metrics``).

**Standing queries.**  A ``subscribe`` request registers a
:class:`~repro.streams.monitor.RnnMonitor` over the live database;
every later ``insert`` / ``delete`` refreshes each subscribed monitor
in the write's own executor step and pushes the resulting
:class:`~repro.streams.monitor.MembershipEvent` diffs to the
subscriber as ``membership`` event lines.

``/metrics`` and ``/healthz`` answer both as protocol ops and as plain
HTTP ``GET`` on the same port.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.engine.planner import backend_of
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import protocol
from repro.serve.batcher import MicroBatcher, QueueFull
from repro.streams.monitor import RnnMonitor

#: The serving tier's logger (``repro serve --log-level`` wires the
#: stdlib root handler; libraries embedding the server attach their own).
logger = logging.getLogger("repro.serve")

#: Default coalescing window: 2 ms keeps tail latency low while giving
#: concurrent arrivals time to share a batch.
DEFAULT_WINDOW = 0.002

#: Default maximum batch size handed to the engine in one execution.
DEFAULT_MAX_BATCH = 32

#: Default admission bound before requests are shed as ``overloaded``.
DEFAULT_MAX_QUEUE = 1024

#: Outbound bytes a subscriber may leave unread before it is evicted.
MAX_SUBSCRIBER_BACKLOG = 1 << 20

#: Unread response bytes before a connection stops being read from
#: (TCP backpressure on clients that pipeline without ever reading).
MAX_RESPONSE_BACKLOG = 1 << 20


def execute(db, engine, request: dict) -> dict:
    """Execute one ``batch``, ``mutate`` or ``compact`` request on ``db``.

    The one execution path of both serve fronts: :class:`RknnServer`
    calls it on its single-thread executor, each fleet worker from its
    pipe loop.  Either caller runs one request at a time, so a batch's
    answers and the generation and stamp captured just before them
    describe the same state.

    A ``batch`` request (``specs``, optional ``trace`` / ``explain``
    flags) replies ``{"kind": "bodies", "bodies", "seconds"}``: one
    response body per spec, each carrying the batch's span tree when
    traced and its compiled plan for ``EXPLAIN``.  A write replies
    ``{"kind", "generation", "stamp", "affected", "io"}``.  ``stamp``
    is ``None`` on databases without a delta overlay (disk, sharded).
    Replies are plain picklable dicts.  A request the database rejects
    raises :class:`~repro.errors.ReproError`.
    """
    kind = request["kind"]
    if kind == "batch":
        generation, stamp = db.generation, getattr(db, "stamp", None)
        specs = request["specs"]
        tracer = Tracer() if request.get("trace") else None
        outcome = engine.run_batch(specs, tracer=tracer)
        bodies = [protocol.result_payload(result, generation, stamp)
                  for result in outcome.results]
        if tracer is not None:
            from repro.qlang.api import build_plan

            spans = tracer.to_payload()
            for body, spec in zip(bodies, specs):
                body["trace"] = spans
                if request.get("explain"):
                    body["explain"] = True
                    body["plan"] = build_plan(engine, spec)
        return {"kind": "bodies", "bodies": bodies,
                "seconds": outcome.elapsed_seconds}
    if kind == "mutate":
        if request["op"] == "insert":
            outcome = db.insert_point(request["pid"], request["location"])
        else:
            outcome = db.delete_point(request["pid"])
    elif kind == "compact":
        if not hasattr(db, "compact"):
            raise ReproError("compact requires a delta-overlay database "
                             "(the compact backend)")
        outcome = db.compact()
    else:
        raise ReproError(f"unknown request kind {kind!r}")
    return {"kind": kind, "generation": db.generation,
            "stamp": getattr(db, "stamp", None),
            "affected": outcome.affected_nodes, "io": outcome.io}


class ConnectionServer:
    """Lifecycle, connections and write bodies shared by both serve fronts.

    Owns the listener, the shutdown handshake, the JSON-lines / HTTP
    connection loops and the ``insert`` / ``delete`` / ``compact``
    response bodies -- everything that does not depend on *where* a
    request executes.  Subclasses plug in :meth:`_admit_query` (a
    query's pending body), :meth:`_write` (one write request through
    :func:`execute`), :meth:`_subscribe`, and the introspection hooks
    :meth:`metrics` / :meth:`metrics_text` / :meth:`_health`.
    :class:`RknnServer` executes in-process;
    :class:`~repro.serve.fleet.FleetServer` routes to worker processes.
    """

    def __init__(self):
        self._subscriptions: dict[asyncio.StreamWriter, RnnMonitor] = {}
        self._server: asyncio.AbstractServer | None = None
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        # request_stop() may land on another thread before start() has
        # created the loop and event: the flag records the request and
        # start() honors it immediately (the pre-start race guard)
        self._stop_pending = False
        self._stop_mutex = threading.Lock()
        self.address: tuple[str, int] | None = None
        self.errors = 0
        self.queries_served = 0
        self.mutations_applied = 0
        self.compactions = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        with self._stop_mutex:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            if self._stop_pending:
                # a stop requested before the loop existed wins
                # immediately: serve_until_stopped() returns at once
                self._stop.set()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or :meth:`stop`) is called."""
        assert self._stop is not None, "start() before serve_until_stopped()"
        await self._stop.wait()
        await self.stop()

    async def run(self, host: str = "127.0.0.1", port: int = 0,
                  ready=None) -> None:
        """Start, signal readiness, and serve until stopped.

        ``ready`` is an optional callable invoked with the bound
        ``(host, port)`` once the server is accepting connections --
        a ``threading.Event.set`` wrapper, a ready-file writer, or a
        print.
        """
        await self.start(host, port)
        if ready is not None:
            ready(self.address)
        await self.serve_until_stopped()

    def request_stop(self) -> None:
        """Thread-safe shutdown signal (usable from any thread).

        Safe to call at any point in the lifecycle: a request landing
        before :meth:`start` has created the event loop is remembered
        and honored the moment the server starts, instead of being
        silently dropped.
        """
        with self._stop_mutex:
            self._stop_pending = True
            loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def stop(self) -> None:
        """Close the listener; subclasses release their execution state."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- execution hooks ----------------------------------------------------

    def _admit_query(self, payload: dict):
        """Admit one ``query`` request; return its pending body.

        The return value is a future resolving to the response body,
        or a ready body dict.  May raise
        :class:`~repro.serve.batcher.QueueFull` to shed the request.
        """
        raise NotImplementedError

    async def _write(self, request: dict) -> dict:
        """Apply one ``mutate`` / ``compact`` request; return the
        :func:`execute` reply it produced."""
        raise NotImplementedError

    async def _subscribe(self, payload: dict,
                         writer: asyncio.StreamWriter) -> dict:
        """Register a standing query; return the response body."""
        raise NotImplementedError

    def metrics(self) -> dict:
        """Counters for the ``/metrics`` endpoint (loop-thread only)."""
        raise NotImplementedError

    def metrics_text(self) -> str:
        """Prometheus text exposition of the same counters (served at
        ``GET /metrics?format=prometheus``)."""
        raise NotImplementedError

    def _health(self) -> dict:
        """Body of the ``/healthz`` endpoint."""
        raise NotImplementedError

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"HEAD"):
                await self._handle_http(first, reader, writer)
                return
            await self._handle_protocol(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            # ValueError: a request line overran the StreamReader limit;
            # the line framing is lost, so drop the connection cleanly
            pass
        finally:
            self._subscriptions.pop(writer, None)
            # no wait_closed(): the handler may itself be cancelled at
            # loop shutdown, and awaiting here would log that cancellation
            writer.close()

    async def _handle_protocol(self, first: bytes,
                               reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        """The JSON-lines loop: pipelined requests, ordered responses.

        Every query is admitted *at read time* -- straight into a
        batcher, so a connection that pipelines N queries coalesces
        them into shared batches -- and introspection answers
        synchronously.  A write or subscription is the connection's
        barrier: it starts only once every earlier response on the
        connection has been written, and no later line is read until
        it completes, so queries pipelined before an ``insert`` answer
        at the old state and queries after it at the new one
        (per-connection read-your-writes).  A per-connection drain
        writes responses in request order.
        """
        responses: asyncio.Queue = asyncio.Queue()
        loop = asyncio.get_running_loop()
        drain = loop.create_task(self._drain_responses(responses, writer))
        # whether every request admitted so far has executed: true right
        # after a write, so back-to-back writes skip the barrier
        settled = True
        try:
            line = first
            while line:
                stripped = line.strip()
                if stripped:
                    request_id, pending = self._admit(stripped, writer)
                    write = callable(pending)
                    if write:
                        if not settled:
                            # the write barrier: the drain marks a
                            # response done once written, so every
                            # earlier answer is out before the write
                            await responses.join()
                        pending = loop.create_task(pending())
                    await responses.put((request_id, pending))
                    if write:
                        # its failure reaches the client through the drain
                        with contextlib.suppress(Exception):
                            await pending
                    settled = write
                if (writer.transport.get_write_buffer_size()
                        > MAX_RESPONSE_BACKLOG):
                    # the client is not reading its responses: stop
                    # reading its requests until the backlog drains, so
                    # server memory stays bounded (TCP pushes back)
                    await writer.drain()
                line = await reader.readline()
        finally:
            await responses.put(None)
            with contextlib.suppress(Exception):
                await drain

    def _admit(self, line: bytes, writer: asyncio.StreamWriter):
        """Admit one request line; return ``(request id, pending)``.

        ``pending`` is a ready response body (admission errors, shed
        requests, introspection), a future resolving to the body
        (queries -- the fast path: no per-request task), or, for
        writes and subscriptions, a callable that starts the task
        computing the body (the read loop calls it behind the
        connection's write barrier).
        """
        try:
            payload = protocol.decode(line)
        except ReproError as exc:
            self.errors += 1
            return None, protocol.error_payload(str(exc))
        request_id = payload.get("id")
        op = payload.get("op", "query")
        if op == "query":
            try:
                return request_id, self._admit_query(payload)
            except QueueFull as exc:
                logger.warning("shed query (queue depth %d)", exc.depth)
                return request_id, protocol.overloaded_payload(exc.depth)
            except ReproError as exc:
                self.errors += 1
                return request_id, protocol.error_payload(str(exc))
            except (KeyError, TypeError, ValueError) as exc:
                self.errors += 1
                return request_id, protocol.error_payload(
                    f"bad request: {exc!r}"
                )
        if op == "metrics":
            return request_id, {"status": "ok", **self.metrics()}
        if op == "healthz":
            return request_id, self._health()
        if op not in ("insert", "delete", "compact", "subscribe"):
            self.errors += 1
            return request_id, protocol.error_payload(
                f"unknown op {op!r}; choose one of {protocol.OPS}"
            )
        return request_id, functools.partial(self._respond, payload, writer)

    async def _drain_responses(self, queue: asyncio.Queue,
                               writer: asyncio.StreamWriter) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            request_id, pending = item
            if isinstance(pending, dict):
                payload = pending
            else:
                try:
                    payload = await pending
                except Exception as exc:  # defensive: never kill the drain
                    payload = protocol.error_payload(str(exc))
                    self.errors += 1
            if request_id is not None:
                payload["id"] = request_id
            writer.write(protocol.encode(payload))
            queue.task_done()
            # flush once per quiet period, not per line -- unless the
            # transport buffer is backing up (client not reading)
            if (queue.empty() or writer.transport.get_write_buffer_size()
                    > MAX_RESPONSE_BACKLOG):
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

    async def _respond(self, payload: dict,
                       writer: asyncio.StreamWriter) -> dict:
        """Compute the response body of one write or subscription."""
        try:
            op = payload["op"]
            if op == "subscribe":
                return await self._subscribe(payload, writer)
            if op == "compact":
                reply = await self._write({"kind": "compact"})
                self.compactions += 1
                logger.info("compacted %d folded operations; new stamp %s",
                            reply["affected"], reply["stamp"])
                body = {"status": "ok", "op": op, "folded": reply["affected"]}
            else:
                request = {"kind": "mutate", "op": op,
                           "pid": int(payload["pid"])}
                if op == "insert":
                    location = payload["location"]
                    request["location"] = (tuple(location)
                                           if isinstance(location, list)
                                           else location)
                reply = await self._write(request)
                self.mutations_applied += 1
                body = {"status": "ok", "op": op,
                        "updated_lists": reply["affected"]}
            body["generation"] = reply["generation"]
            body["io"] = reply["io"]
            return protocol.stamped(body, reply["stamp"])
        except ReproError as exc:
            self.errors += 1
            return protocol.error_payload(str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            self.errors += 1
            return protocol.error_payload(f"bad request: {exc!r}")

    # -- HTTP (curl / probe surface) ----------------------------------------

    async def _handle_http(self, first: bytes, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            method, target, _ = first.decode("latin-1").split(" ", 2)
        except ValueError:
            method, target = "GET", "/"
        while True:  # drain the header block
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        path, _, query_string = target.partition("?")
        content_type = "application/json"
        if path == "/metrics" and "format=prometheus" in query_string.split("&"):
            status = "200 OK"
            content_type = "text/plain; version=0.0.4"
            content = self.metrics_text().encode("utf-8")
        else:
            if path == "/metrics":
                status, body = "200 OK", self.metrics()
            elif path == "/healthz":
                status, body = "200 OK", self._health()
            else:
                status, body = ("404 Not Found",
                                {"error": f"unknown path {path}"})
            content = json.dumps(body, indent=2).encode("utf-8") + b"\n"
        writer.write(
            f"HTTP/1.1 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(content)}\r\n"
            f"Connection: close\r\n\r\n".encode("latin-1")
        )
        if method != "HEAD":  # HEAD answers carry headers only
            writer.write(content)
        with contextlib.suppress(ConnectionError):
            await writer.drain()


class RknnServer(ConnectionServer):
    """Asyncio serving tier over one facade database.

    Parameters
    ----------
    db:
        Any facade database (:class:`~repro.api.GraphDatabase`,
        :class:`~repro.shard.db.ShardedDatabase`,
        :class:`~repro.compact.db.CompactDatabase`, with or without an
        attached oracle).  The server takes ownership: all access must
        go through requests once serving starts.
    window / max_batch / max_queue:
        Micro-batching and admission parameters (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    cache_entries:
        Result-cache capacity of the server's engine.
    slow_log:
        Optional :class:`~repro.obs.slowlog.SlowQueryLog` attached to
        the server's engine: every executed spec slower than the log's
        threshold is appended as one JSONL record.
    """

    def __init__(self, db, *, window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 cache_entries: int = 4096,
                 slow_log=None):
        super().__init__()
        self.db = db
        self.engine = db.engine(cache_entries=cache_entries,
                                slow_log=slow_log)
        self.batcher = MicroBatcher(
            self._run_batch, window=window,
            max_batch=max_batch, max_queue=max_queue,
        )
        # the serialization point: every batch, write and subscription
        # is one step of this thread, in submission order
        self._executor = ThreadPoolExecutor(max_workers=1)
        #: Admission-queue drains: one per ``compact`` request, the
        #: only op that waits for other connections' queries.
        self.drains = 0
        self.events_pushed = 0
        self.registry = self._build_registry()

    def _build_registry(self) -> MetricsRegistry:
        """Wire every observable number into one metrics registry.

        Pre-existing sources of truth (the plain server counters the
        tests and benchmarks read, the batcher's admission stats, the
        engine's cache stats, the database's tracker) join as
        callback-backed metrics, so nothing is double-booked; the
        latency histogram is the registry's only owned series.
        """
        registry = MetricsRegistry()
        registry.counter("queries_served", "Queries answered",
                         fn=lambda: self.queries_served)
        registry.counter("mutations_applied", "Point mutations applied",
                         fn=lambda: self.mutations_applied)
        registry.counter("compactions", "Delta-log folds",
                         fn=lambda: self.compactions)
        registry.counter("drains", "Admission-queue drains before a compaction",
                         fn=lambda: self.drains)
        registry.counter("errors", "Requests answered with an error",
                         fn=lambda: self.errors)
        registry.counter("events_pushed", "Membership events pushed",
                         fn=lambda: self.events_pushed)
        stats = self.batcher.stats
        registry.counter("admission_admitted", "Queries admitted",
                         fn=lambda: stats.admitted)
        registry.counter("admission_shed", "Queries shed as overloaded",
                         fn=lambda: stats.shed)
        registry.counter("admission_batches", "Coalesced batches executed",
                         fn=lambda: stats.batches)
        registry.counter("admission_coalesced", "Queries sharing a batch",
                         fn=lambda: stats.coalesced)
        cache = self.engine.cache_stats
        registry.counter("cache_hits", "Result-cache hits",
                         fn=lambda: cache.hits)
        registry.counter("cache_misses", "Result-cache misses",
                         fn=lambda: cache.misses)
        registry.counter("cache_evictions", "Result-cache evictions",
                         fn=lambda: cache.evictions)
        registry.counter("cache_invalidations", "Result-cache invalidations",
                         fn=lambda: cache.invalidations)
        tracker = self.db.tracker
        for counter in ("page_reads", "buffer_hits", "nodes_visited",
                        "edges_expanded", "oracle_prunes"):
            registry.counter(
                counter, f"CostTracker {counter.replace('_', ' ')}",
                fn=(lambda name: lambda: getattr(tracker, name))(counter),
            )
        registry.gauge("queue_depth", "Admission queue depth",
                       fn=lambda: self.batcher.depth)
        registry.gauge("generation", "Database update generation",
                       fn=lambda: self.db.generation)
        registry.gauge("subscriptions", "Registered standing queries",
                       fn=lambda: len(self._subscriptions))
        if getattr(self.db, "stamp", None) is not None:
            registry.gauge("base_generation", "Overlay base generation",
                           fn=lambda: self.db.stamp[0])
            registry.gauge("delta_epoch", "Overlay delta epoch",
                           fn=lambda: self.db.stamp[1])
        self.latency = registry.histogram(
            "batch_seconds", "Engine batch execution latency (seconds)"
        )
        return registry

    # -- lifecycle ----------------------------------------------------------

    async def stop(self) -> None:
        """Close the listener, fail waiting requests, release the pool."""
        await super().stop()
        await self.batcher.close()
        self._executor.shutdown(wait=True)

    # -- execution ----------------------------------------------------------

    async def _step(self, fn, *args):
        """Run ``fn(*args)`` as one step of the executor thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _admit_query(self, payload: dict):
        """Admit a query straight into the micro-batcher (fast path).

        A ``trace``-flagged (or ``EXPLAIN``) request bypasses the
        batcher and runs as its own single-spec batch, so its span
        tree covers exactly that request -- the diagnostics path,
        deliberately unbatched.
        """
        spec, trace, explain = protocol.request_query(payload)
        if trace:
            return asyncio.ensure_future(self._run_traced(spec, explain))
        return self.batcher.admit(spec)

    async def _run_traced(self, spec, explain: bool) -> dict:
        """One traced spec as its own batch; return its body."""
        bodies = await self._run_batch([spec], trace=True, explain=explain)
        return bodies[0]

    async def _run_batch(self, specs, **flags) -> list[dict]:
        """Execute one batch as one executor step; return its bodies
        (``flags`` are the :func:`execute` batch flags)."""
        request = {"kind": "batch", "specs": specs, **flags}
        reply = await self._step(execute, self.db, self.engine, request)
        self.queries_served += len(specs)
        self.latency.observe(reply["seconds"])
        return reply["bodies"]

    async def _write(self, request: dict) -> dict:
        """Apply one write and refresh every standing query in the same
        executor step, then push the membership events it caused.

        ``compact`` first fences the micro-batcher, so queries admitted
        before the fold answer at the old base (the server's one
        drain), and refreshes nothing: compaction changes no answers.
        """
        compact = request["kind"] == "compact"
        if compact:
            await self.batcher.fence()
            self.drains += 1

        def step():
            reply = execute(self.db, self.engine, request)
            monitors = [] if compact else list(self._subscriptions.items())
            return reply, [(writer, monitor.refresh())
                           for writer, monitor in monitors]

        reply, refreshed = await self._step(step)
        for writer, events in refreshed:
            for event in events:
                writer.write(protocol.encode(
                    protocol.membership_payload(event, reply["generation"])
                ))
                self.events_pushed += 1
            # a subscriber that stops reading must not grow the server's
            # memory without bound: evict it once its socket buffer
            # backs up past the limit (its connection handler cleans up)
            if (events and writer.transport.get_write_buffer_size()
                    > MAX_SUBSCRIBER_BACKLOG):
                self._subscriptions.pop(writer, None)
                writer.close()
        return reply

    async def _subscribe(self, payload: dict,
                         writer: asyncio.StreamWriter) -> dict:
        queries = {int(qid): int(node)
                   for qid, node in dict(payload["queries"]).items()}
        k = int(payload.get("k", 1))

        def register():
            # built, answered and registered in one step: the next
            # write's refresh diffs against exactly these answers
            monitor = RnnMonitor(self.db, queries, k=k)
            self._subscriptions[writer] = monitor
            results = {str(qid): monitor.result(qid) for qid in queries}
            return self.db.generation, results

        generation, results = await self._step(register)
        return {
            "status": "ok",
            "subscribed": sorted(queries),
            "k": k,
            "generation": generation,
            "results": results,
        }

    # -- introspection ------------------------------------------------------

    def metrics(self) -> dict:
        """Counters for the ``/metrics`` endpoint (loop-thread only)."""
        tracker = self.db.tracker
        cache = self.engine.cache_stats
        body = {
            "backend": backend_of(self.db),
            "generation": self.db.generation,
            "queue_depth": self.batcher.depth,
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "compactions": self.compactions,
            "drains": self.drains,
            "errors": self.errors,
            "events_pushed": self.events_pushed,
            "subscriptions": len(self._subscriptions),
            "admission": self.batcher.stats.snapshot(),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "invalidations": cache.invalidations,
            },
            "counters": {
                "page_reads": tracker.page_reads,
                "buffer_hits": tracker.buffer_hits,
                "nodes_visited": tracker.nodes_visited,
                "edges_expanded": tracker.edges_expanded,
                "oracle_prunes": tracker.oracle_prunes,
            },
            "latency": self.latency.to_dict(),
        }
        return protocol.stamped(body, getattr(self.db, "stamp", None))

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (loop-thread only)."""
        return self.registry.render_prometheus()

    def _health(self) -> dict:
        body = {
            "status": "ok",
            "generation": self.db.generation,
            "backend": backend_of(self.db),
        }
        return protocol.stamped(body, getattr(self.db, "stamp", None))


class ServerHandle:
    """A running server on a background thread (tests, benchmarks).

    Exposes the bound :attr:`host` / :attr:`port` and stops the server
    when the context exits.
    """

    def __init__(self, server: RknnServer, thread: threading.Thread):
        self.server = server
        self._thread = thread

    @property
    def host(self) -> str:
        """Bound interface of the running server."""
        return self.server.address[0]

    @property
    def port(self) -> int:
        """Bound (possibly ephemeral) port of the running server."""
        return self.server.address[1]

    def stop(self) -> None:
        """Signal shutdown and join the serving thread."""
        self.server.request_stop()
        self._thread.join(timeout=10)


@contextlib.contextmanager
def serve_in_thread(db, *, host: str = "127.0.0.1", port: int = 0,
                    **kwargs):
    """Run an :class:`RknnServer` on a daemon thread; yield its handle.

    The canonical embedding for tests, benchmarks and examples::

        with serve_in_thread(db, max_batch=16) as handle:
            client = ServeClient(handle.host, handle.port)
            ...
    """
    server = RknnServer(db, **kwargs)
    ready = threading.Event()

    def _run() -> None:
        asyncio.run(server.run(host, port, ready=lambda _address: ready.set()))

    thread = threading.Thread(target=_run, daemon=True, name="repro-serve")
    thread.start()
    if not ready.wait(timeout=10):
        raise RuntimeError("server failed to start within 10 s")
    handle = ServerHandle(server, thread)
    try:
        yield handle
    finally:
        handle.stop()
