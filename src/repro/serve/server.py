"""The serving front both serve modes share, and the in-process server.

:class:`ConnectionServer` is the one serving front: an asyncio event
loop owning every connection over a list of **lanes** (:class:`Lane`),
each one single-thread executor running ``run(request)`` in submission
order.  :class:`RknnServer` is the one-lane case, executing over a
facade database -- disk, sharded, compact, oracle attached or not --
in this process; :class:`~repro.serve.fleet.FleetServer` is the N-lane
case, each lane the pipe round trip to one worker process.  The rest
is written once, here: admission into each lane's
:class:`~repro.serve.batcher.MicroBatcher` with home-lane routing and
reroute, the trace bypass, the batch runner, the write path,
``/metrics`` and ``/healthz``.

**One execution path.**  :func:`execute` runs every ``batch`` (trace
and ``EXPLAIN`` bodies included), ``mutate`` and ``compact`` request:
here on the lane's thread, in each fleet worker from its pipe loop.
Either caller runs one request at a time, so a batch's answers and the
update generation captured just before them -- plus, over a
delta-overlay database (the compact backend), the
``(base_generation, delta_epoch)`` snapshot stamp -- describe one
state, and writes land strictly between batches.  Every response
carries that generation (and stamp), so a client can replay the write
log and verify any answer against a direct facade call.

**Writes.**  A write is queued on every live lane in one synchronous
step, then each reply is awaited in turn and the lanes must agree on
the stamp: every lane's thread applies all writes in one order, with
no lock.  Per connection, a write starts only after every earlier
response on its connection has been written, and no later line is
read until the write has applied: queries pipelined before an
``insert`` answer at the old state, queries after it at the new one.
A write never waits for other connections' reads; ``compact`` alone
first fences every batcher, counted as ``drains`` in ``/metrics``.

**Backpressure.**  The admission queues are bounded; beyond capacity
the server immediately answers ``overloaded`` instead of queueing
without bound (shed requests are counted and surfaced through
``/metrics``).

**Standing queries.**  A ``subscribe`` request registers a
:class:`~repro.streams.monitor.RnnMonitor` over the live database
(in-process only); every later ``insert`` / ``delete`` refreshes each
subscribed monitor in the write's own lane step and pushes the
resulting :class:`~repro.streams.monitor.MembershipEvent` diffs to the
subscriber as ``membership`` event lines.

``/metrics`` and ``/healthz`` answer both as protocol ops and as plain
HTTP ``GET`` on the same port, with the same keys and series on both
fronts (the in-process server adds its engine's ``cache`` and cost
``counters``).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import logging
import threading
import time
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

#: Admission counters of every batcher, with their metric help texts.
ADMISSION = (("admitted", "Queries admitted"),
             ("shed", "Queries shed as overloaded"),
             ("batches", "Coalesced batches executed"),
             ("coalesced", "Queries sharing a batch"))

#: Result-cache counters and cost counters of an in-process engine.
CACHE_COUNTERS = ("hits", "misses", "evictions", "invalidations")
COST_COUNTERS = ("page_reads", "buffer_hits", "nodes_visited",
                 "edges_expanded", "oracle_prunes")


def execute(db, engine, request: dict) -> dict:
    """Execute one ``batch``, ``mutate`` or ``compact`` request on ``db``.

    The one execution path of both serve fronts: :class:`RknnServer`
    calls it on its lane's thread, each fleet worker from its pipe
    loop.  Either caller runs one request at a time, so a batch's
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


class WorkerDied(ReproError):
    """The control pipe to a worker process broke (crash or kill)."""


class Lane:
    """One single-thread executor running ``run(request)`` in
    submission order.

    The serialization point of a serving front: every batch and write
    queued on a lane is one step of its thread, so a write lands
    strictly between two batches and all writes apply in the order
    they were queued, with no lock.  :attr:`alive` turns false only
    when a fleet worker dies (:class:`~repro.serve.fleet.WorkerLane`).
    """

    def __init__(self, run, name: str):
        self.run = run
        self.alive = True
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix=name)

    def call(self, fn, *args) -> asyncio.Future:
        """Queue ``fn(*args)`` as the lane's next step; return its future."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args)

    def submit(self, request: dict) -> asyncio.Future:
        """Queue ``run(request)`` as the lane's next step."""
        return self.call(self.run, request)

    async def close(self) -> None:
        """Finish the queued steps, then release the thread."""
        self._executor.shutdown(wait=True)


class ConnectionServer:
    """The one serving front over a list of lanes.

    Owns the listener, the shutdown handshake, the JSON-lines / HTTP
    connection loops, one :class:`~repro.serve.batcher.MicroBatcher`
    per lane (built in :meth:`start`), home-lane routing with reroute,
    the batch runner, the write path and the introspection bodies.  A
    subclass supplies its lanes, their home routing (:meth:`_lane_of`)
    and, in process, standing queries (:meth:`_subscribe`):
    :class:`RknnServer` runs one lane in this process,
    :class:`~repro.serve.fleet.FleetServer` one per worker process.

    ``generation`` and ``stamp`` are the served state's update
    generation and snapshot stamp at construction (``stamp`` ``None``
    off the delta overlay); every write reply advances them.
    """

    #: ``/metrics`` ``mode``: ``single`` in process, ``fleet`` across
    #: worker processes.
    mode = "single"

    def __init__(self, backend: str, generation: int,
                 stamp: tuple[int, int] | None, *,
                 window: float = DEFAULT_WINDOW,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_queue: int = DEFAULT_MAX_QUEUE):
        # at most 30 instance attributes per class (with a subclass's):
        # past that CPython 3.11 keeps them in a plain dict, and every
        # attribute read on the request path slows by about a fifth
        self.backend = backend
        self._batching = {"window": window, "max_batch": max_batch,
                          "max_queue": max_queue}
        self._lanes: list[Lane] = []
        self._batchers: list[MicroBatcher] = []
        self._generation = generation
        self._stamp = stamp
        self._subscriptions: dict[asyncio.StreamWriter, RnnMonitor] = {}
        #: each open connection's handler task, closed by :meth:`stop`
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}
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
        #: Batcher fences: one per ``compact`` request, the only op
        #: that waits for other connections' queries.
        self.drains = 0
        self.events_pushed = 0
        self.reroutes = 0
        self.registry = self._build_registry()

    def _build_registry(self) -> MetricsRegistry:
        """Wire every observable number into one metrics registry.

        Everything is callback-backed over the front's own state (the
        plain attributes the tests and benchmarks read); the admission
        callbacks sum across the per-lane batchers at render time, so
        the registry stays correct as lanes die.  The latency histogram
        (round-trip seconds per lane batch, executor hand-off and pipe
        included) is the only owned series.
        """
        registry = MetricsRegistry()
        for name, help_text in (
                ("queries_served", "Queries answered"),
                ("mutations_applied", "Point mutations applied"),
                ("compactions", "Delta-log folds"),
                ("drains", "Batcher fences before a compaction"),
                ("errors", "Requests answered with an error"),
                ("events_pushed", "Membership events pushed"),
                ("reroutes", "Queries rerouted off dead workers")):
            registry.counter(name, help_text,
                             fn=functools.partial(getattr, self, name))
        registry.counter("worker_deaths", "Worker processes lost",
                         fn=lambda: len(self._lanes) - self._live())
        for key, help_text in ADMISSION:
            registry.counter(f"admission_{key}", help_text,
                             fn=functools.partial(self._admission, key))
        registry.gauge("workers", "Lanes (worker processes) configured",
                       fn=lambda: len(self._lanes))
        registry.gauge("live_workers", "Lanes currently answering",
                       fn=self._live)
        registry.gauge("queue_depth", "Summed admission queue depth",
                       fn=lambda: sum(b.depth for b in self._batchers))
        registry.gauge("generation", "Update generation",
                       fn=lambda: self._generation)
        registry.gauge("subscriptions", "Registered standing queries",
                       fn=lambda: len(self._subscriptions))
        if self._stamp is not None:
            registry.gauge("base_generation", "Overlay base generation",
                           fn=lambda: self._stamp[0])
            registry.gauge("delta_epoch", "Overlay delta epoch",
                           fn=lambda: self._stamp[1])
        self.latency = registry.histogram(
            "batch_seconds", "Lane batch round-trip latency (seconds)"
        )
        return registry

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Build each lane's batcher, then bind and start accepting
        connections (port 0 = ephemeral)."""
        with self._stop_mutex:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            if self._stop_pending:
                # a stop requested before the loop existed wins
                # immediately: serve_until_stopped() returns at once
                self._stop.set()
        self._batchers = [
            MicroBatcher(functools.partial(self._run_batch, index),
                         **self._batching)
            for index in range(len(self._lanes))
        ]
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
        try:
            await self.start(host, port)
        except BaseException:
            # release whatever started (lanes, worker processes)
            await self.stop()
            raise
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
        """Close the listener and every open connection, fail waiting
        requests, close every lane."""
        if self._server is not None:
            self._server.close()
            # each handler reads EOF and returns, instead of being
            # cancelled (and logged) when the event loop ends
            handlers = list(self._connections.values())
            for writer in list(self._connections):
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        for batcher in self._batchers:
            await batcher.close()
        await asyncio.gather(*(lane.close() for lane in self._lanes))

    # -- routing and execution ----------------------------------------------

    def _lane_of(self, spec) -> int:
        """Home lane of a query spec (the one lane in process)."""
        return 0

    def _live(self) -> int:
        """Lanes currently answering."""
        return sum(1 for lane in self._lanes if lane.alive)

    def _next_live(self, index: int) -> int | None:
        """The first live lane at or after ``index`` (wrapping)."""
        for step in range(len(self._lanes)):
            candidate = (index + step) % len(self._lanes)
            if self._lanes[candidate].alive:
                return candidate
        return None

    def _admit_query(self, payload: dict):
        """Admit a query into its home lane's batcher (the fast path).

        A dead home lane reroutes at admission; with no live lane the
        request is refused outright (clean error, no hang).  A
        ``trace``-flagged (or ``EXPLAIN``) request bypasses the batcher
        and runs as its own single-spec batch, so its span tree covers
        exactly that request -- the diagnostics path, deliberately
        unbatched.  Returns the future of the response body; may raise
        :class:`~repro.serve.batcher.QueueFull` to shed the request.
        """
        spec, trace, explain = protocol.request_query(payload)
        home = self._lane_of(spec)
        target = home if self._lanes[home].alive else self._next_live(home)
        if target is None:
            raise ReproError("no live workers in the fleet")
        if target != home:
            self.reroutes += 1
            logger.warning("rerouted query at admission: worker %d is "
                           "dead, using worker %d", home, target)
        if trace:
            return asyncio.ensure_future(
                self._run_traced(target, spec, explain))
        return self._batchers[target].admit(spec)

    async def _run_traced(self, index: int, spec, explain: bool) -> dict:
        """One traced spec as its own lane batch; return its body."""
        bodies = await self._run_batch(index, [spec], trace=True,
                                       explain=explain)
        return bodies[0]

    async def _run_batch(self, index: int, specs, **flags) -> list[dict]:
        """Run one coalesced batch on lane ``index``; return its bodies.

        Each body carries the stamp its lane captured immediately
        before executing the batch -- one lane step, one stamp per
        response.  A lane dying mid-batch reroutes the whole batch to
        the next live lane (every worker holds the full snapshot and
        write history, so any of them answers identically).  ``flags``
        are the :func:`execute` batch flags (``trace``, ``explain``).
        """
        request = {"kind": "batch", "specs": list(specs), **flags}
        began = time.perf_counter()
        try:
            reply = await self._lanes[index].submit(request)
        except WorkerDied:
            target = self._next_live(index)
            if target is None:
                raise ReproError("no live workers to run the batch") from None
            self.reroutes += len(specs)
            logger.warning("worker %d died mid-batch; rerouting %d queries "
                           "to worker %d", index, len(specs), target)
            reply = await self._lanes[target].submit(request)
        self.queries_served += len(specs)
        self.latency.observe(time.perf_counter() - began)
        return reply["bodies"]

    async def _write(self, request: dict) -> dict:
        """Apply one ``mutate`` / ``compact`` request on every live lane.

        ``compact`` first fences every batcher, so queries admitted
        before the fold answer at the old base, and counts one drain.
        The write is then queued on every live lane in one synchronous
        step -- so each lane's thread applies all writes in the same
        order -- and the replies are awaited in turn: every lane must
        report the **same** post-operation stamp, or the write fails
        loudly instead of serving mixed answers.  A lane dying
        meanwhile just leaves the front (it never answers again, so it
        cannot leak a stale generation).  The membership events the
        write caused are pushed to their subscribers afterwards.
        Returns the :func:`execute` reply the lanes agreed on.
        """
        if request["kind"] == "compact":
            for batcher in self._batchers:
                await batcher.fence()
            self.drains += 1
        live = [index for index, lane in enumerate(self._lanes) if lane.alive]
        futures = [self._lanes[index].submit(request) for index in live]
        replies, failure = [], None
        for index, future in zip(live, futures):
            try:
                replies.append(await future)
            except WorkerDied:
                logger.warning("worker %d died during %s broadcast; dropping "
                               "it from the fleet", index, request["kind"])
            except ReproError as exc:
                # deterministic databases fail identically on every lane
                # (e.g. inserting an existing pid)
                failure = failure or exc
        if failure is not None:
            raise failure
        if not replies:
            raise ReproError("no live workers in the fleet")
        stamps = {reply["stamp"] for reply in replies}
        if len(stamps) != 1:  # pragma: no cover - defensive
            raise ReproError(f"stamp divergence after {request['kind']}: "
                             f"{sorted(stamps)}")
        reply = replies[0]
        self._generation, self._stamp = reply["generation"], reply["stamp"]
        for writer, events in reply.get("events", ()):
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
        """Register a standing query; return the response body.

        Standing queries need one live database: only the in-process
        server (:class:`RknnServer`) offers them.
        """
        raise ReproError(
            "subscribe is not supported in fleet mode (--workers > 1); "
            "run a single-process server for standing queries"
        )

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = asyncio.current_task()
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
            self._connections.pop(writer, None)
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

    # -- introspection ------------------------------------------------------

    def _admission(self, key: str) -> int:
        """One admission counter summed over every lane's batcher."""
        return sum(getattr(batcher.stats, key) for batcher in self._batchers)

    def metrics(self) -> dict:
        """Counters for the ``/metrics`` endpoint (loop-thread only)."""
        live = self._live()
        body = {
            "backend": self.backend,
            "mode": self.mode,
            "workers": len(self._lanes),
            "live_workers": live,
            "worker_deaths": len(self._lanes) - live,
            "reroutes": self.reroutes,
            "generation": self._generation,
            "queue_depth": sum(b.depth for b in self._batchers),
            "queries_served": self.queries_served,
            "mutations_applied": self.mutations_applied,
            "compactions": self.compactions,
            "drains": self.drains,
            "errors": self.errors,
            "events_pushed": self.events_pushed,
            "subscriptions": len(self._subscriptions),
            "admission": {key: self._admission(key) for key, _ in ADMISSION},
            "latency": self.latency.to_dict(),
        }
        return protocol.stamped(body, self._stamp)

    def metrics_text(self) -> str:
        """Prometheus text exposition of the registry (served at
        ``GET /metrics?format=prometheus``; loop-thread only)."""
        return self.registry.render_prometheus()

    def _health(self) -> dict:
        """Body of the ``/healthz`` endpoint (``error`` once no lane is
        live)."""
        live = self._live()
        body = {
            "status": "ok" if live else "error",
            "generation": self._generation,
            "backend": self.backend,
            "workers": len(self._lanes),
            "live_workers": live,
        }
        return protocol.stamped(body, self._stamp)


class RknnServer(ConnectionServer):
    """Asyncio serving tier over one facade database: the one-lane front.

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
        super().__init__(backend_of(db), db.generation,
                         getattr(db, "stamp", None), window=window,
                         max_batch=max_batch, max_queue=max_queue)
        self.db = db
        self.engine = db.engine(cache_entries=cache_entries,
                                slow_log=slow_log)
        self._lanes.append(Lane(self._execute, "repro-serve"))
        # the engine's result cache and the database's cost tracker join
        # the registry as callback-backed series (nothing double-booked)
        cache, tracker = self.engine.cache_stats, db.tracker
        for key in CACHE_COUNTERS:
            self.registry.counter(f"cache_{key}", f"Result-cache {key}",
                                  fn=functools.partial(getattr, cache, key))
        for key in COST_COUNTERS:
            self.registry.counter(key,
                                  f"CostTracker {key.replace('_', ' ')}",
                                  fn=functools.partial(getattr, tracker, key))

    def _execute(self, request: dict) -> dict:
        """The lane's step: :func:`execute` one request; a point write
        also refreshes every standing query in the same step, so its
        events describe exactly that write."""
        reply = execute(self.db, self.engine, request)
        if request["kind"] == "mutate":
            reply["events"] = [(writer, monitor.refresh()) for writer, monitor
                               in list(self._subscriptions.items())]
        return reply

    async def _subscribe(self, payload: dict,
                         writer: asyncio.StreamWriter) -> dict:
        """Register a standing query in one lane step; return the
        acknowledgment carrying its initial results."""
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

        generation, results = await self._lanes[0].call(register)
        return {
            "status": "ok",
            "subscribed": sorted(queries),
            "k": k,
            "generation": generation,
            "results": results,
        }

    def metrics(self) -> dict:
        """The shared ``/metrics`` body plus the engine's result-cache
        and cost counters (loop-thread only)."""
        body = super().metrics()
        cache, tracker = self.engine.cache_stats, self.db.tracker
        body["cache"] = {key: getattr(cache, key) for key in CACHE_COUNTERS}
        body["counters"] = {key: getattr(tracker, key)
                            for key in COST_COUNTERS}
        return body


class ServerHandle:
    """A running server on a background thread (tests, benchmarks).

    Exposes the bound :attr:`host` / :attr:`port` and stops the server
    when the context exits.
    """

    def __init__(self, server: ConnectionServer, thread: threading.Thread):
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
def _boot_in_thread(server: ConnectionServer, host: str, port: int,
                    timeout: float):
    """Run ``server`` on a daemon thread; yield its :class:`ServerHandle`
    once it accepts connections, and stop it on exit.

    A server that fails to start (a busy port, a worker that cannot
    boot) re-raises its own exception here at once; one that is still
    not accepting connections after ``timeout`` seconds raises
    :class:`RuntimeError`.
    """
    ready = threading.Event()
    failed: list[BaseException] = []

    def _run() -> None:
        try:
            asyncio.run(server.run(host, port,
                                   ready=lambda _address: ready.set()))
        except BaseException as exc:
            if ready.is_set():
                raise
            failed.append(exc)
            ready.set()

    thread = threading.Thread(target=_run, daemon=True, name="repro-serve")
    thread.start()
    if not ready.wait(timeout=timeout):
        server.request_stop()
        raise RuntimeError(f"server failed to start within {timeout:g} s")
    if failed:
        thread.join()
        raise failed[0]
    handle = ServerHandle(server, thread)
    try:
        yield handle
    finally:
        handle.stop()


@contextlib.contextmanager
def serve_in_thread(db, *, host: str = "127.0.0.1", port: int = 0,
                    **kwargs):
    """Run an :class:`RknnServer` on a daemon thread; yield its handle.

    The canonical embedding for tests, benchmarks and examples::

        with serve_in_thread(db, max_batch=16) as handle:
            client = ServeClient(handle.host, handle.port)
            ...
    """
    with _boot_in_thread(RknnServer(db, **kwargs), host, port, 10) as handle:
        yield handle
