"""Online serving subsystem: one serving front, batcher, client.

The serving tier turns any facade database into a network service:

* :class:`~repro.serve.server.ConnectionServer` -- the one serving
  front over *lanes* (single-thread executors running requests in
  submission order): JSON-lines protocol over TCP, micro-batched
  execution through the :class:`~repro.engine.engine.QueryEngine`,
  bounded admission with explicit ``overloaded`` shedding, home-lane
  routing, writes applied in one order on every lane and per
  connection, ``/metrics`` and ``/healthz`` in one vocabulary;
* :class:`~repro.serve.server.RknnServer` -- the one-lane front in
  this process, with standing-query event push;
* :class:`~repro.serve.fleet.FleetServer` -- the multi-process
  scale-out form: one lane per worker process over one shared mmap'd
  snapshot (``repro serve --workers N``), with
  :func:`~repro.serve.fleet.fleet_in_thread` as its embedding helper;
* :func:`~repro.serve.server.execute` -- the one function executing
  every batch, write and compaction, on the in-process lane and in
  the fleet's worker processes;
* :class:`~repro.serve.batcher.MicroBatcher` -- the coalescing
  admission queue;
* :class:`~repro.serve.client.ServeClient` -- the blocking client used
  by tests, benchmarks and the CI replay job (``python -m repro.serve
  --address HOST:PORT --replay FILE``);
* :func:`~repro.serve.server.serve_in_thread` -- run a server on a
  background thread (the embedding tests and examples use).

Start one from the command line with ``repro serve`` (see
:mod:`repro.cli`).
"""

from repro.serve.batcher import BatcherStats, MicroBatcher, QueueFull
from repro.serve.client import ServeClient, http_get, http_get_text, replay
from repro.serve.fleet import FleetServer, WorkerDied, fleet_in_thread
from repro.serve.server import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_WINDOW,
    ConnectionServer,
    RknnServer,
    ServerHandle,
    serve_in_thread,
)

__all__ = [
    "BatcherStats",
    "ConnectionServer",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_WINDOW",
    "FleetServer",
    "MicroBatcher",
    "QueueFull",
    "RknnServer",
    "ServeClient",
    "ServerHandle",
    "WorkerDied",
    "fleet_in_thread",
    "http_get",
    "http_get_text",
    "replay",
    "serve_in_thread",
]
