"""Online serving subsystem: asyncio RkNN server, batcher, client.

The serving tier turns any facade database into a network service:

* :class:`~repro.serve.server.RknnServer` -- the asyncio server:
  JSON-lines protocol over TCP, micro-batched execution through the
  :class:`~repro.engine.engine.QueryEngine`, bounded admission with
  explicit ``overloaded`` shedding, writes kept in order per
  connection, standing-query event push, ``/metrics`` and
  ``/healthz``;
* :func:`~repro.serve.server.execute` -- the one function executing
  every batch, write and compaction, under both the single-process
  server and the fleet's worker processes;
* :class:`~repro.serve.batcher.MicroBatcher` -- the coalescing
  admission queue;
* :class:`~repro.serve.client.ServeClient` -- the blocking client used
  by tests, benchmarks and the CI replay job;
* :func:`~repro.serve.server.serve_in_thread` -- run a server on a
  background thread (the embedding tests and examples use);
* :class:`~repro.serve.fleet.FleetServer` -- the multi-process
  scale-out form: the same protocol, executed by N worker processes
  over one shared mmap'd snapshot (``repro serve --workers N``), with
  :func:`~repro.serve.fleet.fleet_in_thread` as its embedding helper.

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
