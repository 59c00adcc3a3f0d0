"""Micro-batching admission queue with bounded backpressure.

The server does not execute queries one request at a time: requests
admitted within a short *coalescing window* are collected into one
batch and executed together through the
:class:`~repro.engine.engine.QueryEngine`, which dedupes repeats,
serves cache hits and orders the misses for page locality.  The window
closes early when ``max_batch`` requests are waiting, so a saturated
server runs full batches back to back and an idle one adds at most
``window`` seconds of latency to a lone request.

Admission is *bounded*: at most ``max_queue`` requests may be waiting
(coalescing plus queued behind an in-flight batch).  Beyond that the
batcher sheds -- :meth:`MicroBatcher.submit` raises :class:`QueueFull`
and the server answers ``overloaded`` immediately, trading an explicit
retry signal for unbounded queueing latency.

The batcher is a single-consumer design: one long-lived worker task
drains the admission queue, so batches execute strictly one after
another.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.engine.spec import QuerySpec


class QueueFull(Exception):
    """Admission control rejected a request (queue at capacity)."""

    def __init__(self, depth: int):
        super().__init__(f"admission queue full ({depth} requests waiting)")
        self.depth = depth


@dataclass
class BatcherStats:
    """Monotonic counters surfaced through the ``/metrics`` endpoint."""

    admitted: int = 0
    shed: int = 0
    batches: int = 0
    coalesced: int = 0  # requests that shared a batch with at least one other

    def snapshot(self) -> dict:
        """Flat mapping for the metrics payload."""
        return {
            "admitted": self.admitted,
            "shed": self.shed,
            "batches": self.batches,
            "coalesced": self.coalesced,
        }


@dataclass
class _Pending:
    """One admitted request waiting for its batch to run."""

    spec: QuerySpec
    future: asyncio.Future = field(repr=False)


class MicroBatcher:
    """Coalesce admitted query specs into engine batches.

    Parameters
    ----------
    runner:
        Async callable executing one batch: takes a list of specs,
        returns an index-aligned list of outcomes (the serving front
        supplies one round trip of the batcher's lane).
    window:
        Coalescing window in seconds.  The first request of a batch
        starts the timer; the batch flushes when it expires (or fills).
    max_batch:
        Flush immediately once this many requests are waiting.
    max_queue:
        Admission bound: maximum requests waiting (coalescing or queued
        behind the in-flight batch) before :meth:`submit` sheds.
    """

    def __init__(self, runner, *, window: float = 0.002,
                 max_batch: int = 32, max_queue: int = 1024):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._runner = runner
        self.window = window
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.stats = BatcherStats()
        self._pending: list[_Pending] = []
        self._wakeup = asyncio.Event()
        self._worker_task: asyncio.Task | None = None
        self._closed = False

    @property
    def depth(self) -> int:
        """Requests currently waiting for a batch to run."""
        return len(self._pending)

    def admit(self, spec: QuerySpec) -> asyncio.Future:
        """Admit one query synchronously; return the future of its outcome.

        Admission at call time (no coroutine scheduling in between) is
        what lets the server coalesce a pipelined connection: every
        request line joins the pending batch the moment it is read.
        Raises :class:`QueueFull` when admission control sheds the
        request; the returned future fails with
        :class:`ConnectionError` if the batcher closes first.
        """
        if self._closed:
            raise ConnectionError("batcher is closed")
        if len(self._pending) >= self.max_queue:
            self.stats.shed += 1
            raise QueueFull(len(self._pending))
        if self._worker_task is None:
            self._worker_task = asyncio.get_running_loop().create_task(
                self._worker()
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending.append(_Pending(spec, future))
        self.stats.admitted += 1
        self._wakeup.set()
        return future

    async def submit(self, spec: QuerySpec):
        """Admit one query; await and return the runner's outcome for it.

        Raises :class:`QueueFull` when admission control sheds the
        request, and :class:`ConnectionError` if the batcher closes
        while the request waits.
        """
        return await self.admit(spec)

    async def fence(self) -> None:
        """Wait until every request still waiting here has executed.

        Awaits only the requests not yet handed to the runner; a batch
        already in flight needs no wait, because it precedes anything
        queued after it in its lane's FIFO thread.  The compaction
        drain: the server fences every batcher before a ``compact``,
        so every query admitted before it -- on any connection --
        answers at the old base, and ``/metrics`` counts each
        compaction's fences as one drain.  Point writes never fence:
        each connection orders its own writes after its earlier
        responses.
        """
        waiting = [item.future for item in self._pending]
        if waiting:
            await asyncio.gather(*waiting, return_exceptions=True)

    async def _worker(self) -> None:
        """Single consumer: coalesce, then run batches back to back."""
        loop = asyncio.get_running_loop()
        while not self._closed:
            if not self._pending:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            if self.window > 0 and len(self._pending) < self.max_batch:
                # coalescing window: hold the batch open until it fills
                # or the window since the first waiter expires
                deadline = loop.time() + self.window
                while (not self._closed
                       and len(self._pending) < self.max_batch):
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    self._wakeup.clear()
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), remaining)
                    except asyncio.TimeoutError:
                        break
            if self._closed:
                break
            batch = self._pending[: self.max_batch]
            del self._pending[: self.max_batch]
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        if not batch:
            return
        self.stats.batches += 1
        if len(batch) > 1:
            self.stats.coalesced += len(batch)
        try:
            outcomes = await self._runner([item.spec for item in batch])
        except Exception as exc:
            if len(batch) == 1:
                if not batch[0].future.done():
                    batch[0].future.set_exception(exc)
                return
            # isolate the failure: one bad query (e.g. an out-of-range
            # node that only the facade can reject) must not fail the
            # valid queries that happened to share its window
            for item in batch:
                await self._run_batch([item])
            return
        for item, outcome in zip(batch, outcomes):
            if not item.future.done():
                item.future.set_result(outcome)

    async def close(self) -> None:
        """Stop the worker and fail every waiting request."""
        self._closed = True
        self._wakeup.set()
        if self._worker_task is not None:
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        for item in self._pending:
            if not item.future.done():
                item.future.set_exception(ConnectionError("server shutting down"))
        self._pending = []
