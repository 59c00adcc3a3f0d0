"""Priority queues with cost accounting and entry invalidation.

The lazy algorithm (paper Section 3.3) keeps, for every de-heaped node,
pointers to the heap entries it inserted; when a verification query
later invalidates the node, those entries are removed from the heap.
:class:`InvalidatableHeap` supports exactly that: :meth:`push` returns
an entry id, and :meth:`invalidate` marks it dead so :meth:`pop` skips
it (lazy deletion, the standard binary-heap technique).

Both heap classes bump the shared tracker's ``heap_pushes`` /
``heap_pops`` counters so experiments can report machine-independent
work measures.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator

from repro.storage.stats import CostTracker


class CountingHeap:
    """Minimal binary min-heap ordered by ``(distance, tiebreak)``.

    A monotonically increasing sequence number breaks distance ties, so
    payloads are never compared (they may be non-orderable tuples).
    """

    def __init__(self, tracker: CostTracker | None = None):
        self._tracker = tracker
        self._entries: list[tuple[float, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, distance: float, payload: Any) -> None:
        """Insert ``payload`` at priority ``distance``."""
        if self._tracker is not None:
            self._tracker.heap_pushes += 1
        heapq.heappush(self._entries, (distance, self._seq, payload))
        self._seq += 1

    def pop(self) -> tuple[float, Any]:
        """Remove and return the minimum entry as ``(distance, payload)``."""
        if self._tracker is not None:
            self._tracker.heap_pops += 1
        distance, _, payload = heapq.heappop(self._entries)
        return distance, payload

    def peek_distance(self) -> float:
        """Distance of the current minimum entry (heap must be non-empty)."""
        return self._entries[0][0]


class InvalidatableHeap:
    """Min-heap whose entries can be retroactively removed by id."""

    def __init__(self, tracker: CostTracker | None = None):
        self._tracker = tracker
        self._entries: list[tuple[float, int, Any]] = []
        self._present: set[int] = set()  # live (pushed, not popped/invalidated)
        self._dead: set[int] = set()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._present)

    def __bool__(self) -> bool:
        self._skip_dead()
        return bool(self._entries)

    def push(self, distance: float, payload: Any) -> int:
        """Insert an entry and return its id (for later invalidation)."""
        if self._tracker is not None:
            self._tracker.heap_pushes += 1
        entry_id = self._seq
        self._seq += 1
        heapq.heappush(self._entries, (distance, entry_id, payload))
        self._present.add(entry_id)
        return entry_id

    def invalidate(self, entry_id: int) -> None:
        """Mark an entry dead; it is silently skipped by :meth:`pop`.

        Invalidating an entry that was already popped is a no-op, so
        callers may keep stale entry ids around without harm.
        """
        if entry_id in self._present:
            self._present.discard(entry_id)
            self._dead.add(entry_id)

    def pop(self) -> tuple[float, int, Any]:
        """Remove and return the minimum live entry ``(dist, id, payload)``."""
        self._skip_dead()
        if self._tracker is not None:
            self._tracker.heap_pops += 1
        distance, entry_id, payload = heapq.heappop(self._entries)
        self._present.discard(entry_id)
        return distance, entry_id, payload

    def peek_distance(self) -> float:
        """Distance of the current minimum live entry."""
        self._skip_dead()
        return self._entries[0][0]

    def _skip_dead(self) -> None:
        while self._entries and self._entries[0][1] in self._dead:
            _, entry_id, _ = heapq.heappop(self._entries)
            self._dead.discard(entry_id)

    def drain(self) -> Iterator[tuple[float, int, Any]]:
        """Pop everything (used by tests to inspect heap contents)."""
        while self:
            yield self.pop()
