"""LRU buffer manager shared by every page store of a database.

The paper's experiments use an LRU buffer of 1 MB (256 pages of 4 KB)
in front of the disk-resident graph (Section 6).  Figure 21 studies the
effect of the buffer size; :class:`BufferManager` therefore exposes the
capacity as a constructor argument and counts hits and misses through
the shared :class:`~repro.storage.stats.CostTracker`.

Frames cache *deserialized* page objects (the parsed record lists), so
a buffer hit costs neither I/O nor re-parsing, mirroring a real buffer
pool where a pinned frame is used directly.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.errors import StorageError
from repro.storage.stats import CostTracker

PageKey = Hashable

#: Default LRU buffer of the paper's evaluation: 1 MB = 256 pages of 4 KB.
DEFAULT_BUFFER_PAGES = 256


def rebuffered(store, buffer):
    """A shallow copy of a paged ``store`` reading through ``buffer``.

    A :class:`~repro.storage.disk_directed.DiskDiGraph` is copied with
    both of its direction files, so the parent's files keep their
    buffer.  The files a database rewrites in place -- K-NN lists and
    edge-point files -- get their own page tables, so the copy keeps
    reading the pages it was made with while the parent writes.
    ``None`` passes through, so optional side files clone in one call.
    """
    from repro.storage.disk import EdgePointStore, KnnListStore
    from repro.storage.disk_directed import DiskDiGraph

    if store is None:
        return None
    clone = copy.copy(store)
    if isinstance(store, DiskDiGraph):
        clone._forward = rebuffered(store._forward, buffer)
        clone._backward = rebuffered(store._backward, buffer)
        return clone
    clone.buffer = buffer
    if isinstance(store, (KnnListStore, EdgePointStore)):
        clone._pages = list(store._pages)
        clone._spans = list(store._spans)
        clone._page_of = copy.copy(store._page_of)
    return clone


class BufferManager:
    """A capacity-bounded LRU cache of deserialized pages.

    Parameters
    ----------
    capacity_pages:
        Number of page slots.  ``0`` disables caching entirely (every
        access is a fault, the Fig. 21 ``buffer size = 0`` setting).
    tracker:
        Shared cost tracker; misses bump ``page_reads`` and hits bump
        ``buffer_hits``.
    """

    def __init__(self, capacity_pages: int, tracker: CostTracker | None = None):
        if capacity_pages < 0:
            raise StorageError(f"buffer capacity must be >= 0, got {capacity_pages}")
        self.capacity_pages = capacity_pages
        self.tracker = tracker if tracker is not None else CostTracker()
        # key -> (parsed page object, span in physical page slots)
        self._frames: "OrderedDict[PageKey, tuple[Any, int]]" = OrderedDict()
        self._used_slots = 0

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def used_slots(self) -> int:
        """Physical page slots currently occupied (oversized pages count > 1)."""
        return self._used_slots

    def get(
        self,
        key: PageKey,
        load: Callable[[], Any],
        span: int = 1,
    ) -> Any:
        """Return the page for ``key``, loading (and charging) on a miss.

        ``load`` performs the physical read + deserialization.  ``span``
        is the number of physical page slots the page occupies; a miss
        charges ``span`` reads and the frame occupies ``span`` slots.
        """
        if span < 1:
            raise StorageError(f"page span must be >= 1, got {span}")
        frame = self._frames.get(key)
        if frame is not None:
            self._frames.move_to_end(key)
            self.tracker.buffer_hits += 1
            return frame[0]
        self.tracker.page_reads += span
        page = load()
        if self.capacity_pages > 0:
            self._admit(key, page, span)
        return page

    def invalidate(self, key: PageKey) -> None:
        """Drop ``key`` from the buffer (after an in-place page rewrite)."""
        frame = self._frames.pop(key, None)
        if frame is not None:
            self._used_slots -= frame[1]

    def put(self, key: PageKey, page: Any, span: int = 1) -> None:
        """Install a freshly written page without charging a read."""
        self.invalidate(key)
        if self.capacity_pages > 0:
            self._admit(key, page, span)

    def clear(self) -> None:
        """Empty the buffer (used between experiment runs)."""
        self._frames.clear()
        self._used_slots = 0

    def _admit(self, key: PageKey, page: Any, span: int) -> None:
        while self._frames and self._used_slots + span > self.capacity_pages:
            _, (_, old_span) = self._frames.popitem(last=False)
            self._used_slots -= old_span
        if self._used_slots + span <= self.capacity_pages:
            self._frames[key] = (page, span)
            self._used_slots += span
