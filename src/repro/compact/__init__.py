"""Compact backend: CSR flat-array stores behind database facades.

The memory-resident fast path of the multi-backend architecture: the
network is flattened once into compressed-sparse-row arrays
(:mod:`repro.compact.csr`), served through store adapters matching the
disk protocol (:mod:`repro.compact.store`), and exposed behind
:class:`CompactDatabase` / :class:`CompactDirectedDatabase` facades
(:mod:`repro.compact.db`) that answer every restricted query
identically to the disk-backed and sharded databases -- with zero page
I/O and no buffer bookkeeping on the adjacency hot path.

Because the flat arrays support the buffer protocol, the backend also
carries a vectorized batch kernel (:mod:`repro.compact.batch`):
``batch_rknn()`` answers a whole batch of RkNN and aggregate NN specs
in one multi-source bucketed Dijkstra over numpy views of the CSR
arrays, bitwise identical to the scalar loop and charged to the same
cost model.

Mutations go through one LSM-style delta log
(:class:`DeltaLog`, :mod:`repro.compact.overlay`): the CSR arrays are
an immutable base generation, every point/edge insert-delete appends
to the log, sessions (``read_clone()``, ``at_epoch()``) hold the log
pinned at a ``(base_generation, delta_epoch)`` snapshot stamp, and
``compact()`` folds the log into a fresh base -- writes never drain
readers.
"""

from repro.compact.batch import (
    AggregateRequest,
    BatchRequest,
    batch_rknn_kernel,
    numpy_available,
)
from repro.compact.csr import CSRDiGraph, CSRGraph
from repro.compact.db import CompactDatabase, CompactDirectedDatabase
from repro.compact.overlay import DeltaLog, DeltaOp, OverlayGraphStore
from repro.compact.snapshot import CSRGraphAdapter, load_snapshot, save_snapshot
from repro.compact.store import (
    CompactDiGraphStore,
    CompactGraphStore,
    MemoryKnnStore,
)

__all__ = [
    "AggregateRequest",
    "BatchRequest",
    "CSRDiGraph",
    "CSRGraph",
    "CSRGraphAdapter",
    "CompactDatabase",
    "CompactDiGraphStore",
    "CompactDirectedDatabase",
    "CompactGraphStore",
    "DeltaLog",
    "DeltaOp",
    "MemoryKnnStore",
    "OverlayGraphStore",
    "batch_rknn_kernel",
    "load_snapshot",
    "numpy_available",
    "save_snapshot",
]
