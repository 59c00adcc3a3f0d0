"""CSR (compressed-sparse-row) flat-array graph kernels.

The disk-resident stores spend most of a query decoding adjacency
pages and maintaining LRU bookkeeping; :class:`CSRGraph` and
:class:`CSRDiGraph` strip both away.  A CSR kernel is three flat
arrays built exactly once:

* ``offsets`` -- ``num_nodes + 1`` integers; node ``v``'s adjacency
  occupies the half-open range ``offsets[v]:offsets[v + 1]``;
* ``targets`` -- the neighbor ids of every node, concatenated in the
  node's original adjacency order;
* ``weights`` -- the matching edge weights (C doubles).

Adjacency order is preserved verbatim from the source graph, so every
downstream algorithm (whose heap tie-breaking depends on neighbor
order) produces results byte-identical to the disk-backed stores.
:class:`CSRGraph` is one such triple; :class:`CSRDiGraph` holds two
one-way triples (out-arcs and in-arcs) that read, expose numpy views
and go to and from disk through the same code.

Kernels build from an in-memory :class:`~repro.graph.graph.Graph` /
:class:`~repro.graph.digraph.DiGraph`, or load straight from an
existing :class:`~repro.storage.disk.DiskGraph` /
:class:`~repro.storage.disk_directed.DiskDiGraph` (decoding each page
once, outside the charged read path).  ``to_graph`` / ``to_digraph``
reconstruct an in-memory graph whose adjacency lists match the kernel
entry for entry -- the round trip the property suite leans on.
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from collections import deque
from typing import Sequence

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph

AdjacencyLists = Sequence[Sequence[tuple[int, float]]]

# On-disk flat-array format (little-endian throughout):
#   header   -- magic ``RCSR`` + uint16 version + uint16 kind
#   counts   -- int64 num_nodes + int64 entry count(s)
#   arrays   -- the CSR triple(s) exactly as held in memory:
#               offsets (num_nodes + 1 int64), targets (int64),
#               weights (float64); a digraph writes the out-triple
#               then the in-triple.
# Both header shapes are 8-byte multiples (24 bytes undirected, 32
# directed), so every array starts 8-byte aligned and ``load(...,
# mmap=True)`` can hand out typed views over one shared mapping.
_MAGIC = b"RCSR"
_FORMAT_VERSION = 1
_KIND_GRAPH = 1
_KIND_DIGRAPH = 2
_HEADER = struct.Struct("<4sHH")


def _le_bytes(arr) -> bytes:
    """Serialize one flat array as little-endian raw bytes."""
    if sys.byteorder == "big":  # pragma: no cover - little-endian CI
        import numpy as np

        return np.asarray(arr).byteswap().tobytes()
    return arr.tobytes()


def _read_exact(handle, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes or reject the file as truncated."""
    data = handle.read(count)
    if len(data) != count:
        raise GraphError(f"CSR file truncated while reading {what}")
    return data


def _read_preamble(handle, expected_kind: int, counts: int) -> tuple[int, ...]:
    """Validate the header and return the int64 count fields."""
    magic, version, kind = _HEADER.unpack(
        _read_exact(handle, _HEADER.size, "header")
    )
    if magic != _MAGIC:
        raise GraphError("not a CSR file (bad magic)")
    if version != _FORMAT_VERSION:
        raise GraphError(f"unsupported CSR format version {version}")
    if kind != expected_kind:
        raise GraphError("CSR file holds the other graph kind")
    return struct.unpack(
        f"<{counts}q", _read_exact(handle, 8 * counts, "counts")
    )


def _mmap_views(path, preamble_size: int, sizes: Sequence[tuple[int, str]]):
    """Typed read-only views over one shared mapping of ``path``.

    One ``numpy.memmap`` of the whole file backs every view, so N
    worker processes loading the same snapshot share a single set of
    page-cache pages -- the zero-copy cross-process ``read_clone``.
    ``sizes`` pairs each array's element count with its dtype, in file
    order; the byte offsets all stay 8-aligned by construction.
    """
    import numpy as np

    raw = np.memmap(path, dtype=np.uint8, mode="r")
    expected = preamble_size + sum(count * 8 for count, _ in sizes)
    if raw.size < expected:
        raise GraphError("CSR file truncated while mapping arrays")
    views = []
    cursor = preamble_size
    for count, dtype in sizes:
        stop = cursor + count * 8
        views.append(raw[cursor:stop].view(dtype))
        cursor = stop
    return views


def _load_arrays(handle, sizes: Sequence[tuple[int, str]]) -> list[array]:
    """Read the flat arrays into stdlib ``array`` storage (copying)."""
    out = []
    for count, dtype in sizes:
        typecode = "q" if dtype == "<i8" else "d"
        arr = array(typecode)
        arr.frombytes(_read_exact(handle, count * 8, "arrays"))
        if sys.byteorder == "big":  # pragma: no cover - little-endian CI
            arr.byteswap()
        out.append(arr)
    return out


def _numpy_views(offsets: array, targets: array, weights: array):
    """Zero-copy numpy views over one CSR triple (buffer protocol).

    The stdlib arrays remain the storage; the views only reinterpret
    their memory, so building them costs neither time nor space.  A
    missing numpy raises :class:`~repro.errors.GraphError` -- callers
    gate the vectorized path on
    :func:`repro.compact.batch.numpy_available` first.
    """
    try:
        import numpy as np
    except ImportError as exc:  # pragma: no cover - numpy ships in CI
        raise GraphError(
            "numpy is required for the vectorized CSR views"
        ) from exc
    def view(arr, dtype):
        if isinstance(arr, np.ndarray):  # mmap-loaded storage is already a view
            return arr
        return np.frombuffer(arr, dtype=dtype)

    return (
        view(offsets, np.int64),
        view(targets, np.int64),
        view(weights, np.float64),
    )


def _build_arrays(
    lists: AdjacencyLists,
) -> tuple[array, array, array]:
    """Flatten adjacency lists into ``(offsets, targets, weights)``.

    Validates what the in-memory graphs also reject -- self-loops,
    parallel edges (a neighbor repeated within one list), out-of-range
    targets and non-positive weights -- so a kernel can never hold a
    network the rest of the system would refuse.
    """
    num_nodes = len(lists)
    offsets = array("q", [0] * (num_nodes + 1))
    targets = array("q")
    weights = array("d")
    for node, adjacency in enumerate(lists):
        seen: set[int] = set()
        for nbr, weight in adjacency:
            if not 0 <= nbr < num_nodes:
                raise GraphError(
                    f"edge ({node}, {nbr}) references an unknown node"
                )
            if nbr == node:
                raise GraphError(f"self-loop on node {node} is not allowed")
            if nbr in seen:
                raise GraphError(f"duplicate edge ({node}, {nbr})")
            if weight <= 0:
                raise GraphError(
                    f"edge ({node}, {nbr}) has non-positive weight {weight}"
                )
            seen.add(nbr)
            targets.append(nbr)
            weights.append(float(weight))
        offsets[node + 1] = len(targets)
    return offsets, targets, weights


def _merge_edge_order(
    lists: list[list[tuple[int, float]]],
) -> list[tuple[int, int, float]]:
    """Recover one global edge sequence consistent with every local order.

    Re-adding the returned edges to a fresh graph appends each node's
    incident edges in exactly the order the adjacency lists dictate,
    reproducing the lists entry for entry.  An edge is emitted only
    when it sits at the front of *both* endpoints' pending lists.  The
    source lists came from a real graph, so a consistent order exists;
    inconsistent hand-built input is rejected.
    """
    num_nodes = len(lists)
    pending: list[deque] = [deque() for _ in range(num_nodes)]
    remaining = 0
    for node, adjacency in enumerate(lists):
        for nbr, weight in adjacency:
            pending[node].append((nbr, weight))
            remaining += 1
    if remaining % 2:
        raise GraphError("undirected adjacency lists are not symmetric")
    remaining //= 2

    def ready(u: int) -> tuple[int, int, float] | None:
        """The edge at the front of ``u``'s list, if its partner agrees."""
        if not pending[u]:
            return None
        v, weight = pending[u][0]
        if not pending[v]:
            return None
        mirror, mirror_weight = pending[v][0]
        if mirror != u or mirror_weight != weight:
            return None
        return (u, v, weight)

    edges: list[tuple[int, int, float]] = []
    frontier = deque(range(num_nodes))
    queued = [True] * num_nodes
    while frontier:
        u = frontier.popleft()
        queued[u] = False
        while True:
            edge = ready(u)
            if edge is None:
                break
            _, v, weight = edge
            pending[u].popleft()
            pending[v].popleft()
            edges.append(edge)
            if not queued[v]:
                frontier.append(v)
                queued[v] = True
    if len(edges) != remaining:
        raise GraphError("adjacency lists admit no consistent edge order")
    return edges


def _merge_arc_order(
    out_lists: list[list[tuple[int, float]]],
    in_lists: list[list[tuple[int, float]]],
) -> list[tuple[int, int, float]]:
    """Directed counterpart of :func:`_merge_edge_order`.

    An arc ``u -> v`` is emitted when it heads both ``u``'s pending
    out-list and ``v``'s pending in-list.
    """
    num_nodes = len(out_lists)
    out_pending: list[deque] = [deque(lst) for lst in out_lists]
    in_pending: list[deque] = [deque(lst) for lst in in_lists]
    total = sum(len(lst) for lst in out_lists)
    if total != sum(len(lst) for lst in in_lists):
        raise GraphError("out- and in-adjacency lists disagree on arc count")

    def ready(u: int) -> tuple[int, int, float] | None:
        if not out_pending[u]:
            return None
        v, weight = out_pending[u][0]
        if not in_pending[v]:
            return None
        tail, mirror_weight = in_pending[v][0]
        if tail != u or mirror_weight != weight:
            return None
        return (u, v, weight)

    arcs: list[tuple[int, int, float]] = []
    frontier = deque(range(num_nodes))
    queued = [True] * num_nodes
    while frontier:
        u = frontier.popleft()
        queued[u] = False
        while True:
            arc = ready(u)
            if arc is None:
                break
            _, v, weight = arc
            out_pending[u].popleft()
            in_pending[v].popleft()
            arcs.append(arc)
            # advancing v's in-list may unblock the arc now heading it,
            # whose readiness is only ever checked from its *tail*
            if in_pending[v]:
                tail = in_pending[v][0][0]
                if not queued[tail]:
                    frontier.append(tail)
                    queued[tail] = True
    if len(arcs) != total:
        raise GraphError("adjacency lists admit no consistent arc order")
    return arcs


class _CSRTriple:
    """One direction's adjacency: a CSR triple with memoized reads.

    :class:`CSRGraph` is one triple; :class:`CSRDiGraph` holds two.
    """

    def __init__(self, offsets, targets, weights):
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.num_nodes = len(offsets) - 1
        self._memo: list[tuple[tuple[int, float], ...] | None]
        self._memo = [None] * self.num_nodes
        self._flat = None

    def degree(self, node: int) -> int:
        """Neighbor count of ``node``."""
        return int(self.offsets[node + 1] - self.offsets[node])

    def neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """``(neighbor, weight)`` pairs of ``node`` in original order."""
        memo = self._memo[node]
        if memo is None:
            lo, hi = int(self.offsets[node]), int(self.offsets[node + 1])
            # .tolist() yields plain int/float for stdlib and numpy
            # storage alike -- downstream JSON encoding and dict keys
            # must never see numpy scalars
            memo = tuple(
                zip(self.targets[lo:hi].tolist(), self.weights[lo:hi].tolist())
            )
            self._memo[node] = memo
        return memo

    def flat(self):
        """Numpy views of ``(offsets, targets, weights)`` (zero-copy).

        The views share the kernel's memory through the buffer
        protocol -- nothing is copied and the arrays stay the single
        source of truth.  Built once and memoized; the vectorized
        batch kernel (:mod:`repro.compact.batch`) traverses adjacency
        through them.  Raises :class:`~repro.errors.GraphError` when
        numpy is unavailable (callers gate on
        :func:`repro.compact.batch.numpy_available`).
        """
        if self._flat is None:
            self._flat = _numpy_views(self.offsets, self.targets, self.weights)
        return self._flat

    @property
    def nbytes(self) -> int:
        """Bytes held by the three flat arrays."""
        return (
            self.offsets.itemsize * len(self.offsets)
            + self.targets.itemsize * len(self.targets)
            + self.weights.itemsize * len(self.weights)
        )


def _write(path, kind: int, triples: Sequence[_CSRTriple]) -> None:
    """Write ``triples`` in the on-disk format: the header, the node
    count and one entry count per triple, then each triple's arrays
    verbatim -- so the file *is* the in-memory layout."""
    counts = [len(triple.targets) for triple in triples]
    with open(os.fspath(path), "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _FORMAT_VERSION, kind))
        handle.write(
            struct.pack(f"<{1 + len(counts)}q", triples[0].num_nodes, *counts)
        )
        for triple in triples:
            for arr in (triple.offsets, triple.targets, triple.weights):
                handle.write(_le_bytes(arr))


def _read_triples(handle, num_nodes: int, counts: Sequence[int], mmap: bool):
    """Read one array triple per entry count from ``handle``, which
    :func:`_read_preamble` has positioned after the counts.

    With ``mmap=False`` the arrays are copied into process-private
    stdlib storage; with ``mmap=True`` they are read-only views over
    one shared mapping of the file (see :func:`_mmap_views`).
    """
    sizes = []
    for count in counts:
        sizes += [(num_nodes + 1, "<i8"), (count, "<i8"), (count, "<f8")]
    if mmap:
        arrays = _mmap_views(handle.name, handle.tell(), sizes)
    else:
        arrays = _load_arrays(handle, sizes)
    triples = [arrays[i:i + 3] for i in range(0, len(arrays), 3)]
    for (offsets, _, _), count in zip(triples, counts):
        if offsets[0] != 0 or offsets[num_nodes] != count:
            raise GraphError("CSR file offsets disagree with its header")
    return triples


def _disk_lists(disk) -> list[tuple[tuple[int, float], ...]]:
    """Every node's list in a paged adjacency file, decoding each page
    once outside the charged read path (construction is not a query)."""
    from repro.storage.page import decode_adjacency_page

    lists: list[tuple[tuple[int, float], ...]] = [()] * disk.num_nodes
    for payload in disk._pages:
        for record in decode_adjacency_page(payload):
            lists[record.node] = record.neighbors
    return lists


class CSRGraph(_CSRTriple):
    """Flat-array adjacency of an undirected network.

    Build once with :meth:`from_graph` (or :meth:`from_disk_graph`),
    then read adjacency through :meth:`neighbors`.  The arrays are the
    storage; each node's ``(neighbor, weight)`` tuple is assembled at
    most once and memoized, so steady-state reads are a list index --
    no page decode, no buffer bookkeeping, no charged I/O.
    """

    def __init__(self, lists: AdjacencyLists):
        if len(lists) == 0:
            raise GraphError("graph needs at least one node, got 0")
        super().__init__(*_build_arrays(lists))
        self._check_symmetry(lists)

    @staticmethod
    def _check_symmetry(lists: AdjacencyLists) -> None:
        """Reject lists no undirected graph could produce: every entry
        ``(v, w)`` on ``u`` must be mirrored by ``(u, w)`` on ``v``."""
        weights: dict[tuple[int, int], float] = {}
        for node, adjacency in enumerate(lists):
            for nbr, weight in adjacency:
                weights[(node, nbr)] = float(weight)
        for (u, v), weight in weights.items():
            if weights.get((v, u)) != weight:
                raise GraphError(
                    "undirected adjacency lists are not symmetric: "
                    f"edge ({u}, {v}) has no matching mirror entry"
                )

    @property
    def num_edges(self) -> int:
        """Undirected edge count (each edge fills two list entries)."""
        return len(self.targets) // 2

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Flatten an in-memory :class:`~repro.graph.graph.Graph`."""
        return cls([graph.neighbors(v) for v in range(graph.num_nodes)])

    @classmethod
    def from_disk_graph(cls, disk) -> "CSRGraph":
        """Load from an existing :class:`~repro.storage.disk.DiskGraph`.

        Decodes every serialized page exactly once, outside the charged
        read path (construction is not a query), and preserves the
        on-disk adjacency order.
        """
        return cls(_disk_lists(disk))

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write the kernel to ``path`` in the flat on-disk format.

        The three arrays are dumped verbatim after a 24-byte preamble,
        so the file *is* the in-memory layout -- ``load`` round-trips
        bitwise, with or without ``mmap``.
        """
        _write(path, _KIND_GRAPH, (self,))

    @classmethod
    def load(cls, path, *, mmap: bool = False) -> "CSRGraph":
        """Read a kernel previously written by :meth:`save`.

        With ``mmap=False`` the arrays are copied into process-private
        stdlib storage.  With ``mmap=True`` they are read-only
        ``numpy.memmap`` views over one shared mapping of the file:
        loading is constant-time and N processes mapping the same
        snapshot share physical pages, which is what makes
        ``CompactDatabase.read_clone`` zero-copy across processes.
        The arrays came from a file this module wrote, so the O(E)
        list validation and symmetry check are skipped.
        """
        with open(os.fspath(path), "rb") as handle:
            num_nodes, num_entries = _read_preamble(handle, _KIND_GRAPH, 2)
            if num_nodes < 1 or num_entries < 0 or num_entries % 2:
                raise GraphError("CSR file header holds impossible counts")
            (arrays,) = _read_triples(handle, num_nodes, [num_entries], mmap)
        kernel = cls.__new__(cls)
        _CSRTriple.__init__(kernel, *arrays)
        return kernel

    # -- round trip ------------------------------------------------------

    def to_graph(self) -> Graph:
        """An in-memory graph whose adjacency lists match this kernel."""
        lists = [list(self.neighbors(v)) for v in range(self.num_nodes)]
        edges = _merge_edge_order(lists)
        return Graph(self.num_nodes, edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRGraph(|V|={self.num_nodes}, |E|={self.num_edges})"


class CSRDiGraph:
    """Flat-array forward + backward adjacency of a directed network.

    Two CSR triples over the same node set: ``out`` holds every node's
    outgoing arcs, ``in`` its incoming arcs, both in the original
    adjacency order so backward expansions and forward probes match
    the paged files arc for arc.
    """

    def __init__(self, out_lists: AdjacencyLists, in_lists: AdjacencyLists):
        if len(out_lists) != len(in_lists):
            raise GraphError("out- and in-lists cover different node counts")
        if len(out_lists) == 0:
            raise GraphError("graph needs at least one node, got 0")
        self._out = _CSRTriple(*_build_arrays(out_lists))
        self._in = _CSRTriple(*_build_arrays(in_lists))
        if len(self._out.targets) != len(self._in.targets):
            raise GraphError("out- and in-adjacency lists disagree on arc count")

    @property
    def num_nodes(self) -> int:
        """Node count shared by both directions."""
        return self._out.num_nodes

    @property
    def num_arcs(self) -> int:
        """Arc count (each arc fills one out- and one in-list entry)."""
        return len(self._out.targets)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_digraph(cls, graph: DiGraph) -> "CSRDiGraph":
        """Flatten an in-memory :class:`~repro.graph.digraph.DiGraph`."""
        nodes = range(graph.num_nodes)
        return cls(
            [graph.out_neighbors(v) for v in nodes],
            [graph.in_neighbors(v) for v in nodes],
        )

    @classmethod
    def from_disk_digraph(cls, disk) -> "CSRDiGraph":
        """Load from an existing
        :class:`~repro.storage.disk_directed.DiskDiGraph`, decoding each
        direction file's pages once, uncharged."""
        return cls(_disk_lists(disk._forward), _disk_lists(disk._backward))

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write both direction triples to ``path`` (out first, then in)."""
        _write(path, _KIND_DIGRAPH, (self._out, self._in))

    @classmethod
    def load(cls, path, *, mmap: bool = False) -> "CSRDiGraph":
        """Read a kernel previously written by :meth:`save`.

        Same contract as :meth:`CSRGraph.load`: ``mmap=False`` copies
        into stdlib arrays, ``mmap=True`` maps read-only shared views.
        """
        with open(os.fspath(path), "rb") as handle:
            num_nodes, out_arcs, in_arcs = _read_preamble(
                handle, _KIND_DIGRAPH, 3
            )
            if num_nodes < 1 or out_arcs < 0 or out_arcs != in_arcs:
                raise GraphError("CSR file header holds impossible counts")
            out_arrays, in_arrays = _read_triples(
                handle, num_nodes, [out_arcs, in_arcs], mmap
            )
        kernel = cls.__new__(cls)
        kernel._out = _CSRTriple(*out_arrays)
        kernel._in = _CSRTriple(*in_arrays)
        return kernel

    # -- reads -----------------------------------------------------------

    def out_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Outgoing ``(head, weight)`` arcs of ``node``, original order."""
        return self._out.neighbors(node)

    def in_neighbors(self, node: int) -> tuple[tuple[int, float], ...]:
        """Incoming ``(tail, weight)`` arcs of ``node``, original order."""
        return self._in.neighbors(node)

    def out_flat(self):
        """Numpy views of the out-arc ``(offsets, targets, weights)``.

        Zero-copy and memoized, like :meth:`CSRGraph.flat`; the
        directed batch kernel expands candidate points forward over
        these views (distances ``d(p -> .)``).
        """
        return self._out.flat()

    def in_flat(self):
        """Numpy views of the in-arc ``(offsets, targets, weights)``.

        Zero-copy and memoized; the backward counterpart of
        :meth:`out_flat`.
        """
        return self._in.flat()

    @property
    def nbytes(self) -> int:
        """Bytes held by the six flat arrays."""
        return self._out.nbytes + self._in.nbytes

    # -- round trip ------------------------------------------------------

    def to_digraph(self) -> DiGraph:
        """An in-memory digraph whose adjacency matches this kernel."""
        out_lists = [list(self.out_neighbors(v)) for v in range(self.num_nodes)]
        in_lists = [list(self.in_neighbors(v)) for v in range(self.num_nodes)]
        arcs = _merge_arc_order(out_lists, in_lists)
        return DiGraph(self.num_nodes, arcs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CSRDiGraph(|V|={self.num_nodes}, |A|={self.num_arcs})"
