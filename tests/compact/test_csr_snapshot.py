"""On-disk CSR format and snapshot directories: bitwise round trips.

The serve fleet's correctness rests on every worker mapping the same
bytes: ``load(save(g))`` must reproduce the offsets/targets/weights
arrays **bitwise** -- with and without ``mmap=True``, for both the
undirected and the directed kernel -- and a snapshot-loaded database
must answer exactly what the database it was saved from answers.
Malformed files (truncation, foreign magic, header/offset
disagreement) must be rejected loudly, never mapped quietly.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings

from repro.compact import CompactDatabase, CSRGraph, load_snapshot
from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.points.points import NodePointSet

from tests.compact.test_csr_properties import (
    SETTINGS,
    sparse_digraphs,
    sparse_graphs,
)


def _arrays(csr):
    """The kernel's flat arrays as plain lists (storage-agnostic)."""
    return (list(csr.offsets), list(csr.targets), list(csr.weights))


@settings(**SETTINGS)
@given(graph=sparse_graphs())
@pytest.mark.parametrize("mmap", [False, True], ids=["copy", "mmap"])
def test_graph_roundtrip_is_bitwise_identical(graph, mmap, tmp_path_factory):
    from repro.compact.csr import CSRGraph

    path = tmp_path_factory.mktemp("csr") / "g.csr"
    csr = CSRGraph.from_graph(graph)
    csr.save(path)
    loaded = CSRGraph.load(path, mmap=mmap)
    assert loaded.num_nodes == csr.num_nodes
    assert loaded.num_edges == csr.num_edges
    assert _arrays(loaded) == _arrays(csr)
    # bitwise: the numpy views over both storages match exactly
    for ours, theirs in zip(csr.flat(), loaded.flat()):
        assert np.array_equal(ours, theirs)
    # behavioral: adjacency comes back in the same order
    for node in range(csr.num_nodes):
        assert loaded.neighbors(node) == csr.neighbors(node)


@settings(**SETTINGS)
@given(digraph=sparse_digraphs())
@pytest.mark.parametrize("mmap", [False, True], ids=["copy", "mmap"])
def test_digraph_roundtrip_is_bitwise_identical(digraph, mmap,
                                                tmp_path_factory):
    from repro.compact.csr import CSRDiGraph

    path = tmp_path_factory.mktemp("csr") / "g.dcsr"
    csr = CSRDiGraph.from_digraph(digraph)
    csr.save(path)
    loaded = CSRDiGraph.load(path, mmap=mmap)
    assert loaded.num_nodes == csr.num_nodes
    assert loaded.num_arcs == csr.num_arcs
    for ours, theirs in zip(csr.out_flat() + csr.in_flat(),
                            loaded.out_flat() + loaded.in_flat()):
        assert np.array_equal(ours, theirs)
    for node in range(csr.num_nodes):
        assert loaded.out_neighbors(node) == csr.out_neighbors(node)
        assert loaded.in_neighbors(node) == csr.in_neighbors(node)


def _golden(kind, num_nodes, *triples):
    """The documented file layout, built independently of the writer."""
    blob = struct.pack("<4sHH", b"RCSR", 1, kind)
    blob += struct.pack(f"<{1 + len(triples)}q", num_nodes,
                        *(len(targets) for _, targets, _ in triples))
    for offsets, targets, weights in triples:
        blob += struct.pack(f"<{len(offsets)}q", *offsets)
        blob += struct.pack(f"<{len(targets)}q", *targets)
        blob += struct.pack(f"<{len(weights)}d", *weights)
    return blob


@pytest.mark.parametrize("mmap", [False, True], ids=["copy", "mmap"])
def test_files_match_golden_bytes(tmp_path, mmap):
    """Snapshots written by earlier versions must keep loading: the
    writer's bytes are pinned to the format, not just to the reader."""
    from repro.compact.csr import CSRDiGraph

    graph = CSRGraph([[(1, 1.5)], [(0, 1.5), (2, 2.0)], [(1, 2.0)]])
    graph.save(tmp_path / "g.csr")
    assert (tmp_path / "g.csr").read_bytes() == _golden(
        1, 3, ([0, 1, 3, 4], [1, 0, 2, 1], [1.5, 1.5, 2.0, 2.0]))
    loaded = CSRGraph.load(tmp_path / "g.csr", mmap=mmap)
    assert [loaded.neighbors(v) for v in range(3)] == [
        graph.neighbors(v) for v in range(3)]

    digraph = CSRDiGraph(
        [[(1, 1.5), (2, 3.0)], [(2, 2.0)], [(0, 0.5)]],
        [[(2, 0.5)], [(0, 1.5)], [(1, 2.0), (0, 3.0)]],
    )
    digraph.save(tmp_path / "g.dcsr")
    assert (tmp_path / "g.dcsr").read_bytes() == _golden(
        2, 3,
        ([0, 2, 3, 4], [1, 2, 2, 0], [1.5, 3.0, 2.0, 0.5]),
        ([0, 1, 2, 4], [2, 0, 1, 0], [0.5, 1.5, 2.0, 3.0]),
    )
    loaded = CSRDiGraph.load(tmp_path / "g.dcsr", mmap=mmap)
    for v in range(3):
        assert loaded.out_neighbors(v) == digraph.out_neighbors(v)
        assert loaded.in_neighbors(v) == digraph.in_neighbors(v)


def _demo_graph():
    edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5), (3, 0, 1.0),
             (1, 3, 2.5), (2, 4, 1.0), (4, 5, 3.0), (5, 0, 2.0)]
    graph = Graph(6, edges, coords=[(float(v), float(-v)) for v in range(6)])
    points = NodePointSet({0: 1, 1: 4, 2: 5})
    return graph, points


class TestMalformedFiles:
    def _saved(self, tmp_path):
        graph, _ = _demo_graph()
        path = tmp_path / "g.csr"
        CSRGraph.from_graph(graph).save(path)
        return path

    @pytest.mark.parametrize("mmap", [False, True], ids=["copy", "mmap"])
    def test_truncated_file_rejected(self, tmp_path, mmap):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(GraphError, match="truncated"):
            CSRGraph.load(path, mmap=mmap)

    def test_foreign_magic_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(b"NOPE" + blob[4:])
        with pytest.raises(GraphError, match="not a CSR file"):
            CSRGraph.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        from repro.compact.csr import CSRDiGraph

        path = self._saved(tmp_path)
        with pytest.raises(GraphError, match="other graph kind"):
            CSRDiGraph.load(path)

    def test_header_offset_disagreement_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        # corrupt the final offsets entry (it must equal 2|E|)
        header = 8 + 16  # magic/version/kind + the two counts
        num_nodes = struct.unpack_from("<q", blob, 8)[0]
        struct.pack_into("<q", blob, header + 8 * num_nodes, 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(GraphError, match="disagree"):
            CSRGraph.load(path)


class TestSnapshotDirectory:
    def test_loaded_database_answers_identically(self, tmp_path):
        graph, points = _demo_graph()
        db = CompactDatabase(graph, points)
        root = db.save_snapshot(tmp_path / "snap")
        for mmap in (False, True):
            clone = CompactDatabase.load_snapshot(root, mmap=mmap)
            assert clone.graph.num_nodes == graph.num_nodes
            assert clone.graph.num_edges == graph.num_edges
            assert dict(clone.points.items()) == dict(points.items())
            for query in range(graph.num_nodes):
                assert (clone.rknn(query, 2).points
                        == db.rknn(query, 2).points)
                assert (clone.knn(query, 2).neighbors
                        == db.knn(query, 2).neighbors)

    def test_loaded_database_accepts_mutations(self, tmp_path):
        graph, points = _demo_graph()
        db = CompactDatabase(graph, points)
        clone = CompactDatabase.load_snapshot(db.save_snapshot(tmp_path))
        assert clone.stamp == (0, 0)
        clone.insert_point(9, 3)
        assert clone.stamp == (0, 1)
        db.insert_point(9, 3)
        for query in range(graph.num_nodes):
            assert clone.rknn(query, 1).points == db.rknn(query, 1).points
        clone.compact()
        assert clone.stamp == (1, 0)
        assert clone.rknn(3, 1).points == db.rknn(3, 1).points

    def test_pending_edge_deltas_block_save(self, tmp_path):
        from repro.errors import QueryError

        graph, points = _demo_graph()
        db = CompactDatabase(graph, points)
        db.insert_edge(0, 2, 4.0)
        with pytest.raises(QueryError, match="compact"):
            db.save_snapshot(tmp_path / "snap")
        db.compact()
        db.save_snapshot(tmp_path / "snap")

    def test_compact_threshold_survives_save_and_load(self, tmp_path):
        import json

        graph, points = _demo_graph()
        db = CompactDatabase(graph, points, compact_threshold=3)
        root = db.save_snapshot(tmp_path / "snap")
        assert load_snapshot(root).compact_threshold == 3
        # an explicit threshold still wins over the recorded one
        assert load_snapshot(root, compact_threshold=5).compact_threshold == 5
        # snapshots written before the threshold was recorded load
        # without one
        meta_path = root / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["compact_threshold"]
        meta_path.write_text(json.dumps(meta))
        assert load_snapshot(root).compact_threshold is None

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="no snapshot"):
            load_snapshot(tmp_path)
