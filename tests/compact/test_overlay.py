"""Unit tests for the delta overlay: log, merged view, facade wiring.

The property suite (``test_overlay_properties.py``) proves the big
invariant -- overlay answers are bitwise identical to a from-scratch
rebuild at every epoch.  This file pins the mechanism: log bookkeeping,
merged-adjacency replay, snapshot pinning of sessions, compaction
semantics, fast-path gating and the validation/error surface.
"""

import math
import random

import pytest

from repro import CompactDatabase, NodePointSet, QuerySpec
from repro.compact.overlay import DeltaLog, DeltaOp, OverlayGraphStore
from repro.compact.store import CompactGraphStore
from repro.errors import QueryError, StorageError
from repro.graph.graph import Graph
from repro.oracle import LowerOnlyBounds
from tests.conftest import build_random_graph


@pytest.fixture
def setup():
    rng = random.Random(7)
    graph = build_random_graph(rng, 30, 15, int_weights=True)
    points = NodePointSet({
        pid: node for pid, node in enumerate(rng.sample(range(30), 6))
    })
    return graph, points


def free_node(graph, points, skip=0):
    """A node that holds no point (restricted networks: one per node)."""
    taken = {node for _, node in points.items()}
    return [n for n in range(graph.num_nodes) if n not in taken][skip]


# -- DeltaOp / DeltaLog ---------------------------------------------------


def new_log(graph, points):
    return DeltaLog(CompactGraphStore(graph), graph, points)


def test_delta_op_rejects_unknown_kind():
    with pytest.raises(QueryError, match="unknown delta op kind"):
        DeltaOp("truncate")


def test_overlay_log_bookkeeping(setup):
    graph, points = setup
    log = new_log(graph, points)
    assert log.epoch == 0
    assert log.edge_ops() == []
    assert log.append(DeltaOp("insert-point", pid=50, node=1)) == 1
    assert log.append(DeltaOp("delete-edge", u=0, v=1)) == 2
    assert log.append(DeltaOp("insert-edge", u=2, v=9, weight=1.5)) == 3
    assert log.epoch == 3
    assert len(log.edge_ops()) == 2
    assert [op.kind for op in log.at(2).edge_ops()] == ["delete-edge"]
    assert len(log.at(0).ops()) == 0


def test_overlay_points_replay(setup):
    graph, points = setup
    log = new_log(graph, points)
    some_pid = next(iter(dict(points.items())))
    log.append(DeltaOp("insert-point", pid=77, node=3))
    log.append(DeltaOp("delete-point", pid=some_pid))
    assert dict(log.at(0).points().items()) == dict(points.items())
    at_one = dict(log.at(1).points().items())
    assert at_one[77] == 3 and some_pid in at_one
    at_two = dict(log.at(2).points().items())
    assert some_pid not in at_two and at_two[77] == 3


def test_overlay_epoch_out_of_range(setup):
    graph, points = setup
    log = new_log(graph, points)
    with pytest.raises(QueryError, match="epoch 1 out of range"):
        log.at(1)
    with pytest.raises(QueryError, match="out of range"):
        log.at(-1)


def test_pinned_log_keeps_its_prefix_and_refuses_writes(setup):
    graph, points = setup
    log = new_log(graph, points)
    log.append(DeltaOp("insert-point", pid=50, node=1))
    pinned = log.at(1)
    log.append(DeltaOp("insert-edge", u=2, v=9, weight=1.5))
    log.fold()
    assert pinned.stamp == (0, 1) and log.stamp == (1, 0)
    assert pinned.store() is pinned.base_store
    assert dict(pinned.points().items())[50] == 1
    with pytest.raises(QueryError, match="epoch 2 out of range"):
        pinned.at(2)
    for call in (lambda: pinned.append(DeltaOp("delete-point", pid=50)),
                 pinned.fold):
        with pytest.raises(QueryError, match="read-only"):
            call()


# -- OverlayGraphStore ----------------------------------------------------


def test_overlay_store_matches_rebuild_adjacency(setup):
    graph, _ = setup
    base = CompactGraphStore(graph)
    edges = list(graph.edges())
    u0, v0, _ = edges[0]
    ops = [
        DeltaOp("delete-edge", u=u0, v=v0),
        DeltaOp("insert-edge", u=3, v=27, weight=2.5),
    ]
    store = OverlayGraphStore(base, ops)
    rebuilt = Graph(
        graph.num_nodes, edges[1:] + [(3, 27, 2.5)]
    )
    for node in range(graph.num_nodes):
        assert store.neighbors(node) == tuple(rebuilt.neighbors(node)), node
    assert store.num_nodes == graph.num_nodes
    assert store.num_edges == rebuilt.num_edges
    assert store.num_pages == 0
    assert store.page_of(5) == base.page_of(5)


def test_overlay_store_untouched_nodes_share_base_tuples(setup):
    graph, _ = setup
    base = CompactGraphStore(graph)
    store = OverlayGraphStore(base, [DeltaOp("insert-edge", u=0, v=29,
                                             weight=1.0)])
    untouched = next(n for n in range(graph.num_nodes) if n not in (0, 29))
    assert store.neighbors(untouched) is base.neighbors(untouched)


def test_overlay_store_reinsert_after_delete_appends_at_end(setup):
    graph, _ = setup
    base = CompactGraphStore(graph)
    u, v, _ = next(iter(graph.edges()))
    ops = [
        DeltaOp("delete-edge", u=u, v=v),
        DeltaOp("insert-edge", u=u, v=v, weight=9.0),
    ]
    store = OverlayGraphStore(base, ops)
    assert store.neighbors(u)[-1] == (v, 9.0)
    assert sum(1 for nbr, _ in store.neighbors(u) if nbr == v) == 1


def test_overlay_store_rejects_point_ops(setup):
    graph, _ = setup
    base = CompactGraphStore(graph)
    with pytest.raises(StorageError, match="edge operations"):
        OverlayGraphStore(base, [DeltaOp("insert-point", pid=1, node=2)])


# -- facade wiring --------------------------------------------------------


def test_stamp_moves_on_append_and_compaction(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    assert db.stamp == (0, 0)
    db.insert_point(50, 1)
    assert db.stamp == (0, 1) and db.generation == 1
    db.insert_edge(0, 29, 2.0)
    assert db.stamp == (0, 2) and db.generation == 2
    result = db.compact()
    assert result.affected_nodes == 2
    # compaction changes no observable state: stamp moves, generation
    # does not
    assert db.stamp == (1, 0) and db.generation == 2


def test_compact_is_idempotent_when_log_empty(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    assert db.compact().affected_nodes == 0
    assert db.stamp == (0, 0)


def test_read_clone_pins_snapshot_across_append_and_compaction(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    before = db.rknn(5, 2).points
    clone = db.read_clone()
    db.insert_point(50, free_node(graph, points))
    db.insert_edge(0, 29, 1.0)
    db.compact()
    assert clone.stamp == (0, 0)
    assert clone.rknn(5, 2).points == before
    assert db.rknn(5, 2).points != before or db.stamp == (1, 0)


def test_clone_cannot_time_travel_past_its_pin(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    db.insert_point(50, free_node(graph, points))
    clone = db.read_clone()
    assert clone.stamp == (0, 1)
    db.insert_point(51, free_node(graph, points, 1))
    db.insert_point(52, free_node(graph, points, 2))
    with pytest.raises(QueryError, match="out of range"):
        clone.at_epoch(3)
    session = clone.at_epoch(1)
    assert session.stamp == (0, 1)
    assert {50, 51, 52} & set(session.points.ids()) == {50}


def test_writes_through_a_clone_are_refused(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    clone = db.read_clone()
    u, v, _ = next(iter(graph.edges()))
    for call in (
        lambda: clone.insert_point(50, free_node(graph, points)),
        lambda: clone.delete_point(0),
        lambda: clone.insert_edge(0, 29, 1.0),
        lambda: clone.delete_edge(u, v),
        clone.compact,
    ):
        with pytest.raises(QueryError, match="read-only"):
            call()
    db.insert_point(51, free_node(graph, points, 1))
    assert db.stamp == (0, 1) and clone.stamp == (0, 0)
    assert 50 not in set(db.at_epoch(1).points.ids())


def test_sessions_on_a_clean_base_keep_the_base(setup, tmp_path):
    graph, points = setup
    db = CompactDatabase(graph, points)
    before = [db.rknn(q, 2).points for q in range(0, graph.num_nodes, 3)]
    sessions = [db.at_epoch(0), db.read_clone()]
    db.insert_edge(0, 29, 1.0)
    for i, session in enumerate(sessions):
        path = session.save_snapshot(tmp_path / str(i))
        assert session.build_oracle(2).landmarks
        loaded = CompactDatabase.load_snapshot(path)
        assert [loaded.rknn(q, 2).points
                for q in range(0, graph.num_nodes, 3)] == before
    for call in (lambda: db.save_snapshot(tmp_path / "head"),
                 lambda: db.build_oracle(2)):
        with pytest.raises(QueryError, match="1 edge delta"):
            call()


def test_at_epoch_replays_each_state(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    answers = [db.rknn(5, 2).points]
    db.insert_point(50, free_node(graph, points))
    answers.append(db.rknn(5, 2).points)
    db.delete_point(50)
    answers.append(db.rknn(5, 2).points)
    for epoch, expected in enumerate(answers):
        session = db.at_epoch(epoch)
        assert session.stamp == (0, epoch)
        assert session.rknn(5, 2).points == expected, epoch


def test_at_epoch_sessions_are_read_only(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    db.insert_point(50, 1)
    session = db.at_epoch(0)
    for call in (
        lambda: session.insert_point(51, 2),
        lambda: session.delete_point(50),
        lambda: session.insert_edge(0, 29, 1.0),
        lambda: session.delete_edge(0, 29),
        session.compact,
    ):
        with pytest.raises(QueryError, match="read-only"):
            call()


def test_at_epoch_rejects_folded_epochs(setup):
    graph, points = setup
    db = CompactDatabase(graph, points, compact_threshold=1)
    db.insert_point(50, 1)  # auto-compacts: epoch 1 is gone
    assert db.stamp == (1, 0)
    with pytest.raises(QueryError, match="out of range"):
        db.at_epoch(1)


def test_auto_compaction_threshold(setup):
    graph, points = setup
    db = CompactDatabase(graph, points, compact_threshold=2)
    db.insert_point(50, 1)
    assert db.stamp == (0, 1) and not db.needs_compaction
    db.delete_point(50)
    assert db.stamp == (1, 0)
    with pytest.raises(QueryError, match="compact_threshold must be >= 1"):
        CompactDatabase(graph, points, compact_threshold=0)


def test_edge_mutation_validation(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    u, v, _ = next(iter(graph.edges()))
    with pytest.raises(QueryError, match="already exists"):
        db.insert_edge(u, v, 1.0)
    with pytest.raises(QueryError, match="self-loop"):
        db.insert_edge(3, 3, 1.0)
    with pytest.raises(QueryError, match="non-positive"):
        db.insert_edge(0, 29, 0.0)
    with pytest.raises(QueryError, match="unknown node"):
        db.insert_edge(0, 999, 1.0)
    missing = next(
        (a, b)
        for a in range(graph.num_nodes)
        for b in range(a + 1, graph.num_nodes)
        if not graph.has_edge(a, b)
    )
    with pytest.raises(QueryError, match="no edge"):
        db.delete_edge(*missing)
    # a failed validation appends nothing
    assert db.stamp == (0, 0)


def test_edge_insert_detaches_oracle_and_gates_rebuild(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    db.build_oracle(3)
    assert db.oracle is not None
    db.insert_edge(0, 29, 1.0)
    assert db.oracle is None and db.view.bounds is None
    with pytest.raises(QueryError, match="compact\\(\\) first"):
        db.build_oracle(3)
    pristine = CompactDatabase(graph, points)
    pristine.build_oracle(2)
    with pytest.raises(QueryError, match="compact\\(\\) first"):
        db.open_oracle(pristine.oracle)
    db.compact()
    assert db.build_oracle(3).landmarks


def test_edge_delete_degrades_oracle_to_lower_bounds(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    db.build_oracle(3)
    u, v, _ = next(iter(graph.edges()))
    db.delete_edge(u, v)
    # kept, but upper bounds (stale witness paths) are disabled
    assert isinstance(db.oracle, LowerOnlyBounds)
    assert db.oracle.upper_bound(0, 1) == math.inf
    assert db.oracle.num_landmarks == 3
    db.delete_edge(*next(
        (a, b, w) for a, b, w in graph.edges() if (a, b) != (u, v)
    )[:2])
    assert not isinstance(db.oracle._inner, LowerOnlyBounds)  # no re-wrap
    rebuilt = CompactDatabase(
        Graph(graph.num_nodes,
              [e for e in graph.edges() if (e[0], e[1]) != (u, v)]),
        points,
    )
    for query in range(0, graph.num_nodes, 5):
        assert db.rknn(query, 2).points == rebuilt.rknn(query, 2).points


def test_edge_ops_drop_materialized_lists(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    db.materialize(3)
    assert db.rknn(5, 2, method="eager-m").points is not None
    db.insert_edge(0, 29, 1.0)
    assert db.materialized is None
    with pytest.raises(QueryError, match="materialize"):
        db.rknn(5, 2, method="eager-m")


def test_pending_edge_deltas_force_scalar_batch(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    specs = [QuerySpec("rknn", query=q, k=1) for q in (3, 9, 12, 17, 21)]
    specs += [QuerySpec("aggregate_nn", group=(3, 29), k=2),
              QuerySpec("aggregate_nn", group=(0, 9, 9), k=1, agg="max")]

    def answers(results):
        return [r.neighbors if s.kind == "aggregate_nn" else r.points
                for s, r in zip(specs, results)]

    db.insert_edge(0, 29, 1.0)
    assert not hasattr(db.store, "csr")
    batched = answers(db.batch_rknn(specs))
    scalar = answers([
        db.aggregate_nn(s.group, s.k, s.agg) if s.kind == "aggregate_nn"
        else db.rknn(s.query, s.k) for s in specs
    ])
    assert batched == scalar
    db.compact()
    assert hasattr(db.store, "csr")
    assert answers(db.batch_rknn(specs)) == scalar


def test_compaction_with_edge_ops_matches_overlay_bitwise(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    edges = list(graph.edges())
    db.delete_edge(*edges[0][:2])
    db.insert_edge(3, 27, 2.5)
    db.insert_point(50, free_node(graph, points))
    overlay_answers = [db.rknn(q, 2).points for q in range(graph.num_nodes)]
    db.compact()
    compacted_answers = [db.rknn(q, 2).points for q in range(graph.num_nodes)]
    assert compacted_answers == overlay_answers
    # the folded base reproduces the merged edge sequence's adjacency
    # order exactly: base order minus deletions, insertions appended
    rebuilt = Graph(graph.num_nodes, edges[1:] + [(3, 27, 2.5)])
    for node in range(graph.num_nodes):
        assert db.store.csr.neighbors(node) == tuple(rebuilt.neighbors(node))


def test_attach_reference_moves_the_base_stamp(setup):
    graph, points = setup
    db = CompactDatabase(graph, points)
    before = db.stamp
    db.attach_reference(NodePointSet({0: 4, 1: 11}))
    assert db.stamp[0] == before[0] + 1
