"""Linearizability of the served delta overlay under concurrent writes.

The tentpole claim of the overlay serving mode: writers append while
readers read -- no drain -- and every response is stamped with the
exact ``(base_generation, delta_epoch)`` snapshot that produced it.
The race test hammers a server with pipelined query clients while a
mutator thread interleaves point mutations and forced compactions,
then replays every stamped response against a from-scratch reference
database of that snapshot.  Two global facts close the argument:

* every stamp any reader observed is one the serialized write log
  actually produced (no torn or invented snapshots);
* the server drained exactly once per compaction -- plain writes
  never blocked a reader.

The fast tests underneath pin the protocol surface of the overlay
mode: stamp fields on every response, the ``compact`` op, and its
rejection on non-overlay backends.
"""

import threading
import time

import pytest

from repro.compact import CompactDatabase
from repro.points.points import NodePointSet
from repro.serve import ServeClient, serve_in_thread

from tests.serve.conftest import build_db, build_inputs, free_nodes


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


@pytest.fixture
def db(inputs):
    graph, placement = inputs
    return build_db("compact", graph, placement)


def _query_payloads():
    payloads = []
    for node in range(0, 60, 9):
        payloads.append({"op": "query", "kind": "rknn", "query": node,
                         "k": 2, "method": "eager"})
        payloads.append({"op": "query", "kind": "knn", "query": node + 1,
                         "k": 2})
    return payloads


def _direct_answer(db, payload):
    if payload["kind"] == "rknn":
        return list(db.rknn(payload["query"], payload["k"],
                            method=payload["method"]).points)
    return [[p, d] for p, d in db.knn(payload["query"],
                                      payload["k"]).neighbors]


def _await_progress(records, count):
    """Block until the hammer threads log ``count`` more responses."""
    watermark = len(records) + count
    deadline = time.monotonic() + 10
    while len(records) < watermark and time.monotonic() < deadline:
        time.sleep(0.001)


@pytest.mark.slow
def test_stamped_responses_replay_against_the_write_log(inputs):
    graph, placement = inputs
    db = build_db("compact", graph, placement)
    payloads = _query_payloads()
    targets = free_nodes(graph, placement, 4)
    script = [("insert", 700 + i, node) for i, node in enumerate(targets)]
    script[2:2] = [("compact", None, None)]
    script.append(("delete", 700, None))
    script.append(("compact", None, None))

    records = []  # (payload, response) from the hammer threads
    write_log = []  # (kind, pid, node, response) in apply order
    with serve_in_thread(db, window=0.002, max_batch=8) as handle:
        stop = threading.Event()

        def hammer():
            with ServeClient(handle.host, handle.port) as client:
                while not stop.is_set():
                    for pair in zip(payloads, client.pipeline(payloads)):
                        records.append(pair)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        with ServeClient(handle.host, handle.port) as mutator:
            for kind, pid, node in script:
                _await_progress(records, 5)
                if kind == "insert":
                    response = mutator.insert(pid, node)
                elif kind == "delete":
                    response = mutator.delete(pid)
                else:
                    response = mutator.compact()
                assert response["status"] == "ok", response
                write_log.append((kind, pid, node, response))
            _await_progress(records, 10)
            metrics = mutator.metrics()
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert records, "no queries completed"

    # Replay the serialized write log into a stamp -> placement map.
    # Every stamp a write produced names exactly one point placement;
    # compaction moves the stamp without moving the placement.
    placement_now = dict(placement)
    states = {(0, 0): dict(placement_now)}
    mutation_count = 0
    for kind, pid, node, response in write_log:
        stamp = (response["base_generation"], response["delta_epoch"])
        if kind == "insert":
            placement_now[pid] = node
            mutation_count += 1
        elif kind == "delete":
            del placement_now[pid]
            mutation_count += 1
        else:
            assert stamp[1] == 0, response  # compaction resets the epoch
        assert response["generation"] == mutation_count, response
        states[stamp] = dict(placement_now)

    # Every reader-observed stamp must be one the write log produced,
    # and the stamped answer must match a from-scratch database of
    # that exact snapshot.
    references = {}
    observed = set()
    for payload, response in records:
        assert response["status"] == "ok", (payload, response)
        stamp = (response["base_generation"], response["delta_epoch"])
        assert stamp in states, (
            f"response stamped {stamp}, a snapshot the write log never "
            f"produced: {sorted(states)}"
        )
        observed.add(stamp)
        if stamp not in references:
            references[stamp] = CompactDatabase(
                graph, NodePointSet(states[stamp])
            )
        expected = _direct_answer(references[stamp], payload)
        got = response.get("points", response.get("neighbors"))
        assert got == expected, (payload, stamp, got, expected)

    assert len(observed) >= 2, f"race never caught a moving stamp: {observed}"
    # Writes never drained readers: the only drain points are the two
    # forced compactions.
    compactions = sum(1 for kind, *_ in write_log if kind == "compact")
    assert metrics["compactions"] == compactions
    assert metrics["drains"] == compactions
    assert metrics["generation"] == mutation_count


class TestOverlayServeSurface:
    def test_query_and_mutation_responses_carry_stamps(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                q0 = client.rknn(5, k=2)
                ins = client.insert(700, free_nodes(*build_inputs(), 1)[0])
                q1 = client.rknn(5, k=2)
        assert (q0["base_generation"], q0["delta_epoch"]) == (0, 0)
        assert (ins["base_generation"], ins["delta_epoch"]) == (0, 1)
        assert (q1["base_generation"], q1["delta_epoch"]) == (0, 1)
        assert q1["generation"] == 1

    def test_compact_op_folds_and_restamps(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                before = client.rknn(5, k=2)
                client.insert(700, free_nodes(*build_inputs(), 1)[0])
                client.delete(700)
                folded = client.compact()
                after = client.rknn(5, k=2)
                empty = client.compact()
                metrics = client.metrics()
                health = client.healthz()
        assert folded["folded"] == 2
        assert (folded["base_generation"], folded["delta_epoch"]) == (1, 0)
        assert folded["generation"] == 2
        assert after["points"] == before["points"]  # fold changed nothing
        assert (after["base_generation"], after["delta_epoch"]) == (1, 0)
        assert empty["folded"] == 0  # idempotent on an empty log
        assert metrics["compactions"] == 2
        assert metrics["drains"] == 2  # compaction is the only drain
        assert metrics["base_generation"] == 1
        assert health["base_generation"] == 1

    def test_point_mutations_never_drain(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                node = free_nodes(*build_inputs(), 1)[0]
                client.insert(700, node)
                client.delete(700)
                metrics = client.metrics()
        assert metrics["generation"] == 2
        assert metrics["drains"] == 0

    def test_pipelined_writes_keep_connection_order(self, db, inputs):
        """A write pipelined behind a query waits for that query's
        answer, and a query behind the write observes it."""
        graph, placement = inputs
        reference = build_db("compact", graph, placement)
        target = free_nodes(graph, placement, 1)[0]
        burst = [
            {"op": "query", "kind": "knn", "query": target, "k": 1},
            {"op": "insert", "pid": 500, "location": target},
            {"op": "query", "kind": "knn", "query": target, "k": 1},
            {"op": "delete", "pid": 500},
            {"op": "query", "kind": "knn", "query": target, "k": 1},
        ]
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                responses = client.pipeline(burst)
        before, _, mid, _, after = responses
        assert [r["generation"] for r in responses] == [0, 1, 1, 2, 2]
        assert mid["neighbors"][0][0] == 500
        direct = [[p, d] for p, d in reference.knn(target, 1).neighbors]
        assert before["neighbors"] == direct
        assert after["neighbors"] == direct

    def test_compact_rejected_on_generation_swap_backends(self, inputs):
        graph, placement = inputs
        disk = build_db("disk", graph, placement)
        with serve_in_thread(disk) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.compact()
                q = client.rknn(5, k=2)
        assert response["status"] == "error"
        assert "delta-overlay" in response["error"]
        assert "base_generation" not in q  # no stamps outside overlay mode
