"""RknnServer: protocol surface, batching, backpressure, generation swap."""

import json
import threading
import time

import pytest

from repro.api import GraphDatabase
from repro.obs import SlowQueryLog, parse_prometheus_text
from repro.points.points import NodePointSet
from repro.serve import ServeClient, http_get, http_get_text, serve_in_thread

from tests.serve.conftest import a_route, build_db, build_inputs, free_nodes


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


@pytest.fixture
def db(inputs):
    graph, placement = inputs
    return build_db("disk", graph, placement)


@pytest.fixture
def reference(inputs):
    graph, placement = inputs
    return build_db("disk", graph, placement)


class TestQueries:
    def test_rknn_matches_direct_call(self, db, reference):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.rknn(5, k=2)
        direct = reference.rknn(5, 2, method="eager")
        assert response["status"] == "ok"
        assert response["generation"] == 0
        assert response["points"] == list(direct.points)

    def test_knn_serializes_exact_distances(self, db, reference):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.knn(7, k=3)
        direct = reference.knn(7, 3)
        assert response["neighbors"] == [[p, d] for p, d in direct.neighbors]

    def test_range_and_continuous_kinds(self, db, reference, inputs):
        graph, _ = inputs
        route = a_route(graph)
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                ranged = client.query("range", 5, k=2, radius=9.0)
                cont = client.query("continuous", route=route, k=1,
                                    method="eager")
        assert ranged["neighbors"] == [
            [p, d] for p, d in reference.range_nn(5, 2, 9.0).neighbors
        ]
        assert cont["points"] == list(
            reference.continuous_rknn(route, 1, method="eager").points
        )

    def test_pipelined_queries_coalesce(self, db):
        with serve_in_thread(db, window=0.02, max_batch=64) as handle:
            with ServeClient(handle.host, handle.port) as client:
                requests = [{"op": "query", "kind": "rknn", "query": q, "k": 1}
                            for q in range(12)]
                responses = client.pipeline(requests)
                metrics = client.metrics()
        assert all(r["status"] == "ok" for r in responses)
        assert metrics["admission"]["batches"] < 12  # requests shared batches
        assert metrics["admission"]["coalesced"] > 0

    def test_request_id_is_echoed(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.request(
                    {"op": "query", "kind": "knn", "query": 3, "id": "req-7"}
                )
        assert response["id"] == "req-7"


class TestErrors:
    def test_bad_request_keeps_connection_usable(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                bad = client.request({"op": "query", "kind": "walk", "query": 1})
                assert bad["status"] == "error"
                assert "walk" in bad["error"]
                good = client.rknn(5, k=1)
                assert good["status"] == "ok"

    def test_malformed_json_is_an_error_response(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client._file.write(b"this is not json\n")
                client._file.flush()
                response = client.recv()
        assert response["status"] == "error"

    def test_unknown_op_is_an_error(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.request({"op": "reboot"})
        assert response["status"] == "error"
        assert "reboot" in response["error"]

    def test_out_of_range_query_is_an_error(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.rknn(10_000, k=1)
        assert response["status"] == "error"

    def test_bad_query_cannot_fail_its_coalesced_neighbors(self, db,
                                                           reference):
        """One tenant's out-of-range query must not error the valid
        queries sharing its coalescing window."""
        with serve_in_thread(db, window=0.05, max_batch=8) as handle:
            with ServeClient(handle.host, handle.port) as client:
                bad, good = client.pipeline([
                    {"op": "query", "kind": "rknn", "query": 10_000, "k": 1},
                    {"op": "query", "kind": "rknn", "query": 5, "k": 2},
                ])
        assert bad["status"] == "error"
        assert good["status"] == "ok"
        assert good["points"] == list(reference.rknn(5, 2,
                                                     method="eager").points)


class TestBackpressure:
    def test_overload_sheds_with_explicit_response(self, db):
        with serve_in_thread(db, window=0.05, max_batch=64,
                             max_queue=2) as handle:
            with ServeClient(handle.host, handle.port) as client:
                requests = [{"op": "query", "kind": "rknn", "query": q, "k": 1}
                            for q in range(10)]
                responses = client.pipeline(requests)
                metrics = client.metrics()
        statuses = [r["status"] for r in responses]
        assert statuses.count("overloaded") >= 1
        assert statuses.count("ok") >= 2
        assert all(s in ("ok", "overloaded") for s in statuses)
        shed = [r for r in responses if r["status"] == "overloaded"]
        assert all(r["retry"] for r in shed)
        assert metrics["admission"]["shed"] == len(shed)


class TestMutationsAndGenerations:
    def test_mutations_bump_generation(self, db, inputs):
        graph, placement = inputs
        target = free_nodes(graph, placement, 1)[0]
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                inserted = client.insert(500, target)
                assert inserted["status"] == "ok"
                assert inserted["generation"] == 1
                deleted = client.delete(500)
                assert deleted["generation"] == 2
                query = client.rknn(5, k=1)
                assert query["generation"] == 2

    def test_insert_changes_answers_and_is_visible(self, db, reference, inputs):
        graph, placement = inputs
        target = free_nodes(graph, placement, 1)[0]
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                before = client.knn(target, k=1)
                client.insert(500, target)
                after = client.knn(target, k=1)
        reference.insert_point(500, target)
        assert after["neighbors"][0][0] == 500
        assert after["neighbors"] == [
            [p, d] for p, d in reference.knn(target, 1).neighbors
        ]
        assert before["generation"] == 0 and after["generation"] == 1

    def test_pipelined_mutation_barriers_later_requests(self, db, reference,
                                                        inputs):
        """Read-your-writes: a query pipelined behind an insert on the
        same connection must observe the bumped generation."""
        graph, placement = inputs
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
                before, ins, mid, del_, after = client.pipeline(burst)
        assert [r["generation"] for r in (before, ins, mid, del_, after)] \
            == [0, 1, 1, 2, 2]
        assert mid["neighbors"][0][0] == 500   # insert visible
        assert after["neighbors"] == before["neighbors"]  # delete visible
        assert before["neighbors"] == [
            [p, d] for p, d in reference.knn(target, 1).neighbors
        ]

    def test_duplicate_insert_is_a_clean_error(self, db, inputs):
        _, placement = inputs
        taken = next(iter(placement.values()))
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.insert(501, taken)
        assert response["status"] == "error"

    def test_out_of_range_insert_is_a_clean_error(self, inputs):
        graph, placement = inputs
        compact = build_db("compact", graph, placement)
        reference = build_db("compact", graph, placement)
        with serve_in_thread(compact) as handle:
            with ServeClient(handle.host, handle.port) as client:
                response = client.insert(501, graph.num_nodes + 10)
                after = client.rknn(5, k=2)
        assert response["status"] == "error"
        assert "unknown node" in response["error"]
        assert after["delta_epoch"] == 0
        assert after["points"] == list(reference.rknn(5, 2).points)


class TestSubscriptions:
    def test_membership_events_are_pushed(self, db, inputs):
        graph, placement = inputs
        target = free_nodes(graph, placement, 1)[0]
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as subscriber, \
                    ServeClient(handle.host, handle.port) as mutator:
                ack = subscriber.subscribe({0: target}, k=1)
                assert ack["status"] == "ok"
                assert ack["subscribed"] == [0]
                mutator.insert(502, target)
                joined = subscriber.recv()
                mutator.delete(502)
                left = subscriber.recv()
        assert joined == {"event": "membership", "generation": 1,
                          "query_id": 0, "point_id": 502, "kind": "join"}
        assert left["kind"] == "leave" and left["generation"] == 2

    def test_membership_events_on_the_compact_backend(self, inputs):
        graph, placement = inputs
        compact = build_db("compact", graph, placement)
        target = free_nodes(graph, placement, 1)[0]
        with serve_in_thread(compact) as handle:
            with ServeClient(handle.host, handle.port) as subscriber, \
                    ServeClient(handle.host, handle.port) as mutator:
                assert subscriber.subscribe({0: target}, k=1)["status"] \
                    == "ok"
                mutator.insert(502, target)
                joined = subscriber.recv()
                mutator.delete(502)
                left = subscriber.recv()
        assert joined == {"event": "membership", "generation": 1,
                          "query_id": 0, "point_id": 502, "kind": "join"}
        assert left == {"event": "membership", "generation": 2,
                        "query_id": 0, "point_id": 502, "kind": "leave"}

    def test_interleaved_events_do_not_desync_pipelining(self, db, inputs):
        """Events pushed to a subscribed connection must not consume
        the response slots of requests pipelined on it."""
        graph, placement = inputs
        target = free_nodes(graph, placement, 1)[0]
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                ack = client.subscribe({0: target}, k=1)
                assert ack["status"] == "ok"
                responses = client.pipeline([
                    {"op": "insert", "pid": 502, "location": target},
                    {"op": "query", "kind": "knn", "query": target, "k": 1},
                    {"op": "delete", "pid": 502},
                ])
        assert [r["status"] for r in responses] == ["ok"] * 3
        assert responses[1]["neighbors"][0][0] == 502
        assert [(e["kind"], e["point_id"]) for e in client.events] \
            == [("join", 502), ("leave", 502)]

    def test_subscribe_ack_carries_initial_results(self, db, reference):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                ack = client.subscribe({0: 5, 1: 9}, k=1)
        monitor_expected = reference.rknn(5, 1, method="eager")
        assert ack["results"]["0"] == list(monitor_expected.points)


class TestIntrospection:
    def test_metrics_surface_counters_and_cache(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.rknn(5, k=2)
                client.rknn(5, k=2)  # second call hits the result cache
                metrics = client.metrics()
        assert metrics["queries_served"] == 2
        assert metrics["cache"]["hits"] >= 1
        assert metrics["counters"]["edges_expanded"] > 0
        assert metrics["backend"] == "disk"
        assert metrics["queue_depth"] == 0

    def test_healthz_over_protocol_and_http(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                health = client.healthz()
            http_health = http_get(handle.host, handle.port, "/healthz")
            http_metrics = http_get(handle.host, handle.port, "/metrics")
        assert health["status"] == "ok"
        assert http_health["generation"] == health["generation"]
        assert "counters" in http_metrics

    def test_http_head_answers_headers_only(self, db):
        import socket

        with serve_in_thread(db) as handle:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=10) as sock:
                sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
        header, _, body = data.partition(b"\r\n\r\n")
        assert b"200 OK" in header and b"Content-Length" in header
        assert body == b""

    def test_http_unknown_path_is_404(self, db):
        with serve_in_thread(db) as handle:
            with pytest.raises(ConnectionError, match="404"):
                http_get(handle.host, handle.port, "/nope")


class TestObservability:
    def test_prometheus_exposition_parses(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.rknn(5, k=2)
            text = http_get_text(handle.host, handle.port,
                                 "/metrics?format=prometheus")
        samples = parse_prometheus_text(text)
        assert samples["repro_queries_served_total"] == 1.0
        assert samples["repro_edges_expanded_total"] > 0.0
        inf_key = 'repro_batch_seconds_bucket{le="+Inf"}'
        assert samples[inf_key] == samples["repro_batch_seconds_count"]

    def test_traced_query_carries_span_tree(self, db, reference):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                body = client.request({"op": "query", "kind": "rknn",
                                       "query": 9, "k": 2,
                                       "method": "eager", "trace": True})
                plain = client.rknn(9, k=2)
        assert body["status"] == "ok"
        assert body["points"] == list(reference.rknn(9, 2).points)
        names = {span["name"] for span in body["trace"]["spans"]}
        assert {"engine.run_batch", "execute.rknn"} <= names
        assert "trace" not in plain  # untraced requests stay trace-free

    def test_explain_statement_answers_plan_and_trace(self, db, reference):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                body = client.request({
                    "op": "query",
                    "statement":
                        "EXPLAIN SELECT * FROM rknn(query=5, k=2)",
                })
        assert body["status"] == "ok"
        assert body["explain"] is True
        assert body["plan"]["backend"] == "disk"
        assert body["points"] == list(reference.rknn(5, 2).points)
        names = {span["name"] for span in body["trace"]["spans"]}
        assert "execute.rknn" in names

    def test_statement_refuses_spec_fields(self, db):
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                body = client.request({
                    "op": "query", "kind": "rknn", "query": 5, "k": 2,
                    "statement": "SELECT * FROM rknn(query=5, k=2)",
                })
        assert body["status"] == "error"
        assert "no spec fields" in body["error"]

    def test_slow_query_log_records_served_queries(self, db, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path, threshold_ms=0.0)
        with serve_in_thread(db, slow_log=log) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.rknn(5, k=2)
        assert log.recorded == 1
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["kind"] == "rknn"
        assert entry["query"] == 5
        assert entry["backend"] == "disk"


class TestConcurrentMixedWorkload:
    def test_no_response_mixes_generations(self, inputs):
        """Queries racing mutations: every answer matches a direct
        facade call at the generation the response claims."""
        graph, placement = inputs
        db = build_db("disk", graph, placement)
        targets = free_nodes(graph, placement, 4)
        mutations = [("insert", 600 + i, node) for i, node in enumerate(targets)]
        mutations += [("delete", 600 + i, None) for i in range(2)]
        query_nodes = list(range(0, 40, 3))
        responses = []

        with serve_in_thread(db, window=0.002, max_batch=8) as handle:
            stop = threading.Event()

            def hammer():
                with ServeClient(handle.host, handle.port) as client:
                    while not stop.is_set():
                        for node in query_nodes:
                            responses.append(
                                (node, client.rknn(node, k=2))
                            )

            thread = threading.Thread(target=hammer)
            thread.start()
            with ServeClient(handle.host, handle.port) as mutator:
                for op, pid, node in mutations:
                    # let the query stream make progress at this
                    # generation before swapping to the next one
                    watermark = len(responses) + 3
                    deadline = time.monotonic() + 10
                    while (len(responses) < watermark
                           and time.monotonic() < deadline):
                        time.sleep(0.001)
                    if op == "insert":
                        assert mutator.insert(pid, node)["status"] == "ok"
                    else:
                        assert mutator.delete(pid)["status"] == "ok"
            stop.set()
            thread.join(timeout=30)

        assert responses, "the query thread never completed a request"
        # rebuild the point set at every generation and demand equality
        references = {}
        placement_now = dict(placement)
        references[0] = GraphDatabase(graph, NodePointSet(dict(placement_now)))
        for generation, (op, pid, node) in enumerate(mutations, start=1):
            if op == "insert":
                placement_now[pid] = node
            else:
                del placement_now[pid]
            references[generation] = GraphDatabase(
                graph, NodePointSet(dict(placement_now))
            )
        seen_generations = set()
        for node, response in responses:
            assert response["status"] == "ok"
            generation = response["generation"]
            seen_generations.add(generation)
            expected = references[generation].rknn(node, 2, method="eager")
            assert response["points"] == list(expected.points), (
                f"node {node} at generation {generation}"
            )
        assert len(seen_generations) > 1, "workload never raced a mutation"


class TestLifecycle:
    def test_request_stop_before_start_is_not_lost(self, db):
        """A stop requested before start() has created the event loop
        must be honored the moment the server starts (the pre-start
        race: a supervisor shutting down while boot is in flight)."""
        import asyncio

        from repro.serve.server import RknnServer

        server = RknnServer(db)
        server.request_stop()  # no loop, no stop event yet

        async def boot():
            # run() binds, then serve_until_stopped() must return at
            # once instead of waiting forever on the stop event
            await asyncio.wait_for(server.run("127.0.0.1", 0), timeout=10)

        asyncio.run(boot())

    def test_request_stop_from_another_thread_after_start(self, db):
        """The existing post-start path keeps working: request_stop()
        from a foreign thread stops a running server."""
        with serve_in_thread(db) as handle:
            with ServeClient(handle.host, handle.port) as client:
                assert client.healthz()["status"] == "ok"
        # serve_in_thread's exit path is itself a cross-thread
        # request_stop(); reaching this line means it returned

    def test_busy_port_raises_the_bind_error_at_once(self, db):
        """A server that cannot bind re-raises its own OSError instead
        of waiting out the start timeout."""
        import socket

        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            began = time.perf_counter()
            with pytest.raises(OSError):
                with serve_in_thread(db, port=busy.getsockname()[1]):
                    pass
            assert time.perf_counter() - began < 5.0

    def test_stop_with_an_open_connection_logs_no_cancellation(
            self, db, caplog):
        """Leaving the block while a client socket is still open closes
        the connection: its handler returns instead of being cancelled
        (which asyncio would log as an error)."""
        import socket

        caplog.set_level("ERROR", logger="asyncio")
        with serve_in_thread(db) as handle:
            sock = socket.create_connection((handle.host, handle.port))
            sock.sendall(b'{"op": "query", "kind": "knn", '
                         b'"query": 3, "k": 1}\n')
            reply = sock.makefile("rb").readline()
            assert json.loads(reply)["status"] == "ok"
        sock.close()
        assert [record for record in caplog.records
                if record.name == "asyncio"] == []
