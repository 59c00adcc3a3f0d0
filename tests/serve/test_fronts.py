"""One serving front: the in-process server and the fleet differ only in
their lanes.

Both fronts share admission, routing, the write path and the metrics
vocabulary, so ``/metrics``, ``/healthz`` and the Prometheus
exposition carry the same keys and series on either (the in-process
server adds its engine's ``cache`` and cost ``counters``), ``compact``
fences every batcher and counts a drain on both, and concurrent
writers on separate connections keep every lane at one stamp.
"""

import threading

import pytest

from repro.compact import CompactDatabase
from repro.obs import parse_prometheus_text
from repro.points.points import NodePointSet
from repro.serve import (ServeClient, fleet_in_thread, http_get,
                         http_get_text, serve_in_thread)

from tests.serve.conftest import build_inputs, free_nodes

IN_PROCESS_ONLY = {"cache", "counters"}


@pytest.fixture(scope="module")
def inputs():
    return build_inputs()


def build_compact(inputs):
    graph, placement = inputs
    return CompactDatabase(graph, NodePointSet(dict(placement)))


def series_names(text: str) -> set[str]:
    """Exposition series names, histogram labels stripped."""
    return {name.split("{")[0] for name in parse_prometheus_text(text)}


def surfaces(handle) -> tuple[dict, dict, str]:
    """JSON ``/metrics``, ``/healthz`` and the exposition of a front."""
    return (http_get(handle.host, handle.port, "/metrics"),
            http_get(handle.host, handle.port, "/healthz"),
            http_get_text(handle.host, handle.port,
                          "/metrics?format=prometheus"))


def test_fronts_share_metrics_and_health_vocabulary(inputs):
    db = build_compact(inputs)
    fronts = {}
    with serve_in_thread(db, window=0.001) as handle:
        with ServeClient(handle.host, handle.port) as client:
            assert client.rknn(3, k=1)["status"] == "ok"
        fronts["single"] = surfaces(handle)
    with fleet_in_thread(db, workers=1, window=0.001) as handle:
        with ServeClient(handle.host, handle.port) as client:
            assert client.rknn(3, k=1)["status"] == "ok"
        fronts["fleet"] = surfaces(handle)
    (single, single_health, single_text) = fronts["single"]
    (fleet, fleet_health, fleet_text) = fronts["fleet"]
    assert set(single) - IN_PROCESS_ONLY == set(fleet)
    assert IN_PROCESS_ONLY <= set(single)
    assert set(single_health) == set(fleet_health)
    assert series_names(fleet_text) <= series_names(single_text)


def test_in_process_metrics_report_one_lane(inputs):
    db = build_compact(inputs)
    with serve_in_thread(db) as handle:
        metrics, health, text = surfaces(handle)
    assert metrics["mode"] == "single"
    assert metrics["workers"] == metrics["live_workers"] == 1
    assert metrics["worker_deaths"] == metrics["reroutes"] == 0
    assert (health["workers"], health["live_workers"]) == (1, 1)
    samples = parse_prometheus_text(text)
    assert samples["repro_live_workers"] == 1.0
    assert samples["repro_worker_deaths_total"] == 0.0


def test_fleet_compact_fences_and_counts_a_drain(inputs):
    graph, placement = inputs
    db = build_compact(inputs)
    node = free_nodes(graph, placement, 1)[0]
    with fleet_in_thread(db, workers=2, window=0.001) as handle:
        with ServeClient(handle.host, handle.port) as client:
            assert client.insert(max(placement) + 1, node)["status"] == "ok"
            assert client.request({"op": "compact"})["status"] == "ok"
        metrics, _, text = surfaces(handle)
    assert metrics["drains"] == metrics["compactions"] == 1
    assert parse_prometheus_text(text)["repro_drains_total"] == 1.0


WRITERS = 2
WRITES_EACH = 20


@pytest.mark.parametrize("front", ["single", "fleet"])
def test_concurrent_writers_keep_every_lane_in_step(inputs, front):
    graph, placement = inputs
    db = build_compact(inputs)
    nodes = free_nodes(graph, placement, WRITERS * WRITES_EACH)
    base_pid = max(placement) + 1
    boot = (serve_in_thread(db, window=0.001) if front == "single"
            else fleet_in_thread(db, workers=2, window=0.001))
    with boot as handle:
        start = threading.Barrier(WRITERS)
        responses: dict[int, list[dict]] = {}

        def writer(index: int) -> None:
            payloads = [
                {"op": "insert", "pid": base_pid + index * WRITES_EACH + i,
                 "location": nodes[index * WRITES_EACH + i]}
                for i in range(WRITES_EACH)
            ]
            with ServeClient(handle.host, handle.port) as client:
                start.wait(timeout=10)
                responses[index] = client.pipeline(payloads)

        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

        bodies = [body for index in range(WRITERS)
                  for body in responses[index]]
        assert [body["status"] for body in bodies] == ["ok"] * len(bodies)
        # every write got its own epoch, in each connection's order
        for index in range(WRITERS):
            epochs = [body["delta_epoch"] for body in responses[index]]
            assert epochs == sorted(epochs)
        assert sorted(body["delta_epoch"] for body in bodies) == list(
            range(1, WRITERS * WRITES_EACH + 1))
        assert {body["base_generation"] for body in bodies} == {0}

        # every node, so every worker answers on its home nodes
        final = (0, WRITERS * WRITES_EACH)
        with ServeClient(handle.host, handle.port) as client:
            answers = client.pipeline([
                {"op": "query", "kind": "rknn", "query": node, "k": 1}
                for node in range(graph.num_nodes)
            ])
            metrics = client.metrics()
        for body in answers:
            assert body["status"] == "ok"
            assert (body["base_generation"], body["delta_epoch"]) == final
        assert (metrics["base_generation"], metrics["delta_epoch"]) == final
        assert metrics["mutations_applied"] == WRITERS * WRITES_EACH
        assert metrics["errors"] == 0
