"""Online serving: micro-batched RkNN traffic over TCP, with live updates.

A ride-hailing dispatcher keeps a fleet's "which drivers consider this
pickup spot their nearest" (RkNN) queries hot while drivers join and
leave the map.  This example boots the serving tier (`repro.serve`)
over a grid network on a background thread and drives it the way a
fleet of clients would:

1. a pipelined burst of popular queries the micro-batcher coalesces
   into shared engine batches,
2. a driver joining mid-stream — the mutation applies between
   batches and bumps the generation every later response pins,
3. a standing-query subscription receiving `join`/`leave` membership
   events pushed by the server,
4. the `/metrics` counters a load balancer would scrape.

Run with:  python examples/serve_load.py
"""

import random
import time

from repro import GraphDatabase, ServeClient, serve_in_thread
from repro.datasets.grid import generate_grid
from repro.datasets.workload import place_node_points


def main() -> None:
    graph = generate_grid(400, average_degree=4.0, seed=0)
    points = place_node_points(graph, 0.1, seed=1)
    db = GraphDatabase(graph, points)

    rng = random.Random(2)
    popular = [
        {"op": "query", "kind": "rknn", "query": rng.randrange(400), "k": 2,
         "method": "eager"}
        for _ in range(20)
    ] + [
        {"op": "query", "kind": "knn", "query": rng.randrange(400), "k": 2}
        for _ in range(5)
    ]
    burst = popular * 4
    rng.shuffle(burst)

    with serve_in_thread(db, window=0.002, max_batch=32) as handle:
        print(f"serving on {handle.host}:{handle.port}")
        with ServeClient(handle.host, handle.port) as client:
            start = time.perf_counter()
            responses = client.pipeline(burst)
            elapsed = time.perf_counter() - start
            ok = sum(1 for r in responses if r["status"] == "ok")
            print(f"burst: {ok}/{len(burst)} ok in {elapsed:.3f} s "
                  f"({len(burst) / elapsed:.0f} requests/s pipelined)")

            # a driver joins: every later response pins the new generation
            free_node = next(n for n in range(graph.num_nodes)
                             if points.point_at(n) is None)
            before = responses[-1]["generation"]
            applied = client.insert(9_000, free_node)
            print(f"insert applied: generation {before} -> "
                  f"{applied['generation']}")
            after = client.rknn(free_node, k=1)
            assert after["generation"] == applied["generation"]

            # a standing query watches the new driver's node
            with ServeClient(handle.host, handle.port) as subscriber:
                ack = subscriber.subscribe({0: free_node}, k=1)
                print(f"subscribed to RkNN({free_node}): "
                      f"initially {ack['results']['0']}")
                client.delete(9_000)
                event = subscriber.recv()
                print(f"membership event: point {event['point_id']} "
                      f"{event['kind']}s at generation "
                      f"{event['generation']}")

            metrics = client.metrics()
            admission = metrics["admission"]
            print(f"metrics: {metrics['queries_served']} served in "
                  f"{admission['batches']} batches "
                  f"({admission['coalesced']} coalesced), "
                  f"{metrics['cache']['hits']} cache hits, "
                  f"{metrics['mutations_applied']} mutations, "
                  f"generation {metrics['generation']}")


if __name__ == "__main__":
    main()
