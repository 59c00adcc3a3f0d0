"""Dispatch routing on a road network: the shortest-path substrate.

A courier depot answers two kinds of distance questions all day:

* *ad hoc* point-to-point routes ("how do I drive to this address?"),
  best served by guided search -- A* under Euclidean bounds when the
  map's weights are distances, ALT landmarks when they are travel
  times (where Euclidean bounds would be invalid, the paper's
  Section 2.2 caveat);
* *bulk* distance lookups ("which of my 40 parcels is closest to the
  van right now?"), best served by HEPV-style partial materialization
  -- far less storage than a full distance matrix, far less work per
  query than repeated Dijkstra.

This script runs both workloads over one generated city and prints the
work counters side by side; and because the traveler also wants the
nearest fuel stop at every leg, it closes with an in-route NN query
([16]) along the chosen route.

Run with:  python examples/logistics_routing.py
"""

import random

from repro import GraphDatabase
from repro.core.in_route import in_route_nn_ids
from repro.datasets.spatial import generate_spatial
from repro.datasets.workload import place_node_points
from repro.hier.hepv import HierarchicalDistanceIndex
from repro.paths.astar import astar_path, euclidean_heuristic
from repro.paths.bidirectional import bidirectional_search
from repro.paths.dijkstra import shortest_path
from repro.paths.landmarks import LandmarkIndex

NUM_NODES = 2_000
FUEL_DENSITY = 0.01
BULK_LOOKUPS = 30


def main() -> None:
    rng = random.Random(6)
    print(f"generating a {NUM_NODES}-junction city...")
    city = generate_spatial(NUM_NODES, seed=8)
    depot, customer = rng.sample(range(city.num_nodes), 2)
    print(f"  depot at junction {depot}, customer at junction {customer}")

    # -- one ad hoc route, four engines ---------------------------------------
    print("\nad hoc route (same distance, different work):")
    plain = shortest_path(city, depot, customer)
    print(f"  dijkstra      settled {plain.nodes_settled:5d} nodes, "
          f"distance {plain.distance:,.0f}m over {plain.hops} segments")
    guided = astar_path(city, depot, customer,
                        euclidean_heuristic(city.coords, customer))
    print(f"  a* euclidean  settled {guided.nodes_settled:5d} nodes "
          "(valid: weights are road lengths)")
    landmarks = LandmarkIndex.build(city, city.num_nodes, count=6, seed=1)
    alt = astar_path(city, depot, customer, landmarks.heuristic(customer))
    print(f"  a* landmarks  settled {alt.nodes_settled:5d} nodes "
          "(valid on any weights; needs preprocessing)")
    both = bidirectional_search(city, depot, customer)
    print(f"  bidirectional settled {both.nodes_settled:5d} nodes "
          "(no assumptions, no preprocessing)")
    assert guided.distance == alt.distance == plain.distance

    # -- bulk lookups: partial materialization ----------------------------------
    print(f"\nbulk workload: {BULK_LOOKUPS} parcel-distance lookups")
    index = HierarchicalDistanceIndex.build(city, fragment_size=32)
    full = HierarchicalDistanceIndex.full_materialization_entries(city.num_nodes)
    print(f"  hepv index: {index.storage_entries:,} stored distances "
          f"(full matrix would be {full:,})")
    parcels = rng.sample(range(city.num_nodes), BULK_LOOKUPS)
    flat_settled = 0
    for parcel in parcels:
        flat_settled += shortest_path(city, depot, parcel).nodes_settled
    for parcel in parcels:
        index.distance(depot, parcel)
    nearest = min(parcels, key=lambda parcel: index.distance(depot, parcel))
    print(f"  flat dijkstra settled {flat_settled:,} nodes total; hepv "
          f"settled {index.stats.super_settled:,} super-graph nodes")
    print(f"  nearest parcel: junction {nearest} "
          f"({index.distance(depot, nearest):,.0f}m)")

    # -- fuel stops along the chosen route ([16]) --------------------------------
    stations = place_node_points(city, FUEL_DENSITY, seed=9, first_id=700)
    db = GraphDatabase(city, stations, node_order="hilbert")
    stops = in_route_nn_ids(db.view, guided.nodes, k=1)
    changes = [
        (node, ids) for i, (node, ids) in enumerate(stops)
        if i == 0 or ids != stops[i - 1][1]
    ]
    print(f"\nnearest fuel stop along the {len(guided.nodes)}-junction route "
          "(changes only):")
    for node, ids in changes:
        label = ", ".join(f"station {pid}" for pid in sorted(ids)) or "none"
        print(f"  from junction {node:5d}: {label}")


if __name__ == "__main__":
    main()
