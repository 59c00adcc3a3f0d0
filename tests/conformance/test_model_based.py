"""Model-based tests: every facade against a brute-force reference.

Three hypothesis state machines drive random mutation scripts and
check every read against the exhaustive references in
:mod:`repro.core.baseline` and
:func:`repro.core.directed.brute_force_directed_rknn`, which work on
the in-memory graph alone and share no code with the storage stacks:

* :class:`UndirectedFacades` keeps the disk, sharded (two shards),
  compact and oracle-equipped compact databases in lockstep on one
  random connected graph -- point inserts and deletes,
  ``materialize`` and ``attach_reference`` -- and checks ``rknn``
  under all four methods, ``continuous_rknn``, ``bichromatic_rknn``,
  ``knn``, ``range_nn`` and ``aggregate_nn`` (direct, and batched
  through the engine, which runs the compact batch kernel) against
  brute force, plus one qlang script with ``topk_influence`` and
  ``aggregate_nn`` across the four.
* :class:`CompactOverlay` appends point and edge mutations to one
  oracle-equipped compact database, compacts at random, and checks
  ``at_epoch(e)`` for a drawn ``e`` against brute force on the model's
  state at ``e``, and ``batch_rknn`` against brute force at the head.
* :class:`DirectedFacades` keeps the three directed databases in
  lockstep under point inserts, deletes and ``materialize``: ``rknn``
  (eager, eager-m, naive) and ``aggregate_nn`` over forward distances
  are checked against brute force, ``knn`` and ``range_nn`` must agree
  across the three.
* :class:`EdgeFacade` drives a disk database whose points lie on edges
  (an unrestricted network) through edge-point inserts and deletes,
  ``materialize`` and ``attach_reference``, and checks ``rknn`` under
  all four methods, ``continuous_rknn``, bichromatic ``eager``, ``knn``
  and ``range_nn`` against brute force, at nodes and at edge locations.
  Two fixed scripts pin the eager-M defects on edge points it found,
  which it draws only at far more examples than :data:`SETTINGS` runs.

Weights are integers and edge offsets multiples of 0.5, so every path
sum is exact and distances compare with ``==``.
"""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    DirectedGraphDatabase,
    EdgePointSet,
    GraphDatabase,
    NodePointSet,
    QuerySpec,
    ShardedDatabase,
    ShardedDirectedDatabase,
)
from repro.core.baseline import (
    brute_force_brknn,
    brute_force_knn,
    brute_force_rknn,
    dijkstra,
)
from repro.core.directed import brute_force_directed_rknn
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph, edge_key
from tests.conftest import build_random_graph

SETTINGS = dict(
    max_examples=75,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(min_value=0, max_value=2**16)
#: Index draws, reduced modulo the size of whatever they pick from.
PICKS = st.integers(min_value=0, max_value=2**10)
KS = st.integers(min_value=1, max_value=3)


def _pick(items, index):
    """The ``index``-th of ``items`` (modulo their count), in sorted order."""
    ordered = sorted(items)
    return ordered[index % len(ordered)]


def _with_eager_m(k, capacity, methods):
    """``methods`` plus eager-m when lists of ``capacity >= k`` exist."""
    return methods + (("eager-m",) if capacity and k <= capacity else ())


class _ArcsOut:
    """A directed graph seen through ``neighbors``: its out-arcs."""

    def __init__(self, graph):
        self.neighbors = graph.out_neighbors


def _aggregate_specs(seed, num_nodes, k):
    """A sum and a max ``aggregate_nn`` spec over one to three members,
    drawn with repeats."""
    rng = random.Random(seed)
    group = tuple(rng.randrange(num_nodes) for _ in range(rng.randint(1, 3)))
    return [QuerySpec("aggregate_nn", group=group, k=k, agg=agg)
            for agg in ("sum", "max")]


def _brute_aggregate(graph, points, spec):
    """Rank every point all members reach by ``(aggregate, pid)``."""
    dists = [dijkstra(graph, [(member, 0.0)]) for member in spec.group]
    chooser = sum if spec.agg == "sum" else max
    scored = sorted(
        (chooser([dist[node] for dist in dists]), pid)
        for pid, node in points.items()
        if all(node in dist for dist in dists)
    )
    return tuple((pid, value) for value, pid in scored[:spec.k])


def _check_aggregates(dbs, specs, expected):
    """Each facade answers ``specs`` like brute force, one call per
    spec and as one engine batch."""
    for name, db in dbs.items():
        for spec, want in zip(specs, expected):
            got = db.aggregate_nn(spec.group, spec.k, spec.agg).neighbors
            assert got == want, (name, spec)
        batched = [result.neighbors
                   for result in db.engine().run_batch(specs).results]
        assert batched == expected, (name, "batch", specs)


def _check_ranked(got, expected_dists, true_dist, label):
    """``got`` lists the right distances, each true for its point.

    Points tied at the k-th distance may be chosen differently by the
    facades and by brute force, so the check compares the distance
    sequence and each returned point's own distance, not the ids.
    """
    assert [dist for _, dist in got] == expected_dists, label
    assert len({pid for pid, _ in got}) == len(got), label
    for pid, dist in got:
        assert true_dist[pid] == dist, label


class UndirectedFacades(RuleBasedStateMachine):
    """Disk, sharded, compact and compact+oracle in lockstep."""

    @initialize(seed=SEEDS)
    def build(self, seed):
        rng = random.Random(seed)
        self.num_nodes = rng.randint(12, 22)
        self.graph = build_random_graph(
            rng, self.num_nodes, self.num_nodes // 2, int_weights=True
        )
        self.points = {
            pid: node for pid, node in
            enumerate(rng.sample(range(self.num_nodes), rng.randint(4, 7)))
        }
        self.next_pid = 100
        self.reference = None
        self.capacity = None
        self.ref_capacity = None
        points = NodePointSet(self.points)
        oracle = CompactDatabase(self.graph, points)
        oracle.build_oracle(3, seed=seed)
        self.dbs = {
            "disk": GraphDatabase(self.graph, points),
            "sharded": ShardedDatabase(self.graph, points, num_shards=2),
            "compact": CompactDatabase(self.graph, points),
            "compact+oracle": oracle,
        }

    # -- mutations ------------------------------------------------------

    @precondition(lambda self: len(self.points) < self.num_nodes)
    @rule(pick=PICKS)
    def insert_point(self, pick):
        taken = set(self.points.values())
        node = _pick(
            (v for v in range(self.num_nodes) if v not in taken), pick
        )
        pid = self.next_pid
        self.next_pid += 1
        for db in self.dbs.values():
            db.insert_point(pid, node)
        self.points[pid] = node

    @precondition(lambda self: self.points)
    @rule(pick=PICKS)
    def delete_point(self, pick):
        pid = _pick(self.points, pick)
        for db in self.dbs.values():
            db.delete_point(pid)
        del self.points[pid]

    @rule(capacity=st.integers(min_value=2, max_value=4))
    def materialize(self, capacity):
        for db in self.dbs.values():
            db.materialize(capacity)
        self.capacity = capacity

    @rule(seed=SEEDS, size=st.integers(min_value=2, max_value=5),
          materialize=st.booleans())
    def attach_reference(self, seed, size, materialize):
        nodes = random.Random(seed).sample(range(self.num_nodes), size)
        reference = {1000 + i: node for i, node in enumerate(nodes)}
        for db in self.dbs.values():
            db.attach_reference(NodePointSet(reference))
            if materialize:
                db.materialize_reference(3)
        self.reference = reference
        self.ref_capacity = 3 if materialize else None

    # -- reads ----------------------------------------------------------

    @rule(pick=PICKS, k=KS)
    def rknn(self, pick, k):
        query = pick % self.num_nodes
        expected = brute_force_rknn(
            self.graph, NodePointSet(self.points), query, k
        )
        for method in _with_eager_m(k, self.capacity,
                                    ("eager", "lazy", "lazy-ep")):
            for name, db in self.dbs.items():
                got = list(db.rknn(query, k, method=method).points)
                assert got == expected, (name, method, query, k)

    @rule(seed=SEEDS, hops=st.integers(min_value=0, max_value=3), k=KS)
    def continuous_rknn(self, seed, hops, k):
        rng = random.Random(seed)
        route = [rng.randrange(self.num_nodes)]
        for _ in range(hops):
            route.append(rng.choice(
                [nbr for nbr, _ in self.graph.neighbors(route[-1])]
            ))
        expected = brute_force_rknn(
            self.graph, NodePointSet(self.points), list(route), k
        )
        for method in _with_eager_m(k, self.capacity,
                                    ("eager", "lazy", "lazy-ep")):
            for name, db in self.dbs.items():
                got = list(db.continuous_rknn(route, k, method=method).points)
                assert got == expected, (name, method, route, k)

    @precondition(lambda self: self.reference is not None)
    @rule(pick=PICKS, k=KS)
    def bichromatic_rknn(self, pick, k):
        query = pick % self.num_nodes
        expected = brute_force_brknn(
            self.graph, NodePointSet(self.points),
            NodePointSet(self.reference), query, k,
        )
        for method in _with_eager_m(k, self.ref_capacity, ("eager", "lazy")):
            for name, db in self.dbs.items():
                got = list(db.bichromatic_rknn(query, k, method=method).points)
                assert got == expected, (name, method, query, k)

    def _true_distances(self, query):
        dists = dijkstra(self.graph, [(query, 0.0)])
        return {pid: dists.get(node, math.inf)
                for pid, node in self.points.items()}

    @rule(pick=PICKS, k=KS)
    def knn(self, pick, k):
        query = pick % self.num_nodes
        true_dist = self._true_distances(query)
        expected = sorted(true_dist.values())[:k]
        for name, db in self.dbs.items():
            _check_ranked(db.knn(query, k).neighbors, expected, true_dist,
                          (name, query, k))

    @rule(pick=PICKS, k=KS, radius=st.integers(min_value=1, max_value=20))
    def range_nn(self, pick, k, radius):
        query = pick % self.num_nodes
        true_dist = self._true_distances(query)
        expected = sorted(d for d in true_dist.values() if d < radius)[:k]
        for name, db in self.dbs.items():
            _check_ranked(db.range_nn(query, k, float(radius)).neighbors,
                          expected, true_dist, (name, query, k, radius))

    @rule(seed=SEEDS, k=KS)
    def aggregate_nn(self, seed, k):
        specs = _aggregate_specs(seed, self.num_nodes, k)
        expected = [_brute_aggregate(self.graph, self.points, spec)
                    for spec in specs]
        _check_aggregates(self.dbs, specs, expected)

    @rule(seed=SEEDS)
    def group_script_agrees(self, seed):
        group = random.Random(seed).sample(range(self.num_nodes), 2)
        script = (
            "SELECT * FROM topk_influence(k=1) LIMIT 3; "
            f"SELECT * FROM aggregate_nn(group={group}, k=2, agg='sum')"
        )
        answers = {
            name: [result.neighbors for result in db.query(script)]
            for name, db in self.dbs.items()
        }
        assert len(set(map(repr, answers.values()))) == 1, answers


class CompactOverlay(RuleBasedStateMachine):
    """One compact database: appends, compactions and time travel."""

    @initialize(seed=SEEDS)
    def build(self, seed):
        rng = random.Random(seed)
        self.num_nodes = rng.randint(10, 18)
        graph = build_random_graph(
            rng, self.num_nodes, self.num_nodes // 2, int_weights=True
        )
        self.edges = {edge_key(u, v): w for u, v, w in graph.edges()}
        self.points = {
            pid: node for pid, node in
            enumerate(rng.sample(range(self.num_nodes), rng.randint(4, 6)))
        }
        self.next_pid = 100
        self.db = CompactDatabase(graph, NodePointSet(self.points))
        self.db.build_oracle(3, seed=seed)
        self.history = [self._state()]

    def _state(self):
        return dict(self.edges), dict(self.points)

    def _appended(self):
        self.history.append(self._state())
        assert self.db.stamp[1] == len(self.history) - 1

    # -- mutations ------------------------------------------------------

    @precondition(lambda self: len(self.points) < self.num_nodes)
    @rule(pick=PICKS)
    def insert_point(self, pick):
        taken = set(self.points.values())
        node = _pick(
            (v for v in range(self.num_nodes) if v not in taken), pick
        )
        self.db.insert_point(self.next_pid, node)
        self.points[self.next_pid] = node
        self.next_pid += 1
        self._appended()

    @precondition(lambda self: self.points)
    @rule(pick=PICKS)
    def delete_point(self, pick):
        pid = _pick(self.points, pick)
        self.db.delete_point(pid)
        del self.points[pid]
        self._appended()

    @rule(pick=PICKS, weight=st.integers(min_value=1, max_value=9))
    def insert_edge(self, pick, weight):
        free = [
            (u, v) for u in range(self.num_nodes)
            for v in range(u + 1, self.num_nodes)
            if (u, v) not in self.edges
        ]
        if not free:
            return
        u, v = _pick(free, pick)
        self.db.insert_edge(u, v, float(weight))
        self.edges[(u, v)] = float(weight)
        self._appended()

    @precondition(lambda self: self.edges)
    @rule(pick=PICKS)
    def delete_edge(self, pick):
        u, v = _pick(self.edges, pick)
        self.db.delete_edge(u, v)
        del self.edges[(u, v)]
        self._appended()

    @rule()
    def compact(self):
        self.db.compact()
        self.history = [self._state()]
        assert self.db.stamp[1] == 0

    # -- reads ----------------------------------------------------------

    @rule(pick=PICKS, epoch=PICKS, k=KS,
          method=st.sampled_from(("eager", "lazy", "lazy-ep")))
    def at_epoch_matches_brute_force(self, pick, epoch, k, method):
        epoch %= len(self.history)
        edges, points = self.history[epoch]
        graph = Graph(self.num_nodes,
                      [(u, v, w) for (u, v), w in edges.items()])
        query = pick % self.num_nodes
        expected = brute_force_rknn(graph, NodePointSet(points), query, k)
        session = self.db.at_epoch(epoch)
        assert session.stamp == (self.db.stamp[0], epoch)
        got = list(session.rknn(query, k, method=method).points)
        assert got == expected, (epoch, method, query, k)

    @rule(queries=st.lists(st.tuples(PICKS, KS), min_size=2, max_size=4))
    def batch_rknn_matches_brute_force(self, queries):
        graph = Graph(self.num_nodes,
                      [(u, v, w) for (u, v), w in self.edges.items()])
        specs = [QuerySpec("rknn", query=pick % self.num_nodes, k=k)
                 for pick, k in queries]
        for spec, result in zip(specs, self.db.batch_rknn(specs)):
            expected = brute_force_rknn(graph, NodePointSet(self.points),
                                        spec.query, spec.k)
            assert list(result.points) == expected, (spec.query, spec.k)


class DirectedFacades(RuleBasedStateMachine):
    """Disk, sharded and compact directed databases in lockstep."""

    @initialize(seed=SEEDS)
    def build(self, seed):
        rng = random.Random(seed)
        self.num_nodes = rng.randint(10, 18)
        order = list(range(self.num_nodes))
        rng.shuffle(order)
        arcs = {}
        for i, tail in enumerate(order):  # a cycle keeps most nodes reachable
            arcs[(tail, order[(i + 1) % self.num_nodes])] = rng.randint(1, 9)
        for _ in range(self.num_nodes * 2):
            arcs.setdefault(tuple(rng.sample(range(self.num_nodes), 2)),
                            rng.randint(1, 9))
        self.graph = DiGraph.from_arcs(
            [(u, v, float(w)) for (u, v), w in arcs.items()],
            num_nodes=self.num_nodes,
        )
        self.points = {
            pid: node for pid, node in
            enumerate(rng.sample(range(self.num_nodes), rng.randint(4, 6)))
        }
        self.next_pid = 100
        self.capacity = None
        points = NodePointSet(self.points)
        self.dbs = {
            "disk": DirectedGraphDatabase(self.graph, points),
            "sharded": ShardedDirectedDatabase(self.graph, points,
                                               num_shards=2),
            "compact": CompactDirectedDatabase(self.graph, points),
        }

    @precondition(lambda self: len(self.points) < self.num_nodes)
    @rule(pick=PICKS)
    def insert_point(self, pick):
        taken = set(self.points.values())
        node = _pick(
            (v for v in range(self.num_nodes) if v not in taken), pick
        )
        for db in self.dbs.values():
            db.insert_point(self.next_pid, node)
        self.points[self.next_pid] = node
        self.next_pid += 1

    @precondition(lambda self: self.points)
    @rule(pick=PICKS)
    def delete_point(self, pick):
        pid = _pick(self.points, pick)
        for db in self.dbs.values():
            db.delete_point(pid)
        del self.points[pid]

    @rule(capacity=st.integers(min_value=2, max_value=4))
    def materialize(self, capacity):
        for db in self.dbs.values():
            db.materialize(capacity)
        self.capacity = capacity

    @rule(pick=PICKS, k=KS)
    def rknn(self, pick, k):
        query = pick % self.num_nodes
        expected = brute_force_directed_rknn(
            self.graph, NodePointSet(self.points), query, k
        )
        methods = ["eager", "naive"]
        if self.capacity and k <= self.capacity:
            methods.append("eager-m")
        for method in methods:
            for name, db in self.dbs.items():
                got = list(db.rknn(query, k, method=method).points)
                assert got == expected, (name, method, query, k)

    @rule(seed=SEEDS, k=KS)
    def aggregate_nn(self, seed, k):
        specs = _aggregate_specs(seed, self.num_nodes, k)
        expected = [_brute_aggregate(_ArcsOut(self.graph), self.points, spec)
                    for spec in specs]
        _check_aggregates(self.dbs, specs, expected)

    @rule(pick=PICKS, k=KS, radius=st.integers(min_value=1, max_value=20))
    def forward_reads_agree(self, pick, k, radius):
        query = pick % self.num_nodes
        answers = {
            name: (db.knn(query, k).neighbors,
                   db.range_nn(query, k, float(radius)).neighbors)
            for name, db in self.dbs.items()
        }
        assert len(set(answers.values())) == 1, (query, k, radius, answers)


class EdgeFacade(RuleBasedStateMachine):
    """A disk database with its points on edges, against brute force."""

    @initialize(seed=SEEDS)
    def build(self, seed):
        rng = random.Random(seed)
        self.num_nodes = rng.randint(8, 16)
        self.graph = build_random_graph(
            rng, self.num_nodes, self.num_nodes // 2, int_weights=True
        )
        self.edges = sorted(self.graph.edges())
        self.points = {
            pid: self._on_edge(rng.randrange(1024), rng.randrange(1024))
            for pid in range(rng.randint(3, 6))
        }
        self.next_pid = 100
        self.reference = None
        self.capacity = None
        self.db = GraphDatabase(self.graph, EdgePointSet(self.points))

    def _on_edge(self, pick, offset):
        """The ``pick``-th edge, at an offset that is a multiple of 0.5."""
        u, v, weight = self.edges[pick % len(self.edges)]
        return (u, v, (offset % (2 * int(weight) + 1)) / 2)

    def _location(self, pick, offset, on_edge):
        return self._on_edge(pick, offset) if on_edge else pick % self.num_nodes

    # -- mutations ------------------------------------------------------

    @rule(pick=PICKS, offset=PICKS)
    def insert_point(self, pick, offset):
        location = self._on_edge(pick, offset)
        self.db.insert_point(self.next_pid, location)
        self.points[self.next_pid] = location
        self.next_pid += 1

    @precondition(lambda self: self.points)
    @rule(pick=PICKS)
    def delete_point(self, pick):
        pid = _pick(self.points, pick)
        self.db.delete_point(pid)
        del self.points[pid]

    @rule(capacity=st.integers(min_value=2, max_value=4))
    def materialize(self, capacity):
        self.db.materialize(capacity)
        self.capacity = capacity

    @rule(seed=SEEDS, size=st.integers(min_value=1, max_value=4))
    def attach_reference(self, seed, size):
        rng = random.Random(seed)
        self.reference = {
            1000 + i: self._on_edge(rng.randrange(1024), rng.randrange(1024))
            for i in range(size)
        }
        self.db.attach_reference(EdgePointSet(self.reference))

    # -- reads ----------------------------------------------------------

    @rule(pick=PICKS, offset=PICKS, on_edge=st.booleans(), k=KS)
    def rknn(self, pick, offset, on_edge, k):
        query = self._location(pick, offset, on_edge)
        expected = brute_force_rknn(
            self.graph, EdgePointSet(self.points), query, k
        )
        for method in _with_eager_m(k, self.capacity,
                                    ("eager", "lazy", "lazy-ep")):
            got = list(self.db.rknn(query, k, method=method).points)
            assert got == expected, (method, query, k)

    @rule(seed=SEEDS, hops=st.integers(min_value=0, max_value=3), k=KS)
    def continuous_rknn(self, seed, hops, k):
        rng = random.Random(seed)
        route = [rng.randrange(self.num_nodes)]
        for _ in range(hops):
            route.append(rng.choice(
                [nbr for nbr, _ in self.graph.neighbors(route[-1])]
            ))
        expected = brute_force_rknn(
            self.graph, EdgePointSet(self.points), list(route), k
        )
        for method in _with_eager_m(k, self.capacity,
                                    ("eager", "lazy", "lazy-ep")):
            got = list(self.db.continuous_rknn(route, k, method=method).points)
            assert got == expected, (method, route, k)

    @precondition(lambda self: self.reference is not None)
    @rule(pick=PICKS, offset=PICKS, on_edge=st.booleans(), k=KS)
    def bichromatic_rknn(self, pick, offset, on_edge, k):
        query = self._location(pick, offset, on_edge)
        expected = brute_force_brknn(
            self.graph, EdgePointSet(self.points),
            EdgePointSet(self.reference), query, k,
        )
        got = list(self.db.bichromatic_rknn(query, k, method="eager").points)
        assert got == expected, (query, k)

    def _true_distances(self, query):
        ranked = brute_force_knn(
            self.graph, EdgePointSet(self.points), query, len(self.points)
        )
        return dict(ranked)

    @rule(pick=PICKS, offset=PICKS, on_edge=st.booleans(), k=KS)
    def knn(self, pick, offset, on_edge, k):
        query = self._location(pick, offset, on_edge)
        true_dist = self._true_distances(query)
        expected = sorted(true_dist.values())[:k]
        _check_ranked(self.db.knn(query, k).neighbors, expected, true_dist,
                      (query, k))

    @rule(pick=PICKS, offset=PICKS, on_edge=st.booleans(), k=KS,
          radius=st.integers(min_value=1, max_value=20))
    def range_nn(self, pick, offset, on_edge, k, radius):
        query = self._location(pick, offset, on_edge)
        true_dist = self._true_distances(query)
        expected = sorted(d for d in true_dist.values() if d < radius)[:k]
        _check_ranked(self.db.range_nn(query, k, float(radius)).neighbors,
                      expected, true_dist, (query, k, radius))


def test_undirected_facades_match_brute_force():
    run_state_machine_as_test(UndirectedFacades, settings=settings(**SETTINGS))


def test_compact_overlay_time_travel_matches_brute_force():
    run_state_machine_as_test(CompactOverlay, settings=settings(**SETTINGS))


def test_directed_facades_match_brute_force():
    run_state_machine_as_test(DirectedFacades, settings=settings(**SETTINGS))


def test_edge_facade_matches_brute_force():
    run_state_machine_as_test(EdgeFacade, settings=settings(**SETTINGS))


# -- fixed scripts on edge points -------------------------------------------

def _check_edge_eager_m(graph, db, points, capacity):
    """eager-m at every node and every ``k <= capacity`` is brute force's."""
    for query in range(graph.num_nodes):
        for k in range(1, capacity + 1):
            expected = brute_force_rknn(graph, EdgePointSet(points), query, k)
            got = list(db.rknn(query, k, method="eager-m").points)
            assert got == expected, (query, k)


def test_edge_eager_m_list_holding_the_candidate_itself():
    """K = k = 2, and point 0 sits on node 1, whose list holds point 0
    itself and point 1.  Point 2, one unit from node 1, is in neither
    endpoint's list, so the second distance merged from them (10.5,
    through node 2) is not point 0's true one (1.0)."""
    graph = Graph(5, [(0, 1, 1.0), (1, 2, 10.0), (1, 3, 2.0), (2, 4, 1.0)])
    points = {0: (1, 2, 0.0), 1: (0, 1, 0.5), 2: (1, 3, 1.0), 3: (2, 4, 0.5)}
    db = GraphDatabase(graph, EdgePointSet(points))
    db.materialize(2)
    _check_edge_eager_m(graph, db, points, 2)


def test_edge_eager_m_after_a_delete_refills_from_edge_points():
    """Deleting point 1 frees a slot in every list.  Point 0 lies on the
    edge between the affected nodes 1 and 2, outside node 1's list, so
    the refill must give node 1 its direct offset 4, not 6 through
    node 2."""
    graph = Graph(3, [(0, 1, 5.0), (1, 2, 5.0)])
    points = {0: (1, 2, 4.0), 1: (1, 2, 1.0), 2: (0, 1, 5.0)}
    db = GraphDatabase(graph, EdgePointSet(points))
    db.materialize(2)
    db.delete_point(1)
    del points[1]
    _check_edge_eager_m(graph, db, points, 2)
