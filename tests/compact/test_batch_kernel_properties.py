"""Hypothesis property tests for the vectorized batch RkNN kernel.

Two families of invariants pin :mod:`repro.compact.batch` against the
rest of the system:

**Answer equivalence.**  On integer-weighted graphs (exact float
arithmetic, so an independent reference cannot diverge by an ulp), the
batch kernel must reproduce a from-scratch per-query reference --
one textbook Dijkstra per candidate point, membership by the k-th
order statistic -- and, on arbitrary float weights, must match the
scalar compact path bitwise for every spec in the batch.

**Cost accounting.**  The kernel charges the scalar cost model
(``edges_expanded`` = degree of every settled ``(row, node)`` pair),
so per-request counters must sum *exactly* to the facade tracker's
total increase -- work is split, never dropped or invented.  And in
the kernel's amortization regime (batches of >= 5 queries, where the
shared candidate table pays for itself), the batched
``edges_expanded`` total must not exceed the sum of the same specs
run scalar one by one.

**Same buckets.**  The kernel's frontier loop must settle exactly the
buckets of the dense loop kept in ``dense_kernel_reference.py``: the
same answers and, field by field, the same charge for every request.

**Aggregate rows.**  ``aggregate_nn`` specs answered by the kernel must
equal the scalar ``aggregate_nn`` and a brute force ranking all-pairs
distances by ``(value, pid)`` -- on undirected and directed networks,
with ties, a detached component, repeated members, excludes and ``k``
above ``|P|`` -- and their values must be bitwise equal to the scalar
path's on float weights.
"""

import heapq
import math
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    NodePointSet,
    QuerySpec,
)
from repro.compact.batch import (
    BatchRequest,
    batch_rknn_kernel,
    numpy_available,
)
from repro.graph.digraph import DiGraph
from repro.graph.graph import Graph
from tests.compact.dense_kernel_reference import dense_batch_rknn_kernel
from tests.conftest import build_random_graph

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Counter fields the kernel charges; each must conserve exactly.
COUNTED = ("nodes_visited", "edges_expanded", "heap_pushes", "heap_pops",
           "verifications", "oracle_prunes")


@st.composite
def batch_cases(draw, min_batch=5, max_batch=8, int_weights=None):
    """A random network, point set and RkNN batch (mixed k, methods,
    data/random query nodes, occasional excludes)."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=20, max_value=45))
    if int_weights is None:
        int_weights = draw(st.booleans())
    graph = build_random_graph(rng, n, n // 2, int_weights=int_weights)
    num_points = draw(st.integers(min_value=6, max_value=9))
    points = NodePointSet({
        pid: node
        for pid, node in enumerate(rng.sample(range(n), num_points))
    })
    point_nodes = [node for _, node in sorted(points.items())]
    size = draw(st.integers(min_value=min_batch, max_value=max_batch))
    specs = []
    for _ in range(size):
        query = (rng.choice(point_nodes) if draw(st.booleans())
                 else rng.randrange(n))
        exclude = frozenset()
        if draw(st.booleans()):
            exclude = frozenset({
                draw(st.integers(min_value=0, max_value=num_points - 1))
            })
        specs.append(QuerySpec(
            "rknn",
            query=query,
            k=draw(st.integers(min_value=1, max_value=2)),
            method=draw(st.sampled_from(("eager", "lazy"))),
            exclude=exclude,
        ))
    return graph, points, specs, seed


def _dijkstra(graph, source):
    """Reference single-source distances (textbook binary heap); a
    directed network is expanded along its arcs."""
    step = (graph.out_neighbors if isinstance(graph, DiGraph)
            else graph.neighbors)
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in step(u):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _brute_rknn(graph, points, spec):
    """From-scratch RkNN: p is a member iff d(p, q) is within p's
    k-th nearest surviving competitor."""
    members = []
    items = sorted(points.items())
    for pid, node in items:
        if pid in spec.exclude:
            continue
        dist = _dijkstra(graph, node)
        to_query = dist.get(spec.query, math.inf)
        if math.isinf(to_query):
            continue
        competitors = sorted(
            dist.get(other, math.inf)
            for opid, other in items
            if opid != pid and opid not in spec.exclude
        )
        threshold = (competitors[spec.k - 1]
                     if len(competitors) >= spec.k else math.inf)
        if to_query <= threshold:
            members.append(pid)
    return tuple(members)


@given(case=batch_cases(int_weights=True))
@settings(**SETTINGS)
def test_batch_matches_reference_dijkstra(case):
    graph, points, specs, seed = case
    db = CompactDatabase(graph, points)
    results = db.batch_rknn(specs)
    for spec, result in zip(specs, results):
        expected = _brute_rknn(graph, points, spec)
        assert result.points == expected, (
            f"seed={seed}: batch answer {result.points} != reference "
            f"{expected} for {spec}"
        )


@given(case=batch_cases())
@settings(**SETTINGS)
def test_batch_matches_scalar_compact_bitwise(case):
    graph, points, specs, seed = case
    scalar_db = CompactDatabase(graph, points)
    scalar = [
        scalar_db.rknn(spec.query, spec.k, method=spec.method,
                       exclude=spec.exclude).points
        for spec in specs
    ]
    batch_db = CompactDatabase(graph, points)
    batched = [result.points for result in batch_db.batch_rknn(specs)]
    assert batched == scalar, (
        f"seed={seed}: batch answers diverge from the scalar compact path"
    )


def _aggregate_specs(rng, num_nodes, num_points, count):
    """``count`` aggregate NN specs: one to three members plus an
    occasional repeat, excludes, ``k`` up to ``|P| + 2``, sum and max."""
    specs = []
    for _ in range(count):
        group = [rng.randrange(num_nodes) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            group.insert(rng.randrange(len(group) + 1), rng.choice(group))
        specs.append(QuerySpec(
            "aggregate_nn",
            group=tuple(group),
            k=rng.randint(1, num_points + 2),
            agg=rng.choice(("sum", "max")),
            exclude=frozenset(rng.sample(range(num_points),
                                         rng.randint(0, min(2, num_points)))),
        ))
    return specs


@given(case=batch_cases(), aggregates=st.integers(min_value=0, max_value=3))
@settings(**SETTINGS)
def test_per_request_counters_conserve_tracker_totals(case, aggregates):
    """Work is split across requests exactly: neither dropped nor
    invented (the cost model's never-undercounted half) -- also when
    aggregate NN specs share the batch, which must then answer as each
    kind does alone."""
    graph, points, specs, seed = case
    rng = random.Random(seed)
    mixed = list(specs)
    for spec in _aggregate_specs(rng, graph.num_nodes, len(points),
                                 aggregates):
        mixed.insert(rng.randrange(len(mixed) + 1), spec)
    db = CompactDatabase(graph, points)
    before = db.tracker.snapshot()
    results = db.batch_rknn(mixed)
    diff = db.tracker.diff(before)
    for field in COUNTED:
        total = getattr(diff, field)
        split = sum(getattr(r.counters, field) for r in results)
        assert split == total, (
            f"seed={seed}: per-request {field} sums to {split}, "
            f"tracker charged {total}"
        )
    assert all(result.io == 0 for result in results), (
        f"seed={seed}: the batch kernel charged page I/O"
    )

    def answer(spec, result):
        return result.neighbors if spec.kind == "aggregate_nn" else result.points

    alone = {}
    for kind in ("rknn", "aggregate_nn"):
        same = [spec for spec in mixed if spec.kind == kind]
        if same:
            fresh = CompactDatabase(graph, points).batch_rknn(same)
            alone.update((id(spec), answer(spec, result))
                         for spec, result in zip(same, fresh))
    for spec, result in zip(mixed, results):
        assert answer(spec, result) == alone[id(spec)], (
            f"seed={seed}: {spec} answers differently in a mixed batch"
        )


@given(case=batch_cases())
@settings(**SETTINGS)
def test_batched_edges_within_scalar_sum(case):
    """In the amortization regime (>= 5 specs per batch) the shared
    candidate table never expands more edges than the scalar loop."""
    graph, points, specs, seed = case
    scalar_db = CompactDatabase(graph, points)
    before = scalar_db.tracker.snapshot()
    for spec in specs:
        scalar_db.rknn(spec.query, spec.k, method=spec.method,
                       exclude=spec.exclude)
    scalar_edges = scalar_db.tracker.diff(before).edges_expanded

    batch_db = CompactDatabase(graph, points)
    before = batch_db.tracker.snapshot()
    batch_db.batch_rknn(specs)
    batch_edges = batch_db.tracker.diff(before).edges_expanded

    assert batch_edges <= scalar_edges, (
        f"seed={seed}: batched edges_expanded {batch_edges} exceeds "
        f"the scalar sum {scalar_edges}"
    )


def _route(graph, start, rng, hops):
    """A walk of up to ``hops`` edges from ``start`` (a continuous query)."""
    route = [start]
    for _ in range(hops):
        route.append(rng.choice(
            [nbr for nbr, _ in graph.neighbors(route[-1])]))
    return tuple(route)


def _orient(graph, rng):
    """A directed network over ``graph``'s edges: each edge becomes one
    arc or two, with the reverse arc's weight redrawn."""
    arcs = []
    for u, v, w in graph.edges():
        arcs.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
        if rng.random() < 0.5:
            arcs.append((arcs[-1][1], arcs[-1][0], float(rng.randint(1, 9))))
    return DiGraph.from_arcs(arcs, num_nodes=graph.num_nodes)


def _assert_matches_dense(flat, num_nodes, items, requests, oracle, label):
    answers, charges = batch_rknn_kernel(flat, num_nodes, items, requests,
                                         oracle=oracle)
    want_answers, want_charges = dense_batch_rknn_kernel(
        flat, num_nodes, items, requests, oracle=oracle)
    assert answers == want_answers, f"{label}: answers diverge"
    assert [vars(c) for c in charges] == [vars(c) for c in want_charges], (
        f"{label}: per-request charges diverge from the dense loop"
    )


@given(case=batch_cases(), landmarks=st.integers(min_value=0, max_value=3))
@settings(**SETTINGS)
def test_kernel_matches_dense_loop_exactly(case, landmarks):
    """Point queries (oracle on and off), continuous routes and a
    directed out-CSR batch: the frontier loop answers and charges
    exactly like the dense loop."""
    graph, points, specs, seed = case
    rng = random.Random(seed)
    items = sorted(points.items())
    db = CompactDatabase(graph, points)
    if landmarks:
        db.build_oracle(landmarks, seed=seed)
    requests = [BatchRequest((spec.query,), spec.k, spec.exclude)
                for spec in specs]
    routes = [BatchRequest(_route(graph, spec.query, rng, rng.randint(1, 3)),
                           spec.k, spec.exclude) for spec in specs]
    flat = db.store.csr.flat()
    for batch, kind in ((requests, "rknn"), (routes, "continuous")):
        _assert_matches_dense(flat, graph.num_nodes, items, batch, db.oracle,
                              f"seed={seed} {kind} landmarks={landmarks}")
    directed = CompactDirectedDatabase(_orient(graph, rng), points)
    _assert_matches_dense(directed.store.csr.out_flat(), graph.num_nodes,
                          items, requests, None, f"seed={seed} directed")


@st.composite
def aggregate_cases(draw):
    """An integer-weighted network plus a detached path component,
    points on both parts, and a batch of aggregate NN specs."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    n = draw(st.integers(min_value=12, max_value=30))
    main = build_random_graph(rng, n, n // 2, int_weights=True)
    island = draw(st.integers(min_value=0, max_value=4))
    edges = list(main.edges()) + [
        (n + i, n + i + 1, float(rng.randint(1, 9)))
        for i in range(island - 1)
    ]
    graph = Graph(n + island, edges)
    num_points = draw(st.integers(min_value=3, max_value=8))
    points = NodePointSet({
        pid: node
        for pid, node in enumerate(rng.sample(range(n + island), num_points))
    })
    count = draw(st.integers(min_value=1, max_value=5))
    specs = _aggregate_specs(rng, n + island, num_points, count)
    return graph, points, specs, seed


def _brute_aggregate(graph, points, spec):
    """Rank every point reachable from all members by ``(value, pid)``."""
    distances = {member: _dijkstra(graph, member) for member in spec.group}
    chooser = sum if spec.agg == "sum" else max
    scored = []
    for pid, node in sorted(points.items()):
        dists = [distances[member].get(node, math.inf)
                 for member in spec.group]
        if pid not in spec.exclude and not math.isinf(max(dists)):
            scored.append((chooser(dists), pid))
    return tuple((pid, value) for value, pid in sorted(scored)[:spec.k])


@given(case=aggregate_cases(), directed=st.booleans())
@settings(**SETTINGS)
def test_aggregate_rows_match_scalar_and_brute_force(case, directed):
    """Integer weights make ties exact: the threshold rule must keep
    expanding while a point may still tie the k-th aggregate."""
    graph, points, specs, seed = case
    if directed:
        graph = _orient(graph, random.Random(seed))
        db = CompactDirectedDatabase(graph, points)
    else:
        db = CompactDatabase(graph, points)
    for spec, result in zip(specs, db.batch_rknn(specs)):
        scalar = db.aggregate_nn(spec.group, spec.k, spec.agg,
                                 spec.exclude).neighbors
        expected = _brute_aggregate(graph, points, spec)
        assert result.neighbors == scalar == expected, (
            f"seed={seed} directed={directed}: kernel {result.neighbors}, "
            f"scalar {scalar}, brute force {expected} for {spec}"
        )


def test_aggregate_values_are_bitwise_equal_on_float_weights():
    """Three members at 0.1, 0.2 and 0.3 from point 0: a left-to-right
    float sum gives 0.6000000000000001, a compensated one (Python 3.12's
    ``sum``) 0.6.  Both paths rank through one function, so they agree
    bit for bit on every Python version."""
    graph = Graph(6, [(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.3),
                      (3, 4, 0.7), (4, 5, 1.3)])
    points = NodePointSet({0: 0, 1: 4, 2: 5})
    specs = [QuerySpec("aggregate_nn", group=(1, 2, 3), k=3, agg=agg)
             for agg in ("sum", "max")]
    db = CompactDatabase(graph, points)
    for spec, result in zip(specs, db.batch_rknn(specs)):
        scalar = db.aggregate_nn(spec.group, spec.k, spec.agg).neighbors
        assert [(pid, value.hex()) for pid, value in result.neighbors] == [
            (pid, value.hex()) for pid, value in scalar
        ]
    assert db.batch_rknn(specs)[0].neighbors[0] == (0, sum([0.1, 0.2, 0.3]))


def test_numpy_is_available_in_ci():
    """The property suite above exercises the vectorized path; this
    guard fails loudly if the environment silently lost numpy."""
    assert numpy_available()
