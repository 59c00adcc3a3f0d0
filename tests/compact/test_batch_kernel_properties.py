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
    """Reference single-source distances (textbook binary heap)."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in graph.neighbors(u):
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


@given(case=batch_cases())
@settings(**SETTINGS)
def test_per_request_counters_conserve_tracker_totals(case):
    """Work is split across requests exactly: neither dropped nor
    invented (the cost model's never-undercounted half)."""
    graph, points, specs, seed = case
    db = CompactDatabase(graph, points)
    before = db.tracker.snapshot()
    results = db.batch_rknn(specs)
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


def test_numpy_is_available_in_ci():
    """The property suite above exercises the vectorized path; this
    guard fails loudly if the environment silently lost numpy."""
    assert numpy_available()
