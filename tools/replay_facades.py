#!/usr/bin/env python3
"""Replay fixed random scripts on every facade and print what they answer.

Each seed builds one random connected graph and runs the same script on
the six public databases (disk, sharded and compact, undirected and
directed), on a disk database whose points lie on edges and on a disk
database with a landmark oracle:

* ``materialize(4)``;
* ``rknn`` under every method of the facade, k = 1..3, with random
  exclusions;
* ``knn``, ``range_nn`` and ``aggregate_nn``, at nodes and, where points
  lie on edges, at edge locations;
* ``continuous_rknn``; ``attach_reference``, ``materialize_reference``
  and ``bichromatic_rknn`` (undirected facades);
* three ``insert_point`` calls and one ``delete_point``;
* the reads again, on the head and on a ``read_clone``.

Every call starts on a cold buffer, so its record depends on that call
alone, and prints one JSON line: the answer, or the error's type and
message, plus every cost counter except CPU time.  One digest line per
facade follows its calls.  Only the public facade API is used, so the
script runs against any checkout's ``src/``; two runs agree byte for
byte exactly when answers and charges agree::

    PYTHONPATH=old/src python tools/replay_facades.py --seeds 12 > old.jsonl
    PYTHONPATH=new/src python tools/replay_facades.py --seeds 12 > new.jsonl
    cmp old.jsonl new.jsonl
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys

from repro import (
    CompactDatabase,
    CompactDirectedDatabase,
    DiGraph,
    DirectedGraphDatabase,
    EdgePointSet,
    Graph,
    GraphDatabase,
    NodePointSet,
    ShardedDatabase,
    ShardedDirectedDatabase,
)

#: Small pages and a small buffer, so the order of reads shows in faults.
PAGING = {"page_size": 512, "buffer_pages": 4}


def _graph(rng: random.Random, num_nodes: int) -> Graph:
    """A connected graph: a random spanning tree plus extra edges."""
    edges: dict[tuple[int, int], float] = {}
    order = list(range(num_nodes))
    rng.shuffle(order)
    for i in range(1, num_nodes):
        u, v = sorted((order[i], order[rng.randrange(i)]))
        edges[(u, v)] = float(rng.randint(1, 9))
    for _ in range(num_nodes):
        u, v = sorted(rng.sample(range(num_nodes), 2))
        edges.setdefault((u, v), float(rng.randint(1, 9)))
    return Graph(num_nodes, [(u, v, w) for (u, v), w in edges.items()])


def _digraph(rng: random.Random, num_nodes: int) -> DiGraph:
    """A cycle through every node plus random extra arcs."""
    order = list(range(num_nodes))
    rng.shuffle(order)
    arcs = {(tail, order[(i + 1) % num_nodes]): rng.randint(1, 9)
            for i, tail in enumerate(order)}
    for _ in range(num_nodes * 2):
        arcs.setdefault(tuple(rng.sample(range(num_nodes), 2)), rng.randint(1, 9))
    return DiGraph.from_arcs([(u, v, float(w)) for (u, v), w in arcs.items()],
                             num_nodes=num_nodes)


class _Script:
    """One facade's random script; every call appends one record."""

    def __init__(self, seed: int, name: str, db, graph, on_edges: bool):
        self.rng = random.Random(f"{seed}:{name}")
        self.seed, self.name, self.db = seed, name, db
        self.graph, self.on_edges = graph, on_edges
        self.edges = sorted(graph.edges()) if on_edges else []
        self.points = set(db.points.ids())
        self.next_pid = 500
        self.records: list[str] = []

    # -- drawing --------------------------------------------------------

    def node(self) -> int:
        return self.rng.randrange(self.graph.num_nodes)

    def edge_location(self) -> tuple[int, int, float]:
        u, v, weight = self.rng.choice(self.edges)
        return (u, v, self.rng.randint(0, int(2 * weight)) / 2)

    def location(self):
        """A node, or on edge-point networks an edge location half the time."""
        if self.on_edges and self.rng.random() < 0.5:
            return self.edge_location()
        return self.node()

    def exclusion(self) -> frozenset[int]:
        pool = sorted(self.points)
        return frozenset(self.rng.sample(pool, min(len(pool), self.rng.randint(0, 2))))

    def route(self) -> list[int]:
        route = [self.node()]
        for _ in range(self.rng.randint(0, 3)):
            route.append(self.rng.choice([n for n, _ in self.graph.neighbors(route[-1])]))
        return route

    # -- calling --------------------------------------------------------

    def call(self, session, label: str, op: str, *args, **kwargs):
        """Run one call on a cold buffer and record it; return its result."""
        record = {"seed": self.seed, "facade": self.name, "session": label,
                  "call": f"{op}{_show(args, kwargs)}"}
        session.clear_buffer()
        before = session.tracker.snapshot()
        try:
            result = getattr(session, op)(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - errors are part of the record
            record["error"] = [type(exc).__name__, str(exc)]
            result = None
        else:
            record["answer"] = _answer(result)
            counters = getattr(result, "counters", None) or session.tracker.diff(before)
            record["cost"] = {
                f.name: getattr(counters, f.name)
                for f in dataclasses.fields(counters) if f.name != "cpu_seconds"
            }
        self.records.append(json.dumps(record, sort_keys=True))
        return result

    def reads(self, session, label: str) -> None:
        """Every read of the script, against ``session``."""
        undirected = hasattr(session, "continuous_rknn")
        for method in session.methods:
            for k in (1, 2, 3):
                self.call(session, label, "rknn", self.location(), k=k,
                          method=method, exclude=self.exclusion())
        for k in (1, 2, 3):
            self.call(session, label, "knn", self.location(), k)
            self.call(session, label, "range_nn", self.location(), k,
                      float(self.rng.randint(1, 16)))
            group = [self.node() for _ in range(self.rng.randint(1, 3))]
            self.call(session, label, "aggregate_nn", group, k,
                      self.rng.choice(("sum", "max")))
        if not undirected:
            return
        for method in session.methods:
            self.call(session, label, "continuous_rknn", self.route(),
                      self.rng.randint(1, 3), method=method)
        for method in ("eager", "lazy", "eager-m"):
            self.call(session, label, "bichromatic_rknn", self.location(),
                      self.rng.randint(1, 3), method=method,
                      exclude=frozenset(self.rng.sample(range(1000, 1004), 1)))

    def run(self) -> list[str]:
        db = self.db
        self.call(db, "head", "materialize", 4)
        if hasattr(db, "attach_reference"):
            if self.on_edges:
                reference = EdgePointSet({1000 + i: self.edge_location() for i in range(4)})
            else:
                nodes = self.rng.sample(range(self.graph.num_nodes), 4)
                reference = NodePointSet({1000 + i: n for i, n in enumerate(nodes)})
            self.call(db, "head", "attach_reference", reference)
            self.call(db, "head", "materialize_reference", 3)
        self.reads(db, "head")
        taken = set() if self.on_edges else {db.points.node_of(p) for p in self.points}
        for _ in range(3):
            if self.on_edges:
                location = self.edge_location()
            else:
                location = self.rng.choice(
                    [n for n in range(self.graph.num_nodes) if n not in taken])
                taken.add(location)
            if self.call(db, "head", "insert_point", self.next_pid, location):
                self.points.add(self.next_pid)
            self.next_pid += 1
        victim = self.rng.choice(sorted(self.points))
        if self.call(db, "head", "delete_point", victim):
            self.points.discard(victim)
        self.reads(db, "head")
        self.reads(db.read_clone(), "clone")
        digest = hashlib.sha256("\n".join(self.records).encode()).hexdigest()
        self.records.append(json.dumps(
            {"seed": self.seed, "facade": self.name, "digest": digest}, sort_keys=True))
        return self.records


def _show(args, kwargs) -> str:
    parts = [repr(_plain(a)) for a in args]
    parts += [f"{key}={_plain(value)!r}" for key, value in kwargs.items()]
    return f"({', '.join(parts)})"


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (NodePointSet, EdgePointSet)):
        return sorted(value.items())
    return value


def _answer(result):
    """The JSON form of a facade result (``None`` for bare writes)."""
    for field in ("points", "neighbors", "affected_nodes", "landmarks"):
        if hasattr(result, field):
            return {field: _plain(getattr(result, field))}
    return None


def _facades(seed: int):
    """``(name, database, graph, points on edges)`` for every facade."""
    rng = random.Random(seed)
    num_nodes = rng.randint(30, 60)
    graph = _graph(rng, num_nodes)
    digraph = _digraph(rng, num_nodes)
    nodes = rng.sample(range(num_nodes), num_nodes // 4)
    points = NodePointSet({pid: node for pid, node in enumerate(nodes)})
    edges = sorted(graph.edges())
    on_edges = {}
    for pid in range(num_nodes // 4):
        u, v, weight = rng.choice(edges)
        on_edges[pid] = (u, v, rng.randint(0, int(2 * weight)) / 2)
    oracle = GraphDatabase(graph, points, **PAGING)
    oracle.build_oracle(3, seed=seed)
    return [
        ("disk", GraphDatabase(graph, points, **PAGING), graph, False),
        ("disk-edge", GraphDatabase(graph, EdgePointSet(on_edges), **PAGING), graph, True),
        ("disk+oracle", oracle, graph, False),
        ("sharded", ShardedDatabase(graph, points, num_shards=2, **PAGING), graph, False),
        ("compact", CompactDatabase(graph, points), graph, False),
        ("directed-disk", DirectedGraphDatabase(digraph, points, **PAGING), digraph, False),
        ("directed-sharded",
         ShardedDirectedDatabase(digraph, points, num_shards=2, **PAGING), digraph, False),
        ("directed-compact", CompactDirectedDatabase(digraph, points), digraph, False),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=12, help="replay seeds 0 to SEEDS-1")
    args = parser.parse_args(argv)
    for seed in range(args.seeds):
        for name, db, graph, on_edges in _facades(seed):
            for line in _Script(seed, name, db, graph, on_edges).run():
                sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
