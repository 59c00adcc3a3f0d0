"""Serving-throughput benchmark: batched engine vs sequential facade.

Builds the harness's default graph (a grid network with data-density
0.1, the Fig. 20 family), draws a repeated data-distributed RkNN
workload, and compares a sequential query loop against
:class:`~repro.engine.engine.QueryEngine` batch execution with a warm
result cache.  This is the PR-acceptance benchmark: batched execution
with 4 workers and a warm cache must beat 2x the sequential
throughput.

Run with::

    python -m repro.bench.throughput
    python -m repro.bench.throughput --nodes 200 --distinct 10 --repeat 3
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.api import METHODS, GraphDatabase
from repro.bench.harness import (
    ThroughputReport,
    run_throughput_benchmark,
    throughput_specs,
)
from repro.datasets.grid import generate_grid
from repro.datasets.workload import place_node_points

#: Default graph size: large enough for non-trivial expansions, small
#: enough that the benchmark finishes in seconds on CI.
DEFAULT_NODES = 400
DEFAULT_DENSITY = 0.1


def default_benchmark_db(
    nodes: int = DEFAULT_NODES,
    density: float = DEFAULT_DENSITY,
    seed: int = 0,
) -> GraphDatabase:
    """The benchmark's default database: a grid network with node points."""
    graph = generate_grid(nodes, average_degree=4.0, seed=seed)
    points = place_node_points(graph, density, seed=seed + 1)
    return GraphDatabase(graph, points)


def run(
    nodes: int = DEFAULT_NODES,
    density: float = DEFAULT_DENSITY,
    distinct: int = 25,
    repeat: int = 4,
    k: int = 2,
    method: str = "eager",
    workers: int = 4,
    seed: int = 0,
    profile: bool = False,
) -> ThroughputReport:
    """Build the default database and run the throughput comparison.

    ``profile`` additionally traces the cold batch and attaches its
    span-level breakdown as ``report.profile`` (see
    :func:`repro.bench.harness.span_breakdown`).
    """
    db = default_benchmark_db(nodes, density, seed=seed)
    specs = throughput_specs(
        db, distinct=distinct, repeat=repeat, k=k, method=method, seed=seed
    )
    return run_throughput_benchmark(db, specs, workers=workers,
                                    profile=profile)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.throughput",
        description="batched QueryEngine vs sequential query throughput",
    )
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--density", type=float, default=DEFAULT_DENSITY)
    parser.add_argument("--distinct", type=int, default=25,
                        help="distinct queries in the workload")
    parser.add_argument("--repeat", type=int, default=4,
                        help="arrivals per distinct query")
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--method", default="eager",
                        choices=METHODS)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", action="store_true",
                        help="trace the cold batch and print its "
                        "span-level breakdown")
    args = parser.parse_args(argv)
    report = run(
        nodes=args.nodes,
        density=args.density,
        distinct=args.distinct,
        repeat=args.repeat,
        k=args.k,
        method=args.method,
        workers=args.workers,
        seed=args.seed,
        profile=args.profile,
    )
    for line in report.summary_lines():
        print(line)
    if report.profile is not None:
        print("cold-batch profile (span name: count, total ms):")
        for name, entry in sorted(report.profile["spans"].items()):
            print(f"  {name}: {entry['count']}x, {entry['total_ms']:.3f} ms")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
