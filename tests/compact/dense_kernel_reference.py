"""The dense bucket loop of the batch RkNN kernel, kept as a test reference.

:func:`dense_batch_rknn_kernel` is the batch RkNN kernel with a dense
bucket loop: every round scans the whole ``(P, |V|)`` label table
through an ``active`` mask to find each row's bucket.  The production
kernel (:func:`repro.compact.batch.batch_rknn_kernel`) settles exactly
the same buckets while touching only its frontier, so on every input
the two must return the same answers and charge the same per-request
counters -- the property ``test_batch_kernel_properties.py`` pins.

The row filter and the shared-counter split are imported from the
production module: the reference pins the bucket loop, not them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as _np

from repro.compact.batch import (
    _SHARED_FIELDS,
    BatchRequest,
    _oracle_row_filter,
    _split_shared,
)
from repro.oracle.prune import scan_is_profitable
from repro.storage.stats import CostTracker


def dense_batch_rknn_kernel(
    flat,
    num_nodes: int,
    point_items: Sequence[tuple[int, int]],
    requests: Sequence[BatchRequest],
    oracle=None,
) -> tuple[list[list[int]], list[CostTracker]]:
    """Same contract as :func:`repro.compact.batch.batch_rknn_kernel`."""
    np = _np
    batch = len(requests)
    answers: list[list[int]] = [[] for _ in requests]
    charges = [CostTracker() for _ in requests]
    num_points = len(point_items)
    if num_points == 0 or batch == 0:
        return answers, charges

    offsets, targets, weights = flat
    pids = [pid for pid, _ in point_items]
    pnodes = np.array([node for _, node in point_items], dtype=np.int64)
    pts_on_node = np.bincount(pnodes, minlength=num_nodes)

    # (row, request) candidacy: a point is never a member of a query
    # that excludes it, and the oracle may retire more pairs up front
    eligible = np.ones((num_points, batch), dtype=bool)
    for b, request in enumerate(requests):
        if request.exclude:
            rows = [r for r, pid in enumerate(pids) if pid in request.exclude]
            if rows:
                eligible[rows, b] = False
    if oracle is not None and scan_is_profitable(
            num_points, oracle.num_landmarks, num_nodes):
        _oracle_row_filter(oracle, pnodes, pids, requests, eligible, charges)

    # per-row expansion budget: settle the m nearest competitors, with
    # m covering every query the row is still a candidate for
    needed = np.array([request.k + len(request.exclude)
                       for request in requests], dtype=np.int64)
    m_rows = np.where(eligible, needed[None, :], 0).max(axis=1)

    dist = np.full((num_points, num_nodes), np.inf)
    settled = np.zeros((num_points, num_nodes), dtype=bool)
    active = np.zeros((num_points, num_nodes), dtype=bool)
    live = np.nonzero(m_rows > 0)[0]
    dist[live, pnodes[live]] = 0.0
    active[live, pnodes[live]] = True
    bound = np.full(num_points, np.inf)
    competitor_count = np.zeros(num_points, dtype=np.int64)
    min_weight = float(weights.min()) if weights.size else np.inf

    totals = {name: 0 for name in _SHARED_FIELDS}
    flat_dist = dist.reshape(-1)
    flat_active = active.reshape(-1)
    while True:
        frontier = np.where(active & (dist <= bound[:, None]), dist, np.inf)
        row_min = frontier.min(axis=1)
        if not np.isfinite(row_min).any():
            break
        # one bucket per row: entries below row_min + min_weight are
        # final -- any future relaxation lands at or above that line
        process = frontier < (row_min + min_weight)[:, None]
        rows_idx, nodes_idx = np.nonzero(process)
        settled[rows_idx, nodes_idx] = True
        active[rows_idx, nodes_idx] = False
        source_dist = dist[rows_idx, nodes_idx]

        increments = (pts_on_node[nodes_idx]
                      - (nodes_idx == pnodes[rows_idx]).astype(np.int64))
        if increments.any():
            np.add.at(competitor_count, rows_idx, increments)
        newly = (competitor_count >= m_rows) & np.isinf(bound) & (m_rows > 0)
        for row in np.nonzero(newly)[0]:
            competitors = dist[row, pnodes].copy()
            competitors[row] = np.inf
            m = int(m_rows[row])
            bound[row] = np.partition(competitors, m - 1)[m - 1]

        degrees = offsets[nodes_idx + 1] - offsets[nodes_idx]
        totals["nodes_visited"] += len(nodes_idx)
        totals["heap_pops"] += len(nodes_idx)
        total_edges = int(degrees.sum())
        totals["edges_expanded"] += total_edges
        if total_edges == 0:
            continue
        edge_index = (np.repeat(offsets[nodes_idx], degrees)
                      + np.arange(total_edges)
                      - np.repeat(np.cumsum(degrees) - degrees, degrees))
        heads = targets[edge_index]
        candidate = np.repeat(source_dist, degrees) + weights[edge_index]
        row_rep = np.repeat(rows_idx, degrees)
        # settled labels are final, and labels beyond the row's bound
        # can never decide a membership -- both relaxations are skipped
        keep = (candidate <= bound[row_rep]) & ~settled[row_rep, heads]
        if not keep.any():
            continue
        linear = row_rep[keep] * num_nodes + heads[keep]
        values = candidate[keep]
        unique, inverse = np.unique(linear, return_inverse=True)
        best = np.full(len(unique), np.inf)
        np.minimum.at(best, inverse, values)
        improved = best < flat_dist[unique]
        winners = unique[improved]
        flat_dist[winners] = best[improved]
        flat_active[winners] = True
        totals["heap_pushes"] += int(improved.sum())

    point_labels = dist[:, pnodes]  # (P, P): d(p, x) for every pair
    diagonal = np.arange(num_points)
    for b, request in enumerate(requests):
        candidates = eligible[:, b]
        charges[b].verifications += int(candidates.sum())
        sources = np.fromiter(request.sources, dtype=np.int64)
        query_dist = dist[:, sources].min(axis=1)
        competitors = point_labels.copy()
        competitors[diagonal, diagonal] = np.inf
        excluded = [c for c, pid in enumerate(pids) if pid in request.exclude]
        if excluded:
            competitors[:, excluded] = np.inf
        if request.k <= num_points:
            threshold = np.partition(
                competitors, request.k - 1, axis=1)[:, request.k - 1]
        else:
            threshold = np.full(num_points, np.inf)
        member = candidates & np.isfinite(query_dist) & (query_dist <= threshold)
        answers[b] = sorted(pids[row] for row in np.nonzero(member)[0])

    _split_shared(charges, totals)
    return answers, charges
