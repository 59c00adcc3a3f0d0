"""Vectorized batch RkNN kernel over the compact CSR flat arrays.

The scalar paper algorithms answer one query at a time through Python
heap loops.  This module answers a whole *batch* of monochromatic
RkNN / continuous-RkNN queries in one numpy pass over the CSR arrays:

1. **Candidate rows.**  Every data point is one row of a
   ``(P, |V|)`` label table.  All P single-source expansions run
   together as a *bucketed* Dijkstra: per round, every frontier entry
   whose tentative distance lies below ``row_min + min_edge_weight``
   is final (no shorter path can still reach it, since every further
   relaxation adds at least the minimum edge weight to a label that is
   at least ``row_min``), so the whole bucket settles at once and the
   relaxation of all settled entries is one vectorized scatter-min.
   A round touches only its frontier -- a flat array of the queued
   ``row * |V| + node`` ids -- and the edges it relaxes, never the
   whole table; the label table and its settled / queued flag tables
   are the only per-batch allocations of that size.
2. **Adaptive bound.**  A row stops expanding once its ``m``-th
   nearest competitor settles, where ``m = max(k_b + |exclude_b|)``
   over the queries the row is still a candidate for -- the same
   radius the scalar ``verify`` proves sufficient: a point's k-th
   nearest competitor is never farther than its ``m``-th nearest
   point, so every distance a membership decision reads is settled
   (exact) by then.
3. **Membership.**  Point ``p`` is a reverse neighbor of query ``q``
   iff fewer than ``k`` non-excluded competitors are *strictly*
   closer to ``p`` than ``q`` -- equivalently, with ``t`` the k-th
   smallest competitor label, iff ``d(p, q) <= t``.  All distances in
   the comparison come from ``p``'s own row, exactly as the scalar
   ``verify`` compares only within one expansion, so the answers are
   bitwise identical to the scalar backends (same floating-point path
   folds, same exact ``<=``).
4. **Oracle filtering.**  With a landmark oracle attached, whole rows
   are dropped before the expansion when the ALT bounds prove them
   non-members of *every* query in the batch, under the same
   ``EPS``-band guard as :mod:`repro.oracle.prune` -- answer
   preserving by the same argument, and gated by the same
   :func:`~repro.oracle.prune.scan_is_profitable` cost rule.

The kernel charges the scalar cost model honestly: every settled
``(row, node)`` entry counts one node visit, one heap pop and the
node's degree in expanded edges (the charge the scalar Dijkstra makes
when it de-heaps that node), every label improvement one heap push,
every evaluated ``(query, candidate)`` pair one verification, and the
compact backend's I/O stays zero.  Shared expansion work is split
evenly across the batch so the per-query cost records sum exactly to
the work performed.

The same kernel serves directed databases: rows expand over the
*out*-arc CSR (distances ``d(p -> .)``), and the membership test reads
``d(p -> q)`` against the competitor labels ``d(p -> x)`` -- the
directed RkNN definition.

numpy is optional: :func:`numpy_available` reports whether the
vectorized path can run, and the facades fall back to the scalar
per-spec loop when it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.numeric import EPS
from repro.oracle.bounds import LowerOnlyBounds
from repro.oracle.prune import scan_is_profitable
from repro.storage.stats import CostTracker

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

#: Counter fields of the shared expansion work, split evenly across
#: the batch so per-query records sum to the total charged.
_SHARED_FIELDS = ("nodes_visited", "edges_expanded", "heap_pushes", "heap_pops")


def numpy_available() -> bool:
    """Whether the vectorized kernel can run (numpy is importable)."""
    return _np is not None


@dataclass(frozen=True)
class BatchRequest:
    """One RkNN membership question posed to the batch kernel.

    Attributes
    ----------
    sources:
        The query's source nodes: ``(query,)`` for a point query, the
        route's nodes for a continuous query (a point qualifies
        against its *nearest* route node, matching the scalar route
        semantics).
    k:
        Neighborhood size (>= 1).
    exclude:
        Point ids hidden for this request's duration.
    """

    sources: tuple[int, ...]
    k: int
    exclude: frozenset[int]


def _split_shared(charges: list[CostTracker], totals: dict) -> None:
    """Distribute the batch's shared expansion counters evenly.

    Division remainders go to the leading requests, so the per-request
    records always sum exactly to the charged totals (the cost model
    never undercounts).
    """
    count = len(charges)
    for name, total in totals.items():
        base, extra = divmod(int(total), count)
        for i, charge in enumerate(charges):
            setattr(charge, name,
                    getattr(charge, name) + base + (1 if i < extra else 0))


def _oracle_row_filter(oracle, pnodes, pids, requests, eligible, charges):
    """Drop candidate rows the ALT bounds prove non-members everywhere.

    For each still-eligible ``(row, request)`` pair the filter compares
    the oracle's *lower* bound on ``d(p, q)`` against the inflated
    ``k``-th smallest *upper* bound on the competitor distances: when
    the lower bound clears it beyond the ``EPS`` tie band, the true
    distance provably exceeds the true membership threshold and the
    pair is pruned (charged as ``oracle_prunes``).  Mirrors the scalar
    verification short-circuit of :mod:`repro.oracle.prune`, batched.
    """
    np = _np
    labels = oracle.labels_matrix()
    point_labels = labels[pnodes]  # (P, L)
    num_points = len(pids)
    with np.errstate(invalid="ignore"):
        # competitor upper bounds: min over landmarks of label sums
        ub = (point_labels[:, None, :] + point_labels[None, :, :]).min(axis=2)
    ub[pnodes[:, None] == pnodes[None, :]] = 0.0  # same node: exact zero
    for b, request in enumerate(requests):
        lower = None
        for source in request.sources:
            with np.errstate(invalid="ignore"):
                gap = np.abs(point_labels - labels[source])
            gap = np.where(np.isnan(gap), 0.0, gap)  # both ends unreachable
            bound = gap.max(axis=1)
            bound[pnodes == source] = 0.0
            lower = bound if lower is None else np.minimum(lower, bound)
        competitors = ub.copy()
        competitors[np.arange(num_points), np.arange(num_points)] = np.inf
        excluded = [c for c, pid in enumerate(pids) if pid in request.exclude]
        if excluded:
            competitors[:, excluded] = np.inf
        if request.k <= num_points:
            threshold = np.partition(
                competitors, request.k - 1, axis=1)[:, request.k - 1]
        else:
            threshold = np.full(num_points, np.inf)
        inflated = np.where(np.isinf(threshold), threshold,
                            threshold + EPS * np.abs(threshold))
        # strictly_less(inflated, lower), vectorized with exact inf rules
        margin = EPS * np.maximum(np.abs(inflated), np.abs(lower))
        either_inf = np.isinf(inflated) | np.isinf(lower)
        prune = np.where(either_inf, inflated < lower,
                         inflated < lower - margin)
        prune &= eligible[:, b]
        pruned = int(prune.sum())
        if pruned:
            charges[b].oracle_prunes += pruned
            eligible[prune, b] = False


def batch_rknn_kernel(
    flat,
    num_nodes: int,
    point_items: Sequence[tuple[int, int]],
    requests: Sequence[BatchRequest],
    oracle=None,
) -> tuple[list[list[int]], list[CostTracker]]:
    """Answer a batch of RkNN membership questions in one numpy pass.

    Parameters
    ----------
    flat:
        ``(offsets, targets, weights)`` numpy views of the CSR arrays
        the candidate expansions traverse (the undirected adjacency,
        or the out-arc triple of a directed kernel).
    num_nodes:
        Node count ``|V|`` of the network.
    point_items:
        ``(pid, node)`` pairs of the data set P, in a deterministic
        order (answers are returned as sorted pid lists regardless).
    requests:
        The batched :class:`BatchRequest` values.
    oracle:
        Optional :class:`~repro.oracle.oracle.DistanceOracle`; consulted
        for row pre-filtering only when
        :func:`~repro.oracle.prune.scan_is_profitable` says the scan
        pays for itself, and never in the degraded
        :class:`~repro.oracle.bounds.LowerOnlyBounds` form, whose
        labels no longer give upper bounds.

    Returns
    -------
    (answers, charges)
        Per-request sorted point-id lists, plus one
        :class:`~repro.storage.stats.CostTracker` per request whose
        fields sum to the batch's total charged work.
    """
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
    # the row filter sums labels into competitor upper bounds, which a
    # lower-only oracle (its labels predate an edge deletion) lacks
    if (oracle is not None and not isinstance(oracle, LowerOnlyBounds)
            and scan_is_profitable(num_points, oracle.num_landmarks,
                                   num_nodes)):
        _oracle_row_filter(oracle, pnodes, pids, requests, eligible, charges)

    # per-row expansion budget: settle the m nearest competitors, with
    # m covering every query the row is still a candidate for
    needed = np.array([request.k + len(request.exclude)
                       for request in requests], dtype=np.int64)
    m_rows = np.where(eligible, needed[None, :], 0).max(axis=1)

    # the label table and its flags, addressed by flat ``row * |V| +
    # node`` ids; the frontier lists the ids of unsettled labels that
    # may still decide a membership, and ``queued`` flags its members
    # so a relaxation appends each id at most once
    dist = np.full((num_points, num_nodes), np.inf)
    flat_dist = dist.reshape(-1)
    settled = np.zeros(num_points * num_nodes, dtype=bool)
    queued = np.zeros(num_points * num_nodes, dtype=bool)
    live = np.nonzero(m_rows > 0)[0]
    frontier = live * num_nodes + pnodes[live]
    flat_dist[frontier] = 0.0
    queued[frontier] = True
    bound = np.full(num_points, np.inf)
    competitor_count = np.zeros(num_points, dtype=np.int64)
    min_weight = float(weights.min()) if weights.size else np.inf

    totals = {name: 0 for name in _SHARED_FIELDS}
    while True:
        rows = frontier // num_nodes
        labels = flat_dist[frontier]
        # a label beyond its row's bound can never decide a membership;
        # it leaves the frontier until a relaxation brings it within
        beyond = labels > bound[rows]
        if beyond.any():
            queued[frontier[beyond]] = False
            within = ~beyond
            frontier, rows = frontier[within], rows[within]
            labels = labels[within]
        if frontier.size == 0:
            break
        row_min = np.full(num_points, np.inf)
        np.minimum.at(row_min, rows, labels)
        # one bucket per row: labels below row_min + min_weight are
        # final -- any future relaxation lands at or above that line
        process = labels < (row_min + min_weight)[rows]
        picked = frontier[process]
        rows_idx = rows[process]
        nodes_idx = picked % num_nodes
        source_dist = labels[process]
        frontier = frontier[~process]
        queued[picked] = False
        settled[picked] = True

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
        candidate = np.repeat(source_dist, degrees) + weights[edge_index]
        row_rep = np.repeat(rows_idx, degrees)
        linear = row_rep * num_nodes + targets[edge_index]
        # settled labels are final, and labels beyond the row's bound
        # can never decide a membership -- both relaxations are skipped
        keep = (candidate <= bound[row_rep]) & ~settled[linear]
        if not keep.any():
            continue
        unique, inverse = np.unique(linear[keep], return_inverse=True)
        best = np.full(len(unique), np.inf)
        np.minimum.at(best, inverse, candidate[keep])
        improved = best < flat_dist[unique]
        winners = unique[improved]
        flat_dist[winners] = best[improved]
        totals["heap_pushes"] += len(winners)
        fresh = winners[~queued[winners]]
        queued[fresh] = True
        frontier = np.concatenate((frontier, fresh))

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
