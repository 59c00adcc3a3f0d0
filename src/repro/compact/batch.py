"""Vectorized batch kernel over the compact CSR flat arrays.

The scalar paper algorithms answer one query at a time through Python
heap loops.  This module answers a whole *batch* of monochromatic
RkNN / continuous-RkNN queries and aggregate nearest-neighbor
(``aggregate_nn``) queries in one numpy pass over the CSR arrays.
Every query becomes *rows* of one label table, and one bucket loop
expands them all:

1. **Bucket loop.**  Each row is a single-source expansion, and all
   rows run together as a *bucketed* Dijkstra: per round, every
   frontier entry whose tentative distance lies below
   ``row_min + min_edge_weight`` is final (no shorter path can still
   reach it, since every further relaxation adds at least the minimum
   edge weight to a label that is at least ``row_min``), so the whole
   bucket settles at once and the relaxation of all settled entries is
   one vectorized scatter-min.  A round touches only its frontier -- a
   flat array of the queued ``row * |V| + node`` ids -- and the edges
   it relaxes, never the whole table; the label table and its settled
   / queued flag tables are the only per-batch allocations of that
   size.  Each row carries a *bound*: labels beyond it are never
   relaxed or settled.  After a round's bucket settles, each row kind
   tightens its rows' bounds by its own stop rule.
2. **Candidate rows (RkNN).**  Every data point is one row, shared by
   the batch's RkNN queries.  A row's bound becomes its ``m``-th
   nearest competitor once that settles, where
   ``m = max(k_b + |exclude_b|)`` over the queries the row is still a
   candidate for -- the same radius the scalar ``verify`` proves
   sufficient: a point's k-th nearest competitor is never farther
   than its ``m``-th nearest point, so every distance a membership
   decision reads is settled (exact) by then.
3. **Membership.**  Point ``p`` is a reverse neighbor of query ``q``
   iff fewer than ``k`` non-excluded competitors are *strictly*
   closer to ``p`` than ``q`` -- equivalently, with ``t`` the k-th
   smallest competitor label, iff ``d(p, q) <= t``.  All distances in
   the comparison come from ``p``'s own row, exactly as the scalar
   ``verify`` compares only within one expansion, so the answers are
   bitwise identical to the scalar backends (same floating-point path
   folds, same exact ``<=``).
4. **Member rows (aggregate NN).**  An ``aggregate_nn`` statement
   owns one row per distinct group member, and stops them by the
   threshold rule of aggregate NN search on road networks (Yiu,
   Mamoulis & Papadias, TKDE 2005): a point is *complete* once every
   member row has settled it; every other eligible point's aggregate
   is bounded below by its settled member distances, with each
   unsettled member's frontier floor standing in for the missing
   ones.  Once ``k`` complete aggregates exist, the rows' bound drops
   to the ``EPS``-inflated k-th aggregate, and the statement's rows
   leave the frontier as soon as every incomplete point's lower bound
   exceeds that band -- so a point that may tie the k-th value keeps
   the rows expanding.  The complete points are ranked by
   :func:`~repro.core.nn.rank_aggregate`, the same function the
   scalar path ranks through, over the same settled distances.
5. **Oracle filtering.**  With a landmark oracle attached, whole
   candidate rows are dropped before the expansion when the ALT
   bounds prove them non-members of *every* RkNN query in the batch,
   under the same ``EPS``-band guard as :mod:`repro.oracle.prune` --
   answer preserving by the same argument, and gated by the same
   :func:`~repro.oracle.prune.scan_is_profitable` cost rule.

The kernel charges the scalar cost model honestly: every settled
``(row, node)`` entry counts one node visit, one heap pop and the
node's degree in expanded edges (the charge the scalar Dijkstra makes
when it de-heaps that node), every label improvement one heap push,
every evaluated ``(query, candidate)`` pair one verification, and the
compact backend's I/O stays zero.  Candidate rows are shared, so their
expansion work is split evenly across the batch's RkNN queries; an
aggregate statement is charged its own member rows' work.  The
per-query cost records sum exactly to the work performed.

The same kernel serves directed databases: rows expand over the
*out*-arc CSR (distances ``d(p -> .)``), the membership test reads
``d(p -> q)`` against the competitor labels ``d(p -> x)`` -- the
directed RkNN definition -- and member rows read the forward
distances ``d(member -> p)`` the directed ``knn`` returns.

numpy is optional: :func:`numpy_available` reports whether the
vectorized path can run, and the facades fall back to the scalar
per-spec loop when it cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.nn import rank_aggregate
from repro.core.numeric import EPS
from repro.oracle.bounds import LowerOnlyBounds
from repro.oracle.prune import scan_is_profitable
from repro.storage.stats import CostTracker

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _np = None

#: Counter fields of the expansion work: candidate rows' totals are
#: split evenly across the RkNN queries, member rows' go to their
#: statement, so per-query records sum to the total charged.
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


@dataclass(frozen=True)
class AggregateRequest:
    """One aggregate nearest-neighbor question posed to the batch kernel.

    Attributes
    ----------
    group:
        Node ids of the query group; a repeated member counts once per
        occurrence in a ``sum``.
    k:
        Number of aggregate neighbors returned (>= 1).
    agg:
        ``"sum"`` or ``"max"``.
    exclude:
        Point ids hidden for this request's duration.
    """

    group: tuple[int, ...]
    k: int
    agg: str
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


class _CandidateRows:
    """RkNN candidate rows, first in the table: row ``r`` expands from
    point ``r`` and is shared by every RkNN query of the batch.

    A row's bound becomes the label of its ``m``-th nearest competitor
    once that many competitors have settled; until then it stays
    infinite.  Its work is split evenly across the RkNN queries (one
    owner).
    """

    wide = False
    num_owners = 1

    def __init__(self, indices, requests, pids, pnodes, num_nodes: int,
                 oracle, charges):
        np = _np
        self.indices = indices
        self.requests = [requests[b] for b in indices]
        self.charges = [charges[b] for b in indices]
        self.pids = pids
        self.pnodes = pnodes
        self.eligible = _rknn_eligibility(oracle, num_nodes, pnodes, pids,
                                          self.requests, self.charges)
        # per-row expansion budget: settle the m nearest competitors,
        # with m covering every query the row is still a candidate for
        needed = np.array([request.k + len(request.exclude)
                           for request in self.requests], dtype=np.int64)
        self.m_rows = np.where(self.eligible, needed[None, :], 0).max(axis=1)
        self.sources = pnodes
        self.live = self.m_rows > 0
        self.owner = np.zeros(len(pnodes), dtype=np.int64)
        self.count = np.zeros(len(pnodes), dtype=np.int64)
        self.pts_on_node = np.bincount(pnodes, minlength=num_nodes)
        #: live rows whose m-th competitor has not settled yet
        self.waiting = int(self.live.sum())

    def bind(self, bound, first_row: int, num_nodes: int) -> None:
        """Take this kind's slice of the row bounds (rows ``[0, P)``)."""
        self.bound = bound[:len(self.pnodes)]
        #: whether these are the table's only rows (no filtering needed)
        self.alone = len(bound) == len(self.pnodes)

    def tighten(self, dist, settled, rows_idx, nodes_idx, floor) -> None:
        np = _np
        if not self.waiting:
            return  # every live row has its bound: counts no longer matter
        if not self.alone:
            mine = rows_idx < len(self.pnodes)
            rows_idx, nodes_idx = rows_idx[mine], nodes_idx[mine]
        increments = (self.pts_on_node[nodes_idx]
                      - (nodes_idx == self.pnodes[rows_idx]).astype(np.int64))
        if increments.any():
            np.add.at(self.count, rows_idx, increments)
        m_rows = self.m_rows
        newly = ((self.count >= m_rows) & np.isinf(self.bound)
                 & (m_rows > 0))
        for row in np.nonzero(newly)[0]:
            competitors = dist[row, self.pnodes].copy()
            competitors[row] = np.inf
            m = int(m_rows[row])
            self.bound[row] = np.partition(competitors, m - 1)[m - 1]
            self.waiting -= 1

    def finish(self, dist, settled, totals, answers, charges) -> None:
        """Each RkNN query's sorted member ids and its share of the work."""
        np = _np
        pids, pnodes = self.pids, self.pnodes
        dist = dist[:len(pids)]
        point_labels = dist[:, pnodes]  # (P, P): d(p, x) for every pair
        diagonal = np.arange(len(pids))
        for b, request in enumerate(self.requests):
            candidates = self.eligible[:, b]
            self.charges[b].verifications += int(candidates.sum())
            sources = np.fromiter(request.sources, dtype=np.int64)
            query_dist = dist[:, sources].min(axis=1)
            competitors = point_labels.copy()
            competitors[diagonal, diagonal] = np.inf
            excluded = [c for c, pid in enumerate(pids)
                        if pid in request.exclude]
            if excluded:
                competitors[:, excluded] = np.inf
            if request.k <= len(pids):
                threshold = np.partition(
                    competitors, request.k - 1, axis=1)[:, request.k - 1]
            else:
                threshold = np.full(len(pids), np.inf)
            member = (candidates & np.isfinite(query_dist)
                      & (query_dist <= threshold))
            answers[self.indices[b]] = sorted(
                pids[row] for row in np.nonzero(member)[0])
        _split_shared(self.charges, {
            name: int(totals[field, 0])
            for field, name in enumerate(_SHARED_FIELDS)
        })


class _MemberRows:
    """Aggregate NN member rows: one per distinct member of a statement.

    Statement ``s`` owns a contiguous run of rows, and is charged their
    work (one owner per statement).  After every round the threshold
    rule (see the module docstring) tightens the rows of each
    still-open statement to its inflated k-th complete aggregate, or
    retires them (bound ``-inf``) once no incomplete point can still
    reach it.
    """

    wide = True

    def __init__(self, indices, requests, pids, pnodes):
        np = _np
        self.indices = indices
        self.requests = [requests[b] for b in indices]
        self.pids = pids
        self.pnodes = pnodes
        distinct = [tuple(dict.fromkeys(request.group))
                    for request in self.requests]
        counts = [len(members) for members in distinct]
        self.sources = np.array(
            [member for members in distinct for member in members],
            dtype=np.int64)
        edges = np.cumsum([0] + counts)
        self.starts = edges[:-1]
        #: each statement's ``(first, stop)`` row offsets
        self.spans = list(zip(edges[:-1], edges[1:]))
        self.num_owners = len(self.requests)
        self.owner = np.repeat(np.arange(len(self.requests)), counts)
        #: occurrences of each row's member in its group
        self.repeats = np.array(
            [request.group.count(member)
             for request, members in zip(self.requests, distinct)
             for member in members], dtype=float)[:, None]
        #: each group position's row offset within its statement
        self.positions = [[members.index(member) for member in request.group]
                          for request, members in zip(self.requests, distinct)]
        self.is_sum = np.array(
            [request.agg == "sum" for request in self.requests])[:, None]
        k = np.array([request.k for request in self.requests])
        self.kth = (np.arange(len(k)), np.minimum(k, len(pids)) - 1)
        #: statements asking for more points than exist never fill up
        self.short = k > len(pids)
        self.eligible = np.array(
            [[pid not in request.exclude for pid in pids]
             for request in self.requests], dtype=bool).reshape(len(k), -1)
        self.live = self.eligible.any(axis=1)[self.owner]
        self.open = np.ones(len(k), dtype=bool)

    def bind(self, bound, first_row: int, num_nodes: int) -> None:
        """Take this kind's slice of the row bounds and address its
        ``(row, point node)`` cells in the flat table."""
        np = _np
        self.rows = first_row + np.arange(len(self.sources))
        self.bound = bound[first_row:first_row + len(self.sources)]
        self.cells = self.rows[:, None] * num_nodes + self.pnodes[None, :]

    def tighten(self, dist, settled, rows_idx, nodes_idx, floor) -> None:
        np = _np
        if not self.open.any():
            return
        done = settled[self.cells]
        # a settled member distance is exact; an unsettled one is at
        # least its row's floor (infinite once the row ran dry)
        lower = np.where(done, dist.reshape(-1)[self.cells],
                         floor[self.rows][:, None])
        value = np.where(
            self.is_sum,
            np.add.reduceat(lower * self.repeats, self.starts, axis=0),
            np.maximum.reduceat(lower, self.starts, axis=0),
        )
        complete = np.logical_and.reduceat(done, self.starts, axis=0)
        complete &= self.eligible
        kth = np.sort(np.where(complete, value, np.inf), axis=1)[self.kth]
        kth[self.short] = np.inf
        threshold = kth + EPS * np.abs(kth)
        # an incomplete point within the band may still tie or beat the
        # k-th aggregate; an infinite lower bound never completes
        pending = (value <= threshold[:, None]) & np.isfinite(value)
        pending &= self.eligible & ~complete
        # the k-th aggregate only falls as points complete, so the
        # bounds only tighten
        self.open &= pending.any(axis=1)
        self.bound[:] = np.where(self.open, threshold, -np.inf)[self.owner]

    def finish(self, dist, settled, totals, answers, charges) -> None:
        """Each statement's ranking over its complete points, and its
        own rows' work."""
        np = _np
        flat_dist = dist.reshape(-1)
        for s, (first, stop) in enumerate(self.spans):
            request, b = self.requests[s], self.indices[s]
            cells = self.cells[first:stop]
            complete = settled[cells].all(axis=0) & self.eligible[s]
            columns = np.nonzero(complete)[0]
            table = flat_dist[cells[:, columns]][self.positions[s]]
            answers[b] = rank_aggregate(
                zip((self.pids[c] for c in columns), table.T.tolist()),
                request.k, request.agg,
            )
            for field, name in enumerate(_SHARED_FIELDS):
                setattr(charges[b], name, int(totals[field, s]))


def _expand_rows(flat, num_nodes: int, sources, live, bound, owner,
                 num_owners: int, kinds, wide=None):
    """Run the bucket loop over every live row of the label table.

    Row ``r`` expands from node ``sources[r]`` while its labels stay
    within ``bound[r]``; after each round's bucket settles, every row
    kind's ``tighten`` may lower its rows' bounds (in place).  A row
    flagged in ``wide`` settles a label below its row minimum plus the
    lightest arc into the label's node, rather than plus the lightest
    arc anywhere: fewer, wider rounds (candidate rows keep the narrow
    rule, and with it their round-by-round charges).  Returns the
    ``(rows, |V|)`` label table, the flat settled flags and the
    expansion counters per owner (``owner[r]`` names who is charged
    for row ``r``'s work), as a ``(len(_SHARED_FIELDS), num_owners)``
    array.
    """
    np = _np
    offsets, targets, weights = flat
    num_rows = len(sources)
    # the label table and its flags, addressed by flat ``row * |V| +
    # node`` ids; the frontier lists the ids of unsettled labels that
    # may still matter, and ``queued`` flags its members so a
    # relaxation appends each id at most once
    dist = np.full((num_rows, num_nodes), np.inf)
    flat_dist = dist.reshape(-1)
    settled = np.zeros(num_rows * num_nodes, dtype=bool)
    queued = np.zeros(num_rows * num_nodes, dtype=bool)
    frontier = live * num_nodes + sources[live]
    flat_dist[frontier] = 0.0
    queued[frontier] = True
    min_weight = float(weights.min()) if weights.size else np.inf
    min_in = None
    if wide is not None:
        min_in = np.full(num_nodes, np.inf)
        np.minimum.at(min_in, targets, weights)

    totals = np.zeros((len(_SHARED_FIELDS), num_owners), dtype=np.int64)
    nodes_field = _SHARED_FIELDS.index("nodes_visited")
    edges_field = _SHARED_FIELDS.index("edges_expanded")
    pushes_field = _SHARED_FIELDS.index("heap_pushes")
    pops_field = _SHARED_FIELDS.index("heap_pops")
    while True:
        rows = frontier // num_nodes
        labels = flat_dist[frontier]
        # a label beyond its row's bound cannot matter; it leaves the
        # frontier until a relaxation brings it within
        beyond = labels > bound[rows]
        if beyond.any():
            queued[frontier[beyond]] = False
            within = ~beyond
            frontier, rows = frontier[within], rows[within]
            labels = labels[within]
        if frontier.size == 0:
            break
        row_min = np.full(num_rows, np.inf)
        np.minimum.at(row_min, rows, labels)
        # one bucket per row: labels below row_min + min_weight are
        # final -- any future relaxation lands at or above that floor
        floor = row_min + min_weight
        if min_in is None:
            process = labels < floor[rows]
        else:
            # a wide row's label is final below row_min plus the
            # lightest arc *into* its node, since every future
            # relaxation of that node arrives over one of those arcs
            slack = np.where(wide[rows], min_in[frontier % num_nodes],
                             min_weight)
            process = labels < row_min[rows] + slack
        picked = frontier[process]
        rows_idx = rows[process]
        nodes_idx = picked % num_nodes
        source_dist = labels[process]
        frontier = frontier[~process]
        queued[picked] = False
        settled[picked] = True

        for kind in kinds:
            kind.tighten(dist, settled, rows_idx, nodes_idx, floor)

        degrees = offsets[nodes_idx + 1] - offsets[nodes_idx]
        total_edges = int(degrees.sum())
        if num_owners == 1:
            totals[nodes_field, 0] += len(nodes_idx)
            totals[edges_field, 0] += total_edges
        else:
            owners = owner[rows_idx]
            totals[nodes_field] += np.bincount(owners, minlength=num_owners)
            totals[edges_field] += np.bincount(
                owners, weights=degrees, minlength=num_owners
            ).astype(np.int64)
        if total_edges == 0:
            continue
        edge_index = (np.repeat(offsets[nodes_idx], degrees)
                      + np.arange(total_edges)
                      - np.repeat(np.cumsum(degrees) - degrees, degrees))
        candidate = np.repeat(source_dist, degrees) + weights[edge_index]
        row_rep = np.repeat(rows_idx, degrees)
        linear = row_rep * num_nodes + targets[edge_index]
        # settled labels are final, and labels beyond the row's bound
        # cannot matter -- both relaxations are skipped
        keep = (candidate <= bound[row_rep]) & ~settled[linear]
        linear, candidate = linear[keep], candidate[keep]
        better = candidate < flat_dist[linear]
        if not better.any():
            continue
        # the improved labels, each id once (ascending), then the
        # scatter-min of every candidate into them
        improved = np.sort(linear[better])
        winners = improved[np.concatenate(
            ([True], improved[1:] != improved[:-1]))]
        np.minimum.at(flat_dist, linear[better], candidate[better])
        if num_owners == 1:
            totals[pushes_field, 0] += len(winners)
        else:
            totals[pushes_field] += np.bincount(
                owner[winners // num_nodes], minlength=num_owners)
        fresh = winners[~queued[winners]]
        queued[fresh] = True
        frontier = np.concatenate((frontier, fresh))
    totals[pops_field] = totals[nodes_field]
    return dist, settled, totals


def batch_rknn_kernel(
    flat,
    num_nodes: int,
    point_items: Sequence[tuple[int, int]],
    requests: Sequence[BatchRequest | AggregateRequest],
    oracle=None,
) -> tuple[list, list[CostTracker]]:
    """Answer a batch of RkNN and aggregate NN questions in one numpy pass.

    Parameters
    ----------
    flat:
        ``(offsets, targets, weights)`` numpy views of the CSR arrays
        the rows traverse (the undirected adjacency, or the out-arc
        triple of a directed kernel).
    num_nodes:
        Node count ``|V|`` of the network.
    point_items:
        ``(pid, node)`` pairs of the data set P, in a deterministic
        order (answers are returned as sorted pid lists regardless).
    requests:
        The batched :class:`BatchRequest` (RkNN membership) and
        :class:`AggregateRequest` (aggregate NN) values, in any mix.
    oracle:
        Optional :class:`~repro.oracle.oracle.DistanceOracle`; consulted
        for candidate-row pre-filtering only when
        :func:`~repro.oracle.prune.scan_is_profitable` says the scan
        pays for itself, and never in the degraded
        :class:`~repro.oracle.bounds.LowerOnlyBounds` form, whose
        labels no longer give upper bounds.

    Returns
    -------
    (answers, charges)
        Per request: a sorted point-id list for a
        :class:`BatchRequest`, a ``((pid, aggregate), ...)`` ranking
        for an :class:`AggregateRequest`; plus one
        :class:`~repro.storage.stats.CostTracker` per request whose
        fields sum to the batch's total charged work.
    """
    np = _np
    answers: list = [[] if isinstance(request, BatchRequest) else ()
                     for request in requests]
    charges = [CostTracker() for _ in requests]
    num_points = len(point_items)
    if num_points == 0 or not requests:
        return answers, charges

    pids = [pid for pid, _ in point_items]
    pnodes = np.array([node for _, node in point_items], dtype=np.int64)
    rknn = [b for b, request in enumerate(requests)
            if isinstance(request, BatchRequest)]
    aggregate = [b for b, request in enumerate(requests)
                 if not isinstance(request, BatchRequest)]
    kinds = []
    if rknn:
        kinds.append(_CandidateRows(rknn, requests, pids, pnodes, num_nodes,
                                    oracle, charges))
    if aggregate:
        kinds.append(_MemberRows(aggregate, requests, pids, pnodes))

    # lay the kinds' rows out one after another; ``owner`` names who is
    # charged for a row's work, ``wide`` which rows take the wide rule
    num_rows = sum(len(kind.sources) for kind in kinds)
    bound = np.full(num_rows, np.inf)
    owner = np.empty(num_rows, dtype=np.int64)
    wide = np.empty(num_rows, dtype=bool)
    first_row = num_owners = 0
    for kind in kinds:
        stop = first_row + len(kind.sources)
        kind.bind(bound, first_row, num_nodes)
        owner[first_row:stop] = num_owners + kind.owner
        wide[first_row:stop] = kind.wide
        first_row, num_owners = stop, num_owners + kind.num_owners

    dist, settled, totals = _expand_rows(
        flat, num_nodes, np.concatenate([kind.sources for kind in kinds]),
        np.nonzero(np.concatenate([kind.live for kind in kinds]))[0],
        bound, owner, num_owners, kinds, wide if wide.any() else None,
    )
    num_owners = 0
    for kind in kinds:
        kind.finish(dist, settled,
                    totals[:, num_owners:num_owners + kind.num_owners],
                    answers, charges)
        num_owners += kind.num_owners
    return answers, charges


def _rknn_eligibility(oracle, num_nodes, pnodes, pids, requests, charges):
    """The ``(row, request)`` candidacy table of the RkNN queries.

    A point is never a member of a query that excludes it, and the
    oracle may retire more pairs up front.
    """
    np = _np
    eligible = np.ones((len(pids), len(requests)), dtype=bool)
    for b, request in enumerate(requests):
        if request.exclude:
            rows = [r for r, pid in enumerate(pids) if pid in request.exclude]
            if rows:
                eligible[rows, b] = False
    # the row filter sums labels into competitor upper bounds, which a
    # lower-only oracle (its labels predate an edge deletion) lacks
    if (oracle is not None and not isinstance(oracle, LowerOnlyBounds)
            and scan_is_profitable(len(pids), oracle.num_landmarks,
                                   num_nodes)):
        _oracle_row_filter(oracle, pnodes, pids, requests, eligible, charges)
    return eligible
