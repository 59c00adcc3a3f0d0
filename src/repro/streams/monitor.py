"""Continuous RkNN monitoring under point insertions and deletions.

:class:`RnnMonitor` registers a set of standing queries (nodes of the
graph) and maintains, for each, the exact monochromatic ``RkNN``
result while data points come and go.  Design:

* **Distance fields.**  The graph is static, so ``d(q, n)`` for a
  standing query ``q`` and any node ``n`` never changes.  One
  single-source Dijkstra per query at registration time materializes
  the field (an in-memory planning structure, like the paper's node-id
  index).
* **Neighbor radii.**  A point ``p`` on node ``n`` belongs to
  ``RkNN(q)`` iff fewer than ``k`` other points are strictly closer to
  ``p`` than ``q`` -- equivalently ``d(p, q)`` is within ``p``'s
  k-th-other-point radius.  The radius comes straight from the
  materialized K-NN list of ``n`` (capacity ``k + 1``: the list also
  holds ``p`` itself at distance 0), which the Section 4.1 insert and
  delete algorithms keep up to date.

Each update therefore costs one materialized-list maintenance pass
(local network expansion) plus a constant-time membership check per
(point, query) pair -- no query is ever re-run from scratch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.core.numeric import tie_threshold
from repro.errors import QueryError
from repro.facade import DirectedFacade, FacadeBase, Location
from repro.paths.dijkstra import single_source_distances

_INF = float("inf")


@dataclass(frozen=True)
class MembershipEvent:
    """One result-set change produced by a stream update."""

    query_id: int
    point_id: int
    kind: str  # "join" or "leave"


class _StandingQueries:
    """Standing queries over an undirected restricted database.

    Holds one distance field ``d(q, n)`` per standing query, feeds the
    stream's updates to the database and diffs each re-evaluation
    against the last.  A subclass supplies only its membership rule,
    :meth:`_closer_counter`.  Directed networks are refused: a field
    from ``q`` gives ``d(q -> n)``, not the ``d(n -> q)`` the rule
    needs.  So is a network changed after registration: once an edge
    write has replaced the database's adjacency store, the fields are
    stale, and every update and refresh raises
    :class:`~repro.errors.QueryError` before writing anything.
    """

    #: Fewest standing queries the membership rule needs, and the error
    #: raised below that.
    _min_queries = (1, "at least one standing query is required")

    def __init__(self, db: FacadeBase, queries: dict[int, int], k: int = 1):
        name = type(self).__name__
        if isinstance(db, DirectedFacade):
            raise QueryError(
                f"{name} serves undirected networks: its distance fields "
                "assume d(q, n) = d(n, q), which a directed network breaks"
            )
        if not db.restricted:
            raise QueryError(f"{name} requires a restricted network")
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        fewest, message = self._min_queries
        if len(queries) < fewest:
            raise QueryError(message)
        for qid, node in queries.items():
            if not 0 <= node < db.graph.num_nodes:
                raise QueryError(f"query {qid} node {node} out of range")
        self.db = db
        self.k = k
        # an edge write swaps the store; point writes keep it
        self._network = db.disk
        self._prepare()
        self._queries = dict(queries)
        self._fields = {
            qid: single_source_distances(db.graph, node)
            for qid, node in queries.items()
        }
        self._results: dict[int, set[int]] = {qid: set() for qid in queries}
        self._refresh()

    def _prepare(self) -> None:
        """Set the database up for the membership rule (hook)."""

    # -- stream updates ---------------------------------------------------------

    def insert(self, pid: int, location: Location) -> list[MembershipEvent]:
        """Feed a point insertion; returns the membership changes."""
        self._require_network()
        self.db.insert_point(pid, location)
        return self._refresh()

    def delete(self, pid: int) -> list[MembershipEvent]:
        """Feed a point deletion; returns the membership changes."""
        self._require_network()
        self.db.delete_point(pid)
        return self._refresh()

    def refresh(self) -> list[MembershipEvent]:
        """Re-evaluate after an out-of-band database update.

        For callers that apply ``insert_point`` / ``delete_point``
        directly on the database (the serving tier applies one mutation
        and refreshes every subscribed monitor): recomputes every
        membership and returns the changes since the last evaluation.
        """
        self._require_network()
        return self._refresh()

    def _require_network(self) -> None:
        """Raise once the database's network differs from the one the
        distance fields were computed over."""
        if self.db.disk is not self._network:
            raise QueryError(
                f"{type(self).__name__} was registered over another "
                "network: an edge write has replaced it since, so the "
                "distance fields are stale"
            )

    # -- results and aggregates ---------------------------------------------------

    def result(self, qid: int) -> list[int]:
        """Current members of a standing query's result (sorted)."""
        try:
            return sorted(self._results[qid])
        except KeyError:
            raise QueryError(f"unknown standing query {qid}") from None

    def counts(self) -> dict[int, int]:
        """``query id -> result size`` for every standing query."""
        return {qid: len(members) for qid, members in self._results.items()}

    def total_influence(self) -> int:
        """Sum of result sizes over all standing queries ([10]'s aggregate)."""
        return sum(len(members) for members in self._results.values())

    def most_influential(self) -> tuple[int, int]:
        """``(query id, result size)`` of the largest current result."""
        qid = max(self._results, key=lambda q: (len(self._results[q]), -q))
        return qid, len(self._results[qid])

    # -- membership evaluation ------------------------------------------------------

    def _refresh(self) -> list[MembershipEvent]:
        """Re-evaluate all (point, query) memberships; emit the diffs."""
        fresh: dict[int, set[int]] = {qid: set() for qid in self._queries}
        for pid in self.db.points.ids():
            node = self.db.points.node_of(pid)
            closer = self._closer_counter(pid, node)
            for qid, field in self._fields.items():
                dq = field.get(node)
                if dq is None:
                    continue  # query cannot reach the point
                if closer(qid, tie_threshold(dq)) < self.k:
                    fresh[qid].add(pid)
        events: list[MembershipEvent] = []
        for qid, members in fresh.items():
            for pid in sorted(members - self._results[qid]):
                events.append(MembershipEvent(qid, pid, "join"))
            for pid in sorted(self._results[qid] - members):
                events.append(MembershipEvent(qid, pid, "leave"))
        self._results = fresh
        return events

    def _closer_counter(self, pid: int, node: int):
        """``(qid, threshold) -> count`` of the competitors of point
        ``pid`` (on ``node``) strictly closer to it than ``threshold``."""
        raise NotImplementedError


class BichromaticRnnMonitor(_StandingQueries):
    """Continuous *bichromatic* RkNN results for standing queries.

    The standing queries double as the reference set Q (the paper's
    Fig. 1b: restaurants compete with rival restaurants): a data point
    belongs to ``bRkNN(q)`` when fewer than ``k`` *other standing
    queries* are strictly closer to it than ``q``.  Because queries are
    fixed and the graph is static, membership depends only on the
    precomputed distance fields -- each stream update costs one field
    lookup per (point, query) pair and no network traversal at all.
    """

    _min_queries = (
        2,
        "bichromatic monitoring needs at least two standing queries "
        "(each competes with the others)",
    )

    def _closer_counter(self, pid: int, node: int):
        """Count the *other standing queries* strictly closer to the point."""
        near = {qid: field.get(node, _INF) for qid, field in self._fields.items()}
        return lambda qid, threshold: sum(
            1 for other, dist in near.items() if other != qid and dist < threshold
        )


class RnnMonitor(_StandingQueries):
    """Exact continuous RkNN results for a set of standing queries.

    Register ``queries`` (query id -> node id) over ``db``.  The
    database must be undirected and restricted (points on nodes).  The
    monitor materializes K-NN lists of capacity ``k + 1`` if the
    database has none; an existing materialization must already
    satisfy that capacity.
    """

    def _prepare(self) -> None:
        """Materialize (or check) the K-NN lists the radii come from."""
        mat = self.db.materialized
        if mat is None:
            self.db.materialize(self.k + 1)
        elif mat.capacity < self.k + 1:
            raise QueryError(
                f"existing materialization capacity {mat.capacity} "
                f"< k + 1 = {self.k + 1}"
            )

    def _closer_counter(self, pid: int, node: int):
        """Count the point's *other data points* strictly closer to it.

        Their distances come from the materialized list of the point's
        node, which holds the point itself at distance 0 plus its ``k``
        nearest other points (capacity ``k + 1``).
        """
        others = sorted(
            dist for other, dist in self.db.materialized.get(node) if other != pid
        )
        return lambda qid, threshold: bisect_left(others, threshold)
