"""Declarative query descriptions consumed by the batch engine.

A :class:`QuerySpec` captures one query -- its kind, location and
parameters -- as an immutable, hashable value.  That buys three things:

* batches are plain sequences of specs, serializable to JSON lines for
  the ``repro batch`` CLI subcommand and replayable workload files;
* the result cache can key on the spec directly (``spec.key()``);
* the admission planner can reorder and group specs freely, since a
  spec carries everything needed to execute it later.

The supported kinds mirror the read-only query surface of
:class:`~repro.api.GraphDatabase` (and, minus ``bichromatic``, of
:class:`~repro.api_directed.DirectedGraphDatabase`):

``knn``
    forward k-nearest-neighbor query (``method`` is ignored);
``rknn``
    monochromatic reverse k-NN with any of the paper's methods; an
    optional ``within`` bound restricts answers to points strictly
    within that network distance of the query;
``bichromatic``
    bichromatic reverse k-NN against the attached reference set (also
    accepts ``within``);
``range``
    ``range-NN(n, k, e)`` with a strict ``radius``;
``continuous``
    continuous RkNN along a ``route`` of adjacent nodes (the union of
    the route nodes' reverse neighbor sets, Section 5.1);
``topk_influence``
    rank every facility (data point) by the size of its reverse k-NN
    set -- optionally weighted per point class (``weights``) and scored
    against the attached reference set (``bichromatic=True``) -- and
    keep the ``limit`` most influential;
``aggregate_nn``
    aggregate nearest neighbors of a query ``group``: rank data points
    by the ``sum`` or ``max`` of their network distances to every group
    member and keep the ``k`` best.

``topk_influence`` is a *group kind*: the engine expands it into a
batch of primitive specs (see :mod:`repro.engine.groups`), so the
vectorized batch kernel and the result cache serve them unchanged.
``aggregate_nn`` is primitive: each facade answers it directly, and the
compact backend's batch kernel serves it beside RkNN specs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import QueryError

#: Query kinds the engine knows how to dispatch.
KINDS = (
    "knn",
    "rknn",
    "bichromatic",
    "range",
    "continuous",
    "topk_influence",
    "aggregate_nn",
)

#: Kinds whose execution method matters (and is part of the cache key).
METHOD_KINDS = ("rknn", "bichromatic", "continuous", "topk_influence")

#: Kinds the engine answers by expanding into a batch of primitive specs
#: (``aggregate_nn`` is primitive: the facades answer it directly).
GROUP_KINDS = ("topk_influence",)

#: ``method`` value asking the engine's planner to pick the cheapest method.
AUTO_METHOD = "auto"

#: Aggregation functions ``aggregate_nn`` understands.
AGG_FUNCS = ("sum", "max")

#: Payload fields every kind must provide (beyond ``kind`` itself).
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "knn": ("query",),
    "rknn": ("query",),
    "bichromatic": ("query",),
    "range": ("query", "radius"),
    "continuous": ("route",),
    "topk_influence": (),
    "aggregate_nn": ("group",),
}

#: Payload fields each kind may additionally provide.  ``method`` is
#: accepted everywhere for wire compatibility but ignored outside
#: :data:`METHOD_KINDS`.
OPTIONAL_FIELDS: dict[str, tuple[str, ...]] = {
    "knn": ("k", "method", "exclude"),
    "rknn": ("k", "method", "exclude", "within"),
    "bichromatic": ("k", "method", "exclude", "within"),
    "range": ("k", "method", "exclude"),
    "continuous": ("k", "method", "exclude"),
    "topk_influence": ("k", "method", "exclude", "limit", "weights",
                       "bichromatic"),
    "aggregate_nn": ("k", "method", "exclude", "agg"),
}

#: All payload fields each kind accepts (required + optional).
ALLOWED_FIELDS: dict[str, tuple[str, ...]] = {
    kind: tuple(sorted(REQUIRED_FIELDS[kind] + OPTIONAL_FIELDS[kind]))
    for kind in KINDS
}

# spec attributes that only apply to some kinds, checked uniformly
_FIELD_KINDS = {
    "radius": ("range",),
    "route": ("continuous",),
    "within": ("rknn", "bichromatic"),
    "group": ("aggregate_nn",),
    "agg": ("aggregate_nn",),
    "limit": ("topk_influence",),
    "weights": ("topk_influence",),
    "bichromatic": ("topk_influence",),
}

Location = int | tuple[int, int, float]


def _bad(message: str) -> QueryError:
    """Wrap ``message`` in the uniform ``invalid query spec:`` format."""
    return QueryError(f"invalid query spec: {message}")


def _inapplicable(field_name: str, kind: str) -> QueryError:
    return _bad(
        f"field {field_name!r} does not apply to kind {kind!r}; "
        f"allowed fields for {kind!r}: {ALLOWED_FIELDS[kind]}"
    )


@dataclass(frozen=True)
class QuerySpec:
    """One read-only query, as data.

    Attributes
    ----------
    kind:
        One of :data:`KINDS`.
    query:
        A node id, or a ``(u, v, pos)`` edge location for unrestricted
        networks.  Derived (not supplied) for ``continuous`` (the
        route's first node) and ``aggregate_nn`` (the group's first
        member); ``None`` for ``topk_influence``.
    k:
        Neighborhood size (>= 1).  For ``aggregate_nn`` this is the
        number of aggregate neighbors returned.
    method:
        Processing method for (bichromatic) RkNN kinds; ``"auto"``
        defers the choice to the engine's calibrating planner.  Ignored
        by ``knn`` and ``range``.
    radius:
        Range bound, required by (and only by) ``range``.
    exclude:
        Point ids hidden for the query's duration.
    route:
        Walk of adjacent node ids, required by (and only by)
        ``continuous``.  ``query`` is derived from the route's first
        node, so locality planning and shard routing treat the route
        like a query starting there.
    group:
        Node ids of the query group, required by (and only by)
        ``aggregate_nn``; duplicates count.  ``query`` is derived from
        the group's first member.
    agg:
        Aggregation function for ``aggregate_nn`` (:data:`AGG_FUNCS`,
        default ``"sum"``).
    limit:
        For ``topk_influence``: keep only the ``limit`` most
        influential facilities (default: all of them).
    weights:
        For ``topk_influence``: per-point class weights as
        ``(point id, weight)`` pairs (or a mapping); unlisted points
        weigh ``1.0``.  A facility's influence becomes the weighted
        size of its reverse neighbor set.
    bichromatic:
        For ``topk_influence``: rank the attached *reference* points by
        the weighted size of their bichromatic reverse k-NN sets
        instead of ranking the data points monochromatically.
    within:
        For ``rknn``/``bichromatic``: keep only reverse neighbors
        strictly within this network distance of the query (the
        range-restricted variants).
    """

    kind: str
    query: Location = None
    k: int = 1
    method: str = "eager"
    radius: float | None = None
    exclude: frozenset[int] = field(default_factory=frozenset)
    route: tuple[int, ...] | None = None
    group: tuple[int, ...] | None = None
    agg: str | None = None
    limit: int | None = None
    weights: tuple[tuple[int, float], ...] | None = None
    bichromatic: bool = False
    within: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise _bad(
                f"unknown query kind {self.kind!r}; allowed kinds: {KINDS}"
            )
        if not isinstance(self.k, int) or self.k < 1:
            raise _bad(f"k must be an integer >= 1, got {self.k!r}")
        for field_name, kinds in _FIELD_KINDS.items():
            value = getattr(self, field_name)
            if value is None or value is False:
                continue
            if self.kind not in kinds:
                raise _inapplicable(field_name, self.kind)
        if self.kind == "continuous":
            if not self.route:
                raise _bad(
                    "continuous queries need a non-empty 'route' of node ids"
                )
            try:
                normalized_route = tuple(int(node) for node in self.route)
            except (TypeError, ValueError) as exc:
                raise _bad(f"bad route {self.route!r}: {exc}") from exc
            object.__setattr__(self, "route", normalized_route)
            # the route's first node stands in as the query location for
            # cache identity, locality planning and shard routing
            object.__setattr__(self, "query", normalized_route[0])
        if self.kind == "aggregate_nn":
            if not self.group:
                raise _bad(
                    "aggregate_nn queries need a non-empty 'group' of node ids"
                )
            try:
                normalized_group = tuple(int(node) for node in self.group)
            except (TypeError, ValueError) as exc:
                raise _bad(f"bad group {self.group!r}: {exc}") from exc
            object.__setattr__(self, "group", normalized_group)
            # like routes, the group's first member anchors locality
            object.__setattr__(self, "query", normalized_group[0])
            agg = self.agg if self.agg is not None else "sum"
            if agg not in AGG_FUNCS:
                raise _bad(
                    f"agg={self.agg!r} is not supported; "
                    f"allowed aggregations: {AGG_FUNCS}"
                )
            object.__setattr__(self, "agg", agg)
        if self.kind == "topk_influence":
            if self.query is not None:
                raise _inapplicable("query", self.kind)
            if self.limit is not None and (
                    not isinstance(self.limit, int) or self.limit < 1):
                raise _bad(f"limit must be an integer >= 1, got {self.limit!r}")
            object.__setattr__(self, "bichromatic", bool(self.bichromatic))
            if self.weights is not None:
                object.__setattr__(
                    self, "weights", _normalize_weights(self.weights)
                )
        elif self.query is None:
            raise _bad(f"{self.kind} queries need a query location")
        if self.query is not None and not isinstance(self.query, int):
            if not isinstance(self.query, (tuple, list)) or len(self.query) != 3:
                raise _bad(f"edge locations are (u, v, pos), got {self.query!r}")
            loc = tuple(self.query)
            try:
                normalized = (int(loc[0]), int(loc[1]), float(loc[2]))
            except (TypeError, ValueError) as exc:
                raise _bad(f"bad edge location {loc!r}: {exc}") from exc
            object.__setattr__(self, "query", normalized)
            if not math.isfinite(self.query[2]):
                raise _bad(f"non-finite edge offset {loc[2]!r}")
        if self.kind == "range":
            if self.radius is None:
                raise _bad(
                    "kind 'range' is missing required field 'radius'; "
                    f"required fields: {REQUIRED_FIELDS['range']}"
                )
            if (not isinstance(self.radius, (int, float))
                    or not math.isfinite(self.radius) or self.radius < 0):
                raise _bad(
                    f"radius must be finite and >= 0, got {self.radius!r}"
                )
        if self.within is not None:
            if (not isinstance(self.within, (int, float))
                    or not math.isfinite(self.within) or self.within < 0):
                raise _bad(
                    f"within must be finite and >= 0, got {self.within!r}"
                )
            object.__setattr__(self, "within", float(self.within))
        object.__setattr__(self, "exclude", frozenset(self.exclude))

    def key(self) -> tuple:
        """Canonical hashable identity of the query (cache key material).

        ``method`` is deliberately part of the key: methods are answer-
        equivalent but not cost-equivalent, and the cache stores results
        together with the cost record of the run that produced them.
        """
        method = self.method if self.kind in METHOD_KINDS else ""
        return (
            self.kind,
            self.query,
            self.k,
            method,
            self.radius,
            self.route,
            tuple(sorted(self.exclude)),
            self.group,
            self.agg,
            self.limit,
            self.weights,
            self.bichromatic,
            self.within,
        )

    # -- JSON round-trip (the `repro batch` wire format) --------------------

    def to_json(self) -> str:
        """One JSON object (one JSONL line) describing this spec."""
        payload: dict = {"kind": self.kind}
        if self.route is not None:
            payload["route"] = list(self.route)
        elif self.group is not None:
            payload["group"] = list(self.group)
        elif self.query is not None:
            payload["query"] = self.query
        payload["k"] = self.k
        if self.kind in METHOD_KINDS:
            payload["method"] = self.method
        if self.radius is not None:
            payload["radius"] = self.radius
        if self.within is not None:
            payload["within"] = self.within
        if self.kind == "aggregate_nn":
            payload["agg"] = self.agg
        if self.limit is not None:
            payload["limit"] = self.limit
        if self.weights:
            payload["weights"] = {str(pid): w for pid, w in self.weights}
        if self.bichromatic:
            payload["bichromatic"] = True
        if self.exclude:
            payload["exclude"] = sorted(self.exclude)
        return json.dumps(payload)

    @classmethod
    def from_payload(cls, payload: Mapping) -> "QuerySpec":
        """Build a spec from a parsed JSON object.

        Every rejection reports the offending key/value together with
        the allowed set, routed through the per-kind field tables
        (:data:`REQUIRED_FIELDS` / :data:`ALLOWED_FIELDS`), so group
        kinds without a ``query`` validate cleanly.
        """
        if "kind" not in payload:
            raise _bad(
                f"missing required field 'kind'; allowed kinds: {KINDS}"
            )
        kind = payload["kind"]
        if kind not in KINDS:
            raise _bad(f"unknown query kind {kind!r}; allowed kinds: {KINDS}")
        allowed = ALLOWED_FIELDS[kind]
        unknown = sorted(set(payload) - set(allowed) - {"kind"})
        if unknown:
            raise _bad(
                f"unknown field(s) {unknown} for kind {kind!r}; "
                f"allowed fields for {kind!r}: {allowed}"
            )
        for name in REQUIRED_FIELDS[kind]:
            if name not in payload:
                raise _bad(
                    f"kind {kind!r} is missing required field {name!r}; "
                    f"required fields for {kind!r}: {REQUIRED_FIELDS[kind]}"
                )
        query = payload.get("query")
        if isinstance(query, list):
            query = tuple(query)
        route = payload.get("route")
        if route is not None and not isinstance(route, (list, tuple)):
            raise _bad(
                f"route={route!r} is invalid; routes are arrays of node ids"
            )
        group = payload.get("group")
        if group is not None and not isinstance(group, (list, tuple)):
            raise _bad(
                f"group={group!r} is invalid; groups are arrays of node ids"
            )
        try:
            return cls(
                kind=kind,
                query=query,
                k=int(payload.get("k", 1)),
                method=payload.get("method", "eager"),
                radius=payload.get("radius"),
                exclude=frozenset(int(pid) for pid in payload.get("exclude", ())),
                route=tuple(route) if route is not None else None,
                group=tuple(group) if group is not None else None,
                agg=payload.get("agg"),
                limit=payload.get("limit"),
                weights=payload.get("weights"),
                bichromatic=bool(payload.get("bichromatic", False)),
                within=payload.get("within"),
            )
        except (TypeError, ValueError) as exc:
            # bad field types (k="a", exclude=["x"], radius=[]) must
            # surface as QueryError so CLI callers report a clean line
            raise _bad(f"bad field value: {exc}") from exc

    @classmethod
    def from_mapping(cls, payload: Mapping) -> "QuerySpec":
        """Alias of :meth:`from_payload` (the original name)."""
        return cls.from_payload(payload)

    @classmethod
    def from_json(cls, line: str) -> "QuerySpec":
        """Parse one JSONL line into a spec."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise QueryError(f"bad query spec JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise QueryError(f"query specs are JSON objects, got {type(payload).__name__}")
        return cls.from_payload(payload)


def _normalize_weights(weights) -> tuple[tuple[int, float], ...]:
    """Normalize a weights mapping / pair-iterable to sorted pairs."""
    if isinstance(weights, Mapping):
        items = weights.items()
    else:
        items = list(weights)
    try:
        pairs = tuple(sorted((int(pid), float(w)) for pid, w in items))
    except (TypeError, ValueError) as exc:
        raise _bad(
            f"weights={weights!r} is invalid; weights map point ids to "
            f"finite numbers"
        ) from exc
    for _, w in pairs:
        if not math.isfinite(w):
            raise _bad(
                f"weights={weights!r} is invalid; weights map point ids to "
                f"finite numbers"
            )
    seen: set[int] = set()
    for pid, _ in pairs:
        if pid in seen:
            raise _bad(f"weights list point id {pid} more than once")
        seen.add(pid)
    return pairs


def load_specs(lines: Iterable[str]) -> list[QuerySpec]:
    """Parse a JSONL stream (blank lines and ``#`` comments skipped)."""
    specs = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            specs.append(QuerySpec.from_json(line))
        except QueryError as exc:
            raise QueryError(f"line {lineno}: {exc}") from exc
    return specs
