"""Wire format of the serving tier: JSON lines over TCP, plus HTTP GETs.

One connection carries a stream of newline-delimited JSON objects.
Every request is an object with an ``op`` field:

``query``
    the remaining fields form a :class:`~repro.engine.spec.QuerySpec`
    mapping (``kind``, ``query`` / ``route`` / ``group``, ``k``,
    ``method``, ``radius``, ``exclude``, ...), or a single qlang
    ``statement`` string compiled server-side; the response carries
    the answer and the update generation it was computed at.  A
    truthy ``trace`` envelope field (or an ``EXPLAIN``-prefixed
    statement) makes the response additionally carry the executed
    span tree as ``trace`` (and, for ``EXPLAIN``, the compiled plan
    as ``plan``) -- see :mod:`repro.obs.trace`;
``insert`` / ``delete``
    point mutations (``pid`` plus ``location`` for inserts); the
    response carries the *new* generation;
``compact``
    folds a delta-overlay database's pending mutation log into a
    fresh immutable base (compact backend only); the response carries
    the folded operation count and the new snapshot stamp;
``subscribe``
    registers standing RkNN queries (``queries``: query id -> node id,
    ``k``); after the acknowledgment the server pushes one
    ``membership`` event object per result-set change caused by any
    later mutation, interleaved with the connection's responses;
``metrics`` / ``healthz``
    server introspection (also served as HTTP ``GET /metrics`` and
    ``GET /healthz`` on the same port, for curl and probes).

Responses echo the request's optional ``id`` and always carry a
``status``: ``ok``, ``overloaded`` (admission control shed the request
-- retry later) or ``error`` (the request was invalid; the connection
stays usable).  Pushed events carry an ``event`` field instead of
``status``.

Over a delta-overlay database (the compact backend) every ``query``,
``insert``, ``delete`` and ``compact`` response additionally carries
the snapshot stamp it was computed at as ``base_generation`` /
``delta_epoch`` -- the pair names the exact immutable state (base
arrays plus log prefix) that produced the answer, which is what the
linearizability battery replays against.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.engine.spec import QuerySpec
from repro.errors import QueryError

#: Request operations understood by the server.
OPS = ("query", "insert", "delete", "compact", "subscribe", "metrics",
       "healthz")

#: Fields of a ``query`` request that are protocol envelope, not spec.
_ENVELOPE_FIELDS = frozenset({"op", "id", "trace"})


def encode(payload: Mapping) -> bytes:
    """Serialize one protocol object to its wire line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one wire line into a protocol object.

    Raises :class:`~repro.errors.QueryError` on malformed input so the
    server can answer with a clean ``error`` response instead of
    dropping the connection.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise QueryError(f"request is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise QueryError(f"bad request JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise QueryError(
            f"requests are JSON objects, got {type(payload).__name__}"
        )
    return payload


def request_query(payload: Mapping) -> tuple[QuerySpec, bool, bool]:
    """Extract ``(spec, trace, explain)`` from a ``query`` request.

    A request may carry either raw spec fields or one qlang
    ``statement`` string (``{"op": "query", "statement": "SELECT * FROM
    rknn(query=7, k=2)"}``), which is compiled through
    :func:`repro.qlang.compiler.compile_statements` -- mixing the two
    forms is rejected.

    ``trace`` is the envelope's opt-in flag (``{"trace": true}``): the
    response will carry the executed span tree.  ``explain`` is set by
    an ``EXPLAIN``-prefixed statement and implies a trace plus the
    compiled plan in the response.
    """
    fields = {key: value for key, value in payload.items()
              if key not in _ENVELOPE_FIELDS}
    trace = bool(payload.get("trace"))
    statement = fields.pop("statement", None)
    if statement is not None:
        if fields:
            raise QueryError(
                f"a 'statement' query takes no spec fields, "
                f"got {sorted(fields)}"
            )
        if not isinstance(statement, str):
            raise QueryError(
                f"'statement' is a qlang string, got "
                f"{type(statement).__name__}"
            )
        from repro.qlang import compile_statements

        statements = compile_statements(statement)
        if len(statements) != 1:
            raise QueryError(
                f"a query request takes exactly one statement, "
                f"got {len(statements)}; send one request per statement"
            )
        compiled = statements[0]
        return compiled.spec, trace or compiled.explain, compiled.explain
    return QuerySpec.from_payload(fields), trace, False


def request_spec(payload: Mapping) -> QuerySpec:
    """The :class:`QuerySpec` of a ``query`` request (see
    :func:`request_query`; trace/explain envelope flags are dropped)."""
    return request_query(payload)[0]


def result_payload(result, generation: int,
                   stamp: tuple[int, int] | None = None) -> dict:
    """Serialize a facade result object into a response body.

    ``RnnResult`` answers serialize as ``points`` (sorted point ids),
    ``KnnResult`` answers as ``neighbors`` (``[point id, distance]``
    pairs in ascending distance order) -- exactly the tuples the facade
    returns, so a client can compare byte for byte against a direct
    call at the same generation.  ``stamp`` (delta-overlay backends)
    adds the ``base_generation`` / ``delta_epoch`` snapshot fields.
    """
    body: dict = stamped({"status": "ok", "generation": generation,
                          "io": result.io}, stamp)
    if hasattr(result, "points"):
        body["points"] = list(result.points)
    else:
        body["neighbors"] = [[pid, dist] for pid, dist in result.neighbors]
    return body


def stamped(body: dict, stamp: tuple[int, int] | None) -> dict:
    """Add a delta-overlay snapshot ``stamp`` to ``body`` as its
    ``base_generation`` / ``delta_epoch`` fields (nothing for
    ``None``); return ``body``."""
    if stamp is not None:
        body["base_generation"], body["delta_epoch"] = stamp
    return body


def error_payload(message: str) -> dict:
    """An ``error`` response body."""
    return {"status": "error", "error": str(message)}


def overloaded_payload(depth: int) -> dict:
    """An ``overloaded`` response body (admission control shed)."""
    return {"status": "overloaded", "queue_depth": depth, "retry": True}


def membership_payload(event, generation: int) -> dict:
    """A pushed ``membership`` event body for one result-set change."""
    return {
        "event": "membership",
        "generation": generation,
        "query_id": event.query_id,
        "point_id": event.point_id,
        "kind": event.kind,
    }
