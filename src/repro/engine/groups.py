"""Group-kind expansion: compile composite queries onto primitive kinds.

The engine's *group kind* -- ``topk_influence`` -- and the
range-restricted RkNN variants (``within``) are not executed by the
backends directly.  Instead the engine expands each one into a batch
of primitive specs (``rknn``/``bichromatic``/``range``), runs the
batch through its ordinary pipeline (admission planner, result cache,
vectorized batch kernel where the backend offers one), and then
*combines* the sub-results into the composite answer.

``aggregate_nn`` is a primitive kind, not a group kind: every facade
answers it with ``aggregate_nn(group, k, agg, exclude)``, and the
compact backend's batch kernel expands its group members as rows of
the same pass that serves the batch's RkNN specs.

That keeps every backend's query surface unchanged: a compact CSR
snapshot answers ``topk_influence`` with one vectorized
:meth:`~repro.compact.db.CompactDatabase.batch_rknn` sweep, while the
disk backend answers the same spec with per-facility scalar queries --
and both return bitwise-identical rankings.

:func:`expand` is the single entry point: it returns an
:class:`Expansion` (sub-specs plus a combine function) for specs that
need one and ``None`` for primitive specs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.result import KnnResult, RnnResult
from repro.engine.spec import GROUP_KINDS, QuerySpec
from repro.errors import QueryError
from repro.storage.stats import CostTracker


def needs_expansion(spec: QuerySpec) -> bool:
    """True when ``spec`` executes via expansion rather than a backend."""
    return spec.kind in GROUP_KINDS or spec.within is not None


@dataclass(frozen=True)
class Expansion:
    """A group spec lowered onto primitive sub-specs.

    Attributes
    ----------
    subspecs:
        Primitive specs the engine should execute (in any order; the
        combine function receives results in ``subspecs`` order).
    combine:
        Function folding the sub-results (one per sub-spec, in order)
        into the group query's answer.
    """

    subspecs: tuple[QuerySpec, ...]
    combine: Callable[[Sequence], object]


def expand(db, spec: QuerySpec) -> Expansion | None:
    """Lower ``spec`` onto primitive sub-specs, or ``None`` if primitive.

    Parameters
    ----------
    db:
        The backend facade the batch will run against; consulted for
        the facility inventory (``points`` / ``reference_points``).
    spec:
        The spec to expand.  Its ``method`` should already be resolved
        (no ``"auto"``) so the sub-specs inherit a concrete method.
    """
    if spec.kind == "topk_influence":
        return _expand_topk_influence(db, spec)
    if spec.within is not None:
        return _expand_within(db, spec)
    return None


def _merge_cost(results: Sequence) -> CostTracker:
    """Fold the sub-results' cost records into one tracker."""
    return CostTracker.merged(result.counters for result in results)


def _expand_topk_influence(db, spec: QuerySpec) -> Expansion:
    """Rank facilities by the (weighted) size of their RkNN sets."""
    if spec.bichromatic:
        facilities = getattr(db, "reference_points", None)
        if facilities is None:
            raise QueryError(
                "bichromatic topk_influence needs an attached reference set; "
                "call attach_reference() first"
            )
    else:
        facilities = db.points
    ranked = sorted(facilities.items())
    kind = "bichromatic" if spec.bichromatic else "rknn"
    subspecs = tuple(
        QuerySpec(
            kind,
            query=location,
            k=spec.k,
            method=spec.method,
            exclude=spec.exclude | {pid},
        )
        for pid, location in ranked
    )
    weights = dict(spec.weights or ())
    limit = spec.limit if spec.limit is not None else len(ranked)

    def combine(results: Sequence) -> KnnResult:
        scored = []
        for (pid, _), result in zip(ranked, results):
            influence = sum(weights.get(rnn, 1.0) for rnn in result.points)
            scored.append((pid, float(influence)))
        # most influential first; point id breaks ties deterministically
        scored.sort(key=lambda item: (-item[1], item[0]))
        counters = _merge_cost(results)
        return KnnResult(
            neighbors=tuple(scored[:limit]),
            io=sum(result.io for result in results),
            cpu_seconds=sum(result.cpu_seconds for result in results),
            counters=counters,
        )

    return Expansion(subspecs, combine)


def _expand_within(db, spec: QuerySpec) -> Expansion:
    """Range-restrict an RkNN answer by a companion ``range`` probe."""
    base = replace(spec, within=None)
    # the probe ranges over the *data* points; bichromatic excludes name
    # reference points, which mean nothing to a range query
    probe_exclude = spec.exclude if spec.kind == "rknn" else frozenset()
    probe = QuerySpec(
        "range",
        query=spec.query,
        k=max(1, len(db.points)),
        radius=spec.within,
        exclude=probe_exclude,
    )

    def combine(results: Sequence) -> RnnResult:
        base_result, probe_result = results
        close = {pid for pid, _ in probe_result.neighbors}
        counters = _merge_cost(results)
        return RnnResult(
            points=tuple(pid for pid in base_result.points if pid in close),
            io=sum(result.io for result in results),
            cpu_seconds=sum(result.cpu_seconds for result in results),
            counters=counters,
        )

    return Expansion((base, probe), combine)
