"""The bound-provider protocol consumed by the expansion loops.

The paper's algorithms decline Euclidean lower bounds because they may
be absent (P2P graphs) or invalid (travel-time weights); the landmark
oracle (:mod:`repro.oracle.oracle`) derives bounds from the network
metric itself, so it applies to every graph the paper considers.  Both
kinds of bound -- and their combination -- share one tiny protocol:

* ``lower_bound(u, v)`` never exceeds the true network distance
  ``d(u, v)`` (``0.0`` when nothing is known);
* ``upper_bound(u, v)`` never undercuts it (``inf`` when nothing is
  known).

Anything honoring the protocol can be attached to a network view
(``view.bounds``) and the kNN/range/RkNN expansion loops will consult
it; answers are unaffected by construction (the pruning rules in
:mod:`repro.oracle.prune` only skip provably irrelevant work).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable


@runtime_checkable
class LowerBoundProvider(Protocol):
    """Admissible distance bounds between two graph nodes."""

    def lower_bound(self, u: int, v: int) -> float:
        """A value never exceeding the network distance ``d(u, v)``."""

    def upper_bound(self, u: int, v: int) -> float:
        """A value never undercutting the network distance ``d(u, v)``."""


class EuclideanBounds:
    """Euclidean lower bounds over node coordinates (no upper bounds).

    Valid exactly when every edge weight is at least the Euclidean
    length of the edge (e.g. the SF-style spatial generator, where
    weights *are* Euclidean lengths) -- the same admissibility
    condition as :func:`repro.paths.astar.euclidean_heuristic`.
    """

    def __init__(self, coords: Sequence[tuple[float, float]]):
        self._coords = coords

    def lower_bound(self, u: int, v: int) -> float:
        """Straight-line distance between the two node coordinates."""
        ux, uy = self._coords[u]
        vx, vy = self._coords[v]
        return math.hypot(ux - vx, uy - vy)

    def upper_bound(self, u: int, v: int) -> float:
        """Always ``inf``: coordinates say nothing about path existence."""
        return math.inf


class CombinedBounds:
    """Max-combine lower bounds (and min-combine upper bounds) of two
    providers.

    The combination is admissible whenever both inputs are: the larger
    of two lower bounds and the smaller of two upper bounds are still
    bounds.  This is the paper-era "Euclidean restriction" combined
    with the landmark oracle: attach
    ``CombinedBounds(EuclideanBounds(coords), oracle)`` to a view and
    every probe uses the tighter of the two on each pair.
    """

    def __init__(self, first: LowerBoundProvider, second: LowerBoundProvider):
        self._first = first
        self._second = second

    def lower_bound(self, u: int, v: int) -> float:
        """The larger (tighter) of the two lower bounds."""
        return max(self._first.lower_bound(u, v), self._second.lower_bound(u, v))

    def upper_bound(self, u: int, v: int) -> float:
        """The smaller (tighter) of the two upper bounds."""
        return min(self._first.upper_bound(u, v), self._second.upper_bound(u, v))


class LowerOnlyBounds:
    """A provider degraded to its lower bounds (``upper_bound`` is inf).

    Edge *deletions* only grow shortest-path distances, so lower
    bounds computed on the pre-deletion network stay admissible --
    each is at most the old distance, which is at most the new one.
    Upper bounds break the other way (an old ``d(u,l) + d(l,v)`` path
    may no longer exist), so a landmark oracle survives a deletion
    only in degraded form.  The delta overlay
    (:meth:`repro.compact.db.CompactDatabase.delete_edge`) wraps the
    attached oracle in this class instead of discarding it.

    Every other attribute delegates to the wrapped provider, so the
    label matrix read through this wrapper still holds the
    pre-deletion distances, whose label sums are no longer upper
    bounds.  The vectorized batch kernel's row filter derives its
    competitor thresholds from exactly those sums, so the kernel skips
    the filter under this wrapper; as with the scalar rules, whose
    ``inf`` upper bounds never prune, answers are unchanged.
    """

    def __init__(self, inner: LowerBoundProvider):
        self._inner = inner

    def lower_bound(self, u: int, v: int) -> float:
        """The wrapped provider's (still admissible) lower bound."""
        return self._inner.lower_bound(u, v)

    def upper_bound(self, u: int, v: int) -> float:
        """Always ``inf``: old upper bounds may undercut new distances."""
        return math.inf

    def __getattr__(self, name: str):
        """Delegate everything else (labels, landmark counts) inward."""
        return getattr(self._inner, name)
